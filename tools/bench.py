#!/usr/bin/env python3
"""Benchmark the experiment catalogue: wall-clock, events fired, events/sec.

Runs the experiments (fast mode recommended) as one campaign through the
flat work-unit scheduler (``parallel.run_units``) and writes a JSON report,
``BENCH_<YYYYMMDD>.json`` by default, so engine-hot-path changes can be
compared run over run.  Every unit is timed where it runs, so the report
shows where the seconds go inside the heavy experiments; with ``--cache``
the report also counts unit cache hits/misses (a warm rerun of an
unchanged tree is all hits).

``--jobs N`` runs the units over N supervised workers (the default, one
job, runs them in-process).  Scenario rows carry their retry
``attempts``, and the report's ``supervisor`` block records
retry/requeue/timeout/kill/respawn counts — under ``$VSCHED_REPRO_CHAOS``
(pooled runs only) that is the fault-recovery bill.

Every experiment row records the engine counter deltas
(pushes/cancels/dead_drops) next to its fired/elided counts.

Usage::

    PYTHONPATH=src python tools/bench.py --fast
    PYTHONPATH=src python tools/bench.py --fast --experiments fig2,fig14
    PYTHONPATH=src python tools/bench.py --fast --jobs 4
    PYTHONPATH=src python tools/bench.py --fast --cache --cache-dir .c
    PYTHONPATH=src python tools/bench.py --fast --profile fig14
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys

if __package__ is None or __package__ == "":
    # Allow running without PYTHONPATH=src from the repo root.
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.cli import ALL_ORDER
from repro.experiments.common import run_experiment
from repro.experiments.supervisor import SupervisorStats
from repro.sim.engine import Engine

#: Counter keys copied into per-scenario/per-experiment "engine" dicts
#: (fired/elided are already first-class report fields).
_COUNTER_KEYS = ("pushes", "cancels", "dead_drops")


def bench_campaign(ids, fast: bool, check: bool, jobs: int,
                   cache=None) -> list:
    """Time the ids as one campaign; returns one report row per id.

    Wall/events per scenario are measured where the unit ran, in-process
    at one job or in a worker; a unit that retried reports the wall of
    its successful attempt and ``attempts > 1``.
    """
    rows = []
    for res in parallel.run_units(ids, fast=fast, check=check, jobs=jobs,
                                  cache=cache, keep_going=True):
        if res.failed_units:
            error = "; ".join(f"{fu.label}: {fu.error}"
                              for fu in res.failed_units)
        else:
            error = res.check_error
        row = {
            "exp_id": res.exp_id,
            "wall_s": round(res.wall_s, 3),
            "events_fired": res.events_fired,
            "events_elided": res.events_elided,
            "events_per_sec": round(res.events_fired / res.wall_s)
            if res.wall_s > 0 else 0,
            "engine": {k: res.counters.get(k, 0) for k in _COUNTER_KEYS},
            "scenarios": res.unit_stats,
            "error": error,
        }
        if cache is not None:
            row["cache"] = {"hits": res.cache_hits,
                            "misses": res.n_units - res.cache_hits}
        rows.append(row)
    return rows


def profile_experiment(exp_id: str, fast: bool) -> int:
    """cProfile one experiment; print the top 20 by cumulative time and
    the engine's per-callback attribution table (fired/cancelled/elided
    per callsite — where the event budget actually goes)."""
    import cProfile
    import pstats

    Engine.profile_reset()
    Engine.profiling = True
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_experiment(exp_id, fast=fast)
    finally:
        profiler.disable()
        Engine.profiling = False
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)
    print()
    print(Engine.profile_table())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the experiment catalogue and emit a JSON report.")
    parser.add_argument("--fast", action="store_true",
                        help="shrunken workloads (recommended)")
    parser.add_argument("--experiments", default=None, metavar="IDS",
                        help="comma-separated experiment ids "
                             "(default: the full catalogue)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the campaign (default 1: "
                             "in-process)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<YYYYMMDD>.json)")
    parser.add_argument("--check", action="store_true",
                        help="run shape checks; exit nonzero on any failure")
    parser.add_argument("--cache", action="store_true",
                        help="consult/populate the work-unit result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory")
    parser.add_argument("--profile", default=None, metavar="EXP_ID",
                        help="cProfile this experiment, print the top 20 "
                             "cumulative entries, and exit")
    args = parser.parse_args(argv)

    if args.profile:
        return profile_experiment(args.profile, fast=args.fast)

    ids = (args.experiments.split(",") if args.experiments else ALL_ORDER)
    ids = [i.strip() for i in ids if i.strip()]
    cache = ResultCache(args.cache_dir) if args.cache else None
    primary = bench_campaign(ids, fast=args.fast, check=args.check,
                             jobs=args.jobs, cache=cache)
    for res in primary:
        status = res["error"] or "ok"
        cache_note = ""
        if cache is not None:
            cache_note = (f" {res['cache']['hits']}h/"
                          f"{res['cache']['misses']}m")
        print(f"{res['exp_id']:8s} "
              f"{res['wall_s']:8.2f}s "
              f"{res['events_fired']:>12,d} ev "
              f"{res.get('events_elided', 0):>11,d} el "
              f"{res['events_per_sec']:>10,d} ev/s{cache_note}  "
              f"[{status}]", flush=True)
    sup_stats = parallel.last_campaign_stats()

    report = {
        "date": datetime.date.today().isoformat(),
        "fast": args.fast,
        "jobs": args.jobs,
        "python": platform.python_version(),
        "total_wall_s": round(sum(r["wall_s"] for r in primary), 3),
        "total_events_fired": sum(r["events_fired"] for r in primary),
        "total_events_elided": sum(r.get("events_elided", 0)
                                   for r in primary),
        "tickless": os.environ.get("VSCHED_REPRO_TICKLESS", "1") != "0",
        "supervisor": (sup_stats.as_dict() if sup_stats is not None
                       else SupervisorStats().as_dict()),
        "experiments": primary,
    }
    if cache is not None:
        report["cache"] = {
            "dir": cache.path,
            "hits": cache.hits,
            "misses": cache.misses,
        }
    out = args.out or f"BENCH_{datetime.date.today():%Y%m%d}.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}: {report['total_wall_s']:.1f}s total, "
          f"{report['total_events_fired']:,d} events fired, "
          f"{report['total_events_elided']:,d} elided"
          + (f", cache {cache.hits}h/{cache.misses}m" if cache else ""))

    failures = [r["exp_id"] for r in primary if r["error"]]
    if failures:
        print(f"FAILURES: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
