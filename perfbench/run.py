#!/usr/bin/env python3
"""The repository benchmark: host cost of regenerating paper artifacts.

Usage (from the repository root)::

    python3 perfbench/run.py --workload segment --seed 1 --seconds 30 --trace 0

Each workload regenerates a fixed set of fast-mode experiments through the
program's public entry points (``parallel.decompose``,
``snapstore.execute_unit``, each experiment's ``assemble``,
``common.check_experiment``, ``parallel.run_units``) and times the calls.
Every rendered table is checked against its pinned SHA-256 and its
``check_experiment`` shape claims; the simulated statistics are
deterministic and are compared for identity, never timed.

``--trace 0`` repeats whole passes of the workload for ``--seconds`` (to
the nearest pass boundary) and prints the end-to-end metrics as medians
over passes.
``--trace 1`` runs one untimed reference pass and one pass under cProfile,
attributes the profile to the ``src/repro`` packages (see ``layers.py``),
and writes a Chrome trace of the benchmark's own spans to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


@dataclass(frozen=True)
class Workload:
    exps: Tuple[str, ...]
    jobs: int


#: Why these three (README.md has the numbers): ``segment`` is dominated by
#: the guest segment path and the engine and has no snapshot prefixes;
#: ``balance`` by guest load balancing, with the engine a small share;
#: ``campaign`` by snapshot forks and supervisor dispatch across workers.
#: A change to one of those layers should move its workload and leave the
#: others alone.
WORKLOADS: Dict[str, Workload] = {
    "segment": Workload(("fig4",), 1),
    "balance": Workload(("fig12", "fig13"), 1),
    "campaign": Workload(("fig14",), 2),
}

#: SHA-256 of each fast-mode rendered table.  The tables are deterministic,
#: so a change of digest is a change of the program's results.
DIGESTS: Dict[str, str] = {
    "fig4": "366ead54439dcd31f76de42cd586535b94ba5bb770a1b47f10caa287be0f319d",
    "fig12": "2444ab2ef56090987c110937709c6b7347beae534c4b67d93cbc2841a90254a0",
    "fig13": "e53a9b4606b949b7a28aea919d9534cb90534173cec5963e2fcbf9abc290ad89",
    "fig14": "68724b13f17437003a52fcfe58898aca9012fbe76e407b08a5a64dcb9b0d8b12",
}

#: Fresh interpreters timed for ``setup_s``; the reported value is their
#: median, so one slow start does not move it.
SETUP_PROBES = 7

#: Imports plus decompose, up to the point the first unit would start.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro.experiments import parallel
from repro.experiments.snapstore import execute_unit
for exp in sys.argv[2:]:
    parallel.decompose(exp, True)
print(time.perf_counter() - t0)
"""

_FAILED = object()


# ----------------------------------------------------------------------
# One pass of a workload
# ----------------------------------------------------------------------
class Pass:
    """What one pass over a workload measured and checked."""

    def __init__(self, origin: float, track: int):
        self.origin = origin
        self.track = track
        self.spans: List[dict] = []
        self.units: List[Tuple[str, str, float]] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.wall_s = self.cpu_s = 0.0
        self.events = self.elided = 0
        self.counters: Dict[str, float] = {}
        self.supervisor: Dict[str, int] = {}
        self.snap = {"hits": 0, "misses": 0, "forks": 0, "saved_s": 0.0}

    def span(self, name: str, cat: str, start: float, end: float,
             tid: Optional[int] = None, **args) -> None:
        self.spans.append({"name": name, "cat": cat,
                           "ts_s": start - self.origin, "dur_s": end - start,
                           "tid": self.track if tid is None else tid,
                           "args": args})

    def span_total(self, cat: str) -> float:
        return sum(s["dur_s"] for s in self.spans if s["cat"] == cat)

    def check_table(self, exp: str, rendered: str,
                    shape_error: Optional[str]) -> None:
        """One table attempted; it fails on a shape or digest mismatch."""
        self.attempted += 1
        digest = hashlib.sha256(rendered.encode()).hexdigest()
        problems = [] if shape_error is None else [
            f"shape check failed: {shape_error}"]
        if digest != DIGESTS[exp]:
            problems.append(f"digest {digest} != pinned {DIGESTS[exp]}")
        if problems:
            self.failures.append(f"{exp}: " + "; ".join(problems))


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def serial_pass(wl: Workload, rng: random.Random, origin: float,
                track: int) -> Pass:
    """Run every unit of the workload in-process, in a seed-shuffled order.

    Units of all experiments are interleaved, so state leaking from one
    unit into a later one changes a table and fails the digest check.
    """
    from repro.experiments import parallel
    from repro.experiments.common import check_experiment
    from repro.experiments.snapstore import (execute_unit,
                                             reset_process_store,
                                             snapshot_counters)
    from repro.sim.engine import Engine

    reset_process_store()
    p = Pass(origin, track)
    counters0, snap0 = Engine.counters(), snapshot_counters()
    cpu0, wall0 = _cpu(), time.perf_counter()
    plans = []
    for exp in wl.exps:
        t = time.perf_counter()
        units, assemble = parallel.decompose(exp, True)
        p.span(f"decompose {exp}", "decompose", t, time.perf_counter())
        plans.append((exp, units, assemble, [None] * len(units)))
    order = [(k, i) for k, plan in enumerate(plans)
             for i in range(len(plan[1]))]
    rng.shuffle(order)
    for k, i in order:
        exp, units, _assemble, results = plans[k]
        unit = units[i]
        p.attempted += 1
        t = time.perf_counter()
        try:
            results[i] = execute_unit(unit.func, unit.config, unit.prefix,
                                      True)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            results[i] = _FAILED
            p.failures.append(f"unit {exp}/{unit.label}: "
                              f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        p.units.append((exp, unit.label, end - t))
        p.span(f"{exp}/{unit.label}", "unit", t, end)
    for exp, _units, assemble, results in plans:
        if any(r is _FAILED for r in results):
            p.attempted += 1
            p.failures.append(f"{exp}: not assembled, a unit failed")
            continue
        t = time.perf_counter()
        table = assemble(True, results)
        t2 = time.perf_counter()
        p.span(f"assemble {exp}", "assemble", t, t2)
        shape_error = None
        try:
            check_experiment(exp, table)
        except AssertionError as exc:
            shape_error = str(exc)
        p.span(f"check {exp}", "check", t2, time.perf_counter())
        p.check_table(exp, table.render(), shape_error)
    p.wall_s = time.perf_counter() - wall0
    p.cpu_s = _cpu() - cpu0
    after = Engine.counters()
    p.events = after["fired"] - counters0["fired"]
    p.elided = after["elided"] - counters0["elided"]
    p.counters = {k: after[k] - counters0[k] for k in after}
    snap = snapshot_counters()
    p.snap = {"hits": snap["snap_hits"] - snap0["snap_hits"],
              "misses": snap["snap_misses"] - snap0["snap_misses"],
              "forks": snap["snap_forks"] - snap0["snap_forks"],
              "saved_s": snap["snap_saved_s"] - snap0["snap_saved_s"]}
    return p


def campaign_pass(wl: Workload, origin: float, track: int) -> Pass:
    """Run the workload as one supervised campaign at ``wl.jobs`` workers.

    Workers report per-unit wall time but not when each unit started, so
    the per-worker tracks of the Chrome trace replay the supervisor's
    dispatch rule (longest ``cost_hint`` first, to the first free worker)
    over the measured unit times, and are labelled as reconstructed.
    """
    from repro.experiments import parallel
    from repro.experiments.snapstore import reset_process_store

    reset_process_store()
    p = Pass(origin, track)
    cpu0, wall0 = _cpu(), time.perf_counter()
    results = list(parallel.run_units(list(wl.exps), fast=True, check=True,
                                      jobs=wl.jobs, keep_going=True))
    end = time.perf_counter()
    p.wall_s = end - wall0
    p.cpu_s = _cpu() - cpu0
    p.span(f"campaign {'+'.join(wl.exps)} jobs={wl.jobs}", "campaign",
           wall0, end)
    stats = parallel.last_campaign_stats()
    p.supervisor = stats.as_dict() if stats is not None else {}
    hints = []
    for r in results:
        p.attempted += r.n_units
        for f in r.failed_units:
            p.failures.append(f"unit {f.exp_id}/{f.label}: {f.error} "
                              f"({f.fate})")
        p.check_table(r.exp_id, r.rendered, r.check_error)
        p.events += r.events_fired
        p.elided += r.events_elided
        for k, v in r.counters.items():
            p.counters[k] = p.counters.get(k, 0) + v
        units, _assemble = parallel.decompose(r.exp_id, True)
        for unit, st in zip(units, r.unit_stats):
            p.units.append((r.exp_id, st["label"], st["wall_s"]))
            hints.append(unit.cost_hint)
    p.snap = {"hits": p.counters.get("snap_hits", 0),
              "misses": p.counters.get("snap_misses", 0),
              "forks": p.counters.get("snap_forks", 0),
              "saved_s": p.counters.get("snap_saved_s", 0.0)}
    free = [wall0] * wl.jobs
    for k in sorted(range(len(p.units)), key=lambda k: -hints[k]):
        w = min(range(wl.jobs), key=free.__getitem__)
        exp, label, wall = p.units[k]
        p.span(f"{exp}/{label}", "unit", free[w], free[w] + wall,
               tid=track + 1 + w, reconstructed=True)
        free[w] += wall
    return p


def run_pass(wl: Workload, rng: random.Random, origin: float,
             track: int) -> Pass:
    if wl.jobs > 1:
        return campaign_pass(wl, origin, track)
    return serial_pass(wl, rng, origin, track)


# ----------------------------------------------------------------------
# Run record shared by every run in one checkout
# ----------------------------------------------------------------------
def _load_ledger() -> dict:
    try:
        with open(os.path.join(OUT, "ledger.json")) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _save_ledger(ledger: dict) -> None:
    path = os.path.join(OUT, "ledger.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def check_repeats(ledger: dict, code: str, workload: str, key: str,
                  value) -> Optional[str]:
    """Pin ``value`` for this code on first sight; report a later change.

    Serial workloads are deterministic, so ``events_fired`` and the
    per-layer call counts must repeat exactly in every run of one tree.
    """
    seen = ledger.setdefault(code, {}).setdefault(workload, {})
    if key not in seen:
        seen[key] = value
        return None
    if seen[key] != value:
        return (f"nondeterminism: {key} = {value} differs from an earlier "
                f"run of this tree ({seen[key]})")
    return None


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly; None outside git.

    Reading the files, rather than running git, keeps the benchmark from
    looking above the checkout for a repository that is not its own.
    """
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """What a noisy result needs beside it to be explained."""
    from repro.experiments.cache import code_fingerprint
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "code_fingerprint": code_fingerprint(),
            "loadavg": list(os.getloadavg())}


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def setup_seconds(wl: Workload) -> List[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, SRC, *wl.exps],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _tail(values: List[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"tail n/a (n={n} < 11)"
    pct = 100.0 * (n - 10) / n
    return f"p{pct:.0f} {sorted(values)[n - 11]:.6g}"


def timed_run(name: str, wl: Workload, seed: int, seconds: float,
              ledger: dict, env: dict) -> dict:
    setup = setup_seconds(wl)
    rng = random.Random(seed)
    passes: List[Pass] = []
    start = time.perf_counter()
    # Whole passes only, so every pass is table-checked; stop at the pass
    # boundary nearest to ``seconds``.
    while True:
        passes.append(run_pass(wl, rng, start, 0))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall_s / 2 >= seconds:
            break
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    if wl.jobs == 1:
        for p in passes:
            attempted += 1
            msg = check_repeats(ledger, env["code_fingerprint"], name,
                                "events_fired", p.events)
            if msg:
                failures.append(msg)
    else:
        runs = ledger.setdefault(env["code_fingerprint"], {}).setdefault(
            name, {}).setdefault("passes", [])
        runs.extend([p.events, p.snap["misses"]] for p in passes)
    samples = {
        "wall_s": ([p.wall_s for p in passes], "s"),
        "cpu_s": ([p.cpu_s for p in passes], "s"),
        "events_fired": ([float(p.events) for p in passes], "count"),
        "events_per_s": ([p.events / p.wall_s for p in passes], "1/s"),
        "setup_s": (setup, "s"),
    }
    metrics = {k: (statistics.median(v), u) for k, (v, u) in samples.items()}
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    how = (f"unit order shuffled by seed {seed}" if wl.jobs == 1
           else f"supervised campaign, jobs={wl.jobs}")
    lines = [f"passes: {len(passes)} in {time.perf_counter() - start:.1f} s "
             f"({how})"]
    for k, (v, u) in samples.items():
        lines.append(f"{k:<14} median {statistics.median(v):.6g} {u}  "
                     f"{_tail(v)}  n={len(v)}")
    lines.append(f"{'peak_rss_mb':<14} {metrics['peak_rss_mb'][0]:.6g} MB  "
                 f"(max of self and children)")
    if wl.jobs > 1:
        events = [p.events for p in passes]
        misses = [p.snap["misses"] for p in passes]
        lines.append(f"spread over passes: events_fired {min(events)}.."
                     f"{max(events)}, snap_misses {min(misses)}..{max(misses)}"
                     f" (depends on worker scheduling)")
        history = ledger[env["code_fingerprint"]][name]["passes"]
        lines.append(f"spread over {len(history)} passes of this tree: "
                     f"events_fired {min(h[0] for h in history)}.."
                     f"{max(h[0] for h in history)}, snap_misses "
                     f"{min(h[1] for h in history)}.."
                     f"{max(h[1] for h in history)}")
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "lines": lines,
            "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                        "events_fired": p.events, "snap": p.snap,
                        "supervisor": p.supervisor, "units": p.units}
                       for p in passes]}


def traced_run(name: str, wl: Workload, seed: int, ledger: dict,
               env: dict) -> dict:
    """Reference pass, then the same pass under cProfile; per-layer metrics.

    Campaign workers run in other processes, where this profiler cannot
    see, so a campaign's profiled pass replays its units in-process at one
    job.  Its snapshot, supervisor and engine counters come from an
    untraced campaign pass at the workload's own job count.
    """
    import copy

    import layers
    import repro

    rng = random.Random(seed)
    origin = time.perf_counter()
    passes: List[Pass] = []
    campaign = None
    tracks = {0: "reference pass (untraced, jobs=1)",
              10: ("replay of the campaign's units under cProfile, jobs=1"
                   if wl.jobs > 1 else "profiled pass (cProfile)")}
    if wl.jobs > 1:
        campaign = campaign_pass(wl, origin, 20)
        passes.append(campaign)
        tracks[20] = f"campaign (untraced, jobs={wl.jobs})"
        for w in range(wl.jobs):
            tracks[21 + w] = f"worker {w} (reconstructed from unit_stats)"
    ref = serial_pass(wl, rng, origin, 0)
    passes.append(ref)
    # cProfile counts the close of a suspended generator as a call, and the
    # cyclic collector closes them whenever it happens to run.  Collecting
    # the reference pass's garbage before the window and this pass's inside
    # it makes the per-layer call counts repeat exactly.
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        prof = serial_pass(wl, rng, origin, 10)
        gc.collect()
    finally:
        profiler.disable()
    passes.append(prof)
    raw = pstats.Stats(profiler).stats

    attr = layers.attribute(raw, layers.file_owner(
        os.path.dirname(os.path.abspath(repro.__file__))))
    metrics = layers.layer_metrics(attr, prof.events)
    counted = campaign or ref
    c = counted.counters
    fired_elided = counted.events + counted.elided
    metrics.update({
        "sim.pushes": (c.get("pushes", 0), "count"),
        "sim.cancels": (c.get("cancels", 0), "count"),
        "sim.dead_drops": (c.get("dead_drops", 0), "count"),
        "sim.events_elided": (counted.elided, "count"),
        "sim.cancel_ratio": (c["cancels"] / c["pushes"]
                             if c.get("pushes") else 0.0, "ratio"),
        "sim.elide_ratio": (counted.elided / fired_elided
                            if fired_elided else 0.0, "ratio"),
    })
    snap = counted.snap
    tried = snap["hits"] + snap["misses"]
    busy = sum(u[2] for u in counted.units)
    sup = counted.supervisor
    metrics.update({
        "experiments.snap_hits": (snap["hits"], "count"),
        "experiments.snap_misses": (snap["misses"], "count"),
        "experiments.snap_hit_ratio": (snap["hits"] / tried if tried
                                       else 0.0, "ratio"),
        "experiments.snap_forks": (snap["forks"], "count"),
        "experiments.snap_prefix_saved_s": (snap["saved_s"], "s"),
        "experiments.deepcopy_s": (layers.function_cum(
            raw, copy.__file__, "deepcopy"), "s"),
        "experiments.unit_busy_s": (busy, "s"),
        "experiments.worker_idle_frac": (
            1.0 - busy / (wl.jobs * counted.wall_s), "frac"),
        "experiments.critical_unit_s": (max(u[2] for u in counted.units),
                                        "s"),
        "experiments.decompose_s": (ref.span_total("decompose"), "s"),
        "experiments.assemble_s": (ref.span_total("assemble"), "s"),
        "experiments.check_s": (ref.span_total("check"), "s"),
        "trace_overhead": (prof.wall_s / ref.wall_s, "ratio"),
    })
    for k in ("retries", "requeues", "timeouts", "crashes", "respawns"):
        metrics[f"experiments.{k}"] = (sup.get(k, 0), "count")

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    if wl.jobs == 1:
        calls = {layer: attr["layers"][layer]["calls"]
                 for layer in layers.LAYERS}
        for key, value in (("events_fired", ref.events),
                           ("events_fired", prof.events),
                           ("calls", calls)):
            attempted += 1
            msg = check_repeats(ledger, env["code_fingerprint"], name, key,
                                value)
            if msg:
                failures.append(msg)

    trace_path = os.path.join(OUT, f"{name}-seed{seed}.trace.json")
    doc = layers.chrome_trace(
        [s for p in passes for s in p.spans], tracks,
        {"workload": name, "seed": seed, "replay": wl.jobs > 1, **env})
    with open(trace_path, "w") as fh:
        json.dump(doc, fh)
    lines = [f"traced: reference pass {ref.wall_s:.2f} s, profiled pass "
             f"{prof.wall_s:.2f} s ({prof.events} events)"
             + (", profiled pass is a jobs=1 replay" if wl.jobs > 1 else ""),
             f"unattributed (harness) self time "
             f"{attr['unattributed_s']:.3f} s",
             f"chrome trace: {os.path.relpath(trace_path, ROOT)}"]
    lines += [f"{k:<34} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "lines": lines,
            "passes": [{"wall_s": p.wall_s, "events_fired": p.events}
                       for p in passes]}


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="shuffles unit execution order of serial "
                         "workloads; experiment input seeds are fixed")
    ap.add_argument("--seconds", type=float, default=34.0,
                    help="measurement window of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    wl = WORKLOADS[args.workload]
    from repro.experiments import parallel
    for exp in wl.exps:
        parallel.decompose(exp, True)   # imports, compiled once, untimed
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    ledger = _load_ledger()
    if args.trace:
        res = traced_run(args.workload, wl, args.seed, ledger, env)
    else:
        res = timed_run(args.workload, wl, args.seed, args.seconds, ledger,
                        env)
    _save_ledger(ledger)

    failed = len(res["failures"])
    attempted = max(1, res["attempted"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"experiments={','.join(wl.exps)} jobs={wl.jobs}")
    print("env: " + json.dumps(env, sort_keys=True))
    for line in res["lines"]:
        print(line)
    for f in res["failures"]:
        print(f"FAILED: {f}")
    print(f"{'failed_frac':<14} {failed / attempted:.6g} frac  "
          f"({failed} of {attempted} units, tables and repeat checks)")
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "env": env,
                   "failed_frac": failed / attempted,
                   "metrics": {k: v for k, (v, _u) in res["metrics"].items()},
                   "failures": res["failures"], "passes": res["passes"]},
                  fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
