#!/usr/bin/env python3
"""Perf guard: fail CI when the event budget regresses.

Runs a small pinned set of fast experiments once each and compares their
``events_fired`` against the checked-in baseline
(``tools/perf_baseline.json``).  The simulator is deterministic — fired
counts are exact and platform-independent — so a count above baseline
means a real regression in the engine or in timer elision, not noise.
The tolerance absorbs small intentional drifts; bigger deliberate changes
should refresh the baseline with ``--write`` in the same commit.

fig14's budget also guards its warm-world fork (INTERNALS §15): if its
units stopped forking and rebuilt the 6 s warm-up per config, it would
fire about 3x its budget (1.69M events against 555k).

Usage::

    PYTHONPATH=src python tools/perf_guard.py          # check (CI)
    PYTHONPATH=src python tools/perf_guard.py --write  # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ is None or __package__ == "":
    # Allow running without PYTHONPATH=src from the repo root.
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.experiments.common import run_experiment
from repro.sim.engine import Engine

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "perf_baseline.json")
#: Allowed events_fired growth over baseline before the guard fails.
TOLERANCE_PCT = 10.0
#: Pinned fast experiments: one host-churn-bound, one spin-bound, and the
#: one that forks a warm world.
PINNED = ("fig2", "fig4", "fig14")


def measure(exp_id: str) -> dict:
    fired0 = Engine.total_events_fired
    elided0 = Engine.total_events_elided
    run_experiment(exp_id, fast=True)
    return {"events_fired": Engine.total_events_fired - fired0,
            "events_elided": Engine.total_events_elided - elided0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Guard the deterministic event budget of pinned fast "
                    "experiments against the checked-in baseline.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the baseline from a fresh run")
    args = parser.parse_args(argv)

    measured = {exp_id: measure(exp_id) for exp_id in PINNED}

    if args.write:
        payload = {"tolerance_pct": TOLERANCE_PCT, "fast": True,
                   "experiments": measured}
        with open(BASELINE_PATH, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    tolerance = baseline.get("tolerance_pct", TOLERANCE_PCT)

    failures = []
    for exp_id, row in measured.items():
        fired = row["events_fired"]
        base = baseline["experiments"][exp_id]["events_fired"]
        delta = 100.0 * (fired - base) / base
        verdict = "ok"
        if delta > tolerance:
            verdict = f"REGRESSED (> +{tolerance:.0f}%)"
            failures.append(exp_id)
        elif delta < -tolerance:
            verdict = "improved (consider --write)"
        print(f"{exp_id:8s} fired={fired:>12,d} baseline={base:>12,d} "
              f"{delta:+6.2f}%  elided={row['events_elided']:>11,d} "
              f"[{verdict}]")
    if failures:
        print(f"event budget regressed: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
