#!/usr/bin/env python3
"""A/B determinism harness: tickless elision on and off.

Runs each experiment with ``VSCHED_REPRO_TICKLESS`` on and off in one
process and asserts the two result tables are **byte-identical**.
Elision is a pure event-count optimisation: skipped guest ticks are
replayed arithmetically and suppressed host timers fire logically at the
same instants, so any table divergence is a correctness bug, not noise.

Also reports the event-reduction ratio per experiment (off/on fired
events) and the elided count, which is where the speedup claim in
BENCH_*.json comes from.

Usage::

    PYTHONPATH=src python tools/abdiff.py --fast
    PYTHONPATH=src python tools/abdiff.py --fast --experiments fig2,fig4
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ is None or __package__ == "":
    # Allow running without PYTHONPATH=src from the repo root.
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.experiments.cli import ALL_ORDER
from repro.experiments.common import run_experiment
from repro.sim.engine import Engine


def table_bytes(table) -> str:
    """Canonical byte-comparable form of a result table.

    ``repr`` keeps full float precision — two runs that differ in any
    bit of any cell produce different blobs even when the rendered
    (rounded) table would look the same.
    """
    return repr(table.columns) + "\n" + "\n".join(
        repr(row) for row in table.rows)


def run_once(exp_id: str, fast: bool, tickless: bool):
    os.environ["VSCHED_REPRO_TICKLESS"] = "1" if tickless else "0"
    fired0 = Engine.total_events_fired
    elided0 = Engine.total_events_elided
    table = run_experiment(exp_id, fast=fast)
    return (table_bytes(table),
            Engine.total_events_fired - fired0,
            Engine.total_events_elided - elided0)


def _diff_blobs(label: str, ref: str, got: str) -> None:
    for a, b in zip(ref.splitlines(), got.splitlines()):
        if a != b:
            print(f"  ref          : {a}")
            print(f"  {label:13s}: {b}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert experiments are byte-identical across timer "
                    "elision on/off, and report the event savings.")
    parser.add_argument("--fast", action="store_true",
                        help="shrunken workloads (recommended)")
    parser.add_argument("--experiments", default=None, metavar="IDS",
                        help="comma-separated experiment ids "
                             "(default: the full catalogue)")
    args = parser.parse_args(argv)

    ids = (args.experiments.split(",") if args.experiments else ALL_ORDER)
    ids = [i.strip() for i in ids if i.strip()]

    saved_tickless = os.environ.get("VSCHED_REPRO_TICKLESS")
    diverged = []
    totals = {"on": 0, "off": 0}
    try:
        for exp_id in ids:
            ref_blob, on_fired, on_elided = run_once(exp_id, args.fast, True)
            blob, off_fired, off_elided = run_once(exp_id, args.fast, False)
            totals["on"] += on_fired
            totals["off"] += off_fired
            ratio = off_fired / on_fired if on_fired else float("inf")
            # Only tables are compared: fired counts legitimately differ
            # (elision skips ticks).
            status = "DIVERGED(table)" if blob != ref_blob else "identical"
            for label, fired, elided, tag in (
                    ("on", on_fired, on_elided, "reference"),
                    ("off", off_fired, off_elided, status)):
                print(f"{exp_id:8s} {label:14s} fired={fired:>12,d} "
                      f"elided={elided:>11,d}  [{tag}]", flush=True)
            if blob != ref_blob:
                diverged.append(f"{exp_id}:off")
                _diff_blobs("off", ref_blob, blob)
            print(f"{exp_id:8s} elision savings x{ratio:5.2f} "
                  f"(off/on fired)", flush=True)
    finally:
        if saved_tickless is None:
            os.environ.pop("VSCHED_REPRO_TICKLESS", None)
        else:
            os.environ["VSCHED_REPRO_TICKLESS"] = saved_tickless

    for label, fired in totals.items():
        print(f"total    {label:14s} fired={fired:>12,d}")
    if diverged:
        print(f"DIVERGED: {diverged}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
