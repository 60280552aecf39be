#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs every experiment (fast mode by default; --full for the paper-scale
campaign), records the rendered tables and whether the qualitative shape
assertions held, and writes the comparison document.

Usage:  PYTHONPATH=src python tools/make_experiments_md.py [--full] [--only fig2,fig3]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.cli import ALL_ORDER
from repro.experiments.common import check_experiment, run_experiment

#: What the paper reports, per artifact, for the side-by-side summary.
PAPER_CLAIMS = {
    "fig2": "p95 tail latency grows up to 20x as vCPU latency goes "
            "2 ms -> 16 ms, with and without best-effort tasks",
    "fig3": "the default scheduler leaves the thread stalled ~50% of the "
            "time; circular self-migration doubles vCPU utilization",
    "fig4": "non-work-conserving placement wins: up to 43% (straggler), "
            "up to 30% (stacking), up to 6.7x (priority inversion)",
    "fig10a": "EMA capacity tracks real capacity changes while smoothing "
              "out short spikes",
    "fig10b": "distinct latency classes: ~6 ns SMT, ~48 ns intra-socket, "
              "~112 ns cross-socket, infinity for the stacked pair",
    "tab2": "probing is sub-second: rcvm 547/388 ms (full/validate), hpvm "
            "665/160 ms; validation cheaper, rcvm's dominated by stacking "
            "confirmation",
    "fig11": "asymmetric: fast-vCPU residency 44% -> 81% and +32% "
             "throughput with vcap; symmetric: 74% fewer migrations, +4%",
    "fig12": "underloaded: 11-12 -> 15-16 active cores with vtop; mixed: "
             "Matmul +18%, Nginx +5%, Fio unchanged",
    "fig13": "vtop: +26% throughput and +14.5% IPC on average, up to 99% "
             "fewer IPIs",
    "fig14": "bvs cuts p95 tail latency 42% on average across Tailbench, "
             "with and without best-effort tasks",
    "tab3": "bvs cuts Masstree queue time 44-70%; dropping the vCPU state "
            "check forfeits part of the gain under best-effort tasks",
    "fig15": "ivh: up to 82% higher throughput with few threads, ~17% "
             "average even at 16 threads",
    "tab4": "activity-aware migration beats the activity-unaware variant "
            "at every thread count (e.g. 348 s vs 408 s at 1 thread)",
    "fig16": "vSched matches CFS when dedicated, sustains throughput when "
             "overcommitted/asymmetric, and recovers quickly when "
             "constrained",
    "fig17": "vSched: +15% (intermittent), +24% (consistent), ~equal "
             "(transient); co-located VMs degrade only 1-2%",
    "fig18": "rcvm: enhanced CFS 1.4x lower latency / +59% throughput; "
             "vSched 1.6x / +69% vs CFS",
    "fig19": "hpvm: enhanced CFS 1.5x lower latency / +13% throughput; "
             "vSched 2.3x / +18% vs CFS",
    "fig20": "throughput workloads: +5.5% cycles for +38% CPS under "
             "vSched; latency workloads: +50.5% cycles from an 8.4x lower "
             "CPS baseline",
    "fig21": "0.7% average degradation on a dedicated VM; latency "
             "workloads can even improve (probing keeps cores warm)",
    "figA1": "not in the paper (robustness extension): under every "
             "antagonist class, hardened probers have strictly lower "
             "combined capacity+activity estimate error than naive ones, "
             "at no accuracy cost without an antagonist",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the vSched paper (EuroSys '25), regenerated on
this repository's simulated substrate.  Absolute numbers are **not**
expected to match the paper (its testbed is an HPE DL580 running patched
Linux; ours is a discrete-event simulator) — the comparison below is about
*shape*: who wins, by roughly what factor, and where the crossovers are.
Each experiment carries programmatic shape assertions (`check_*` in
`src/repro/experiments/`), run by every `vsched-repro run`.

Regenerate this file:

```bash
PYTHONPATH=src python tools/make_experiments_md.py          # fast mode
PYTHONPATH=src python tools/make_experiments_md.py --full   # paper-scale campaign
```

Known, deliberate deviations of this substrate (details in DESIGN.md):

* vtop probing times land at roughly 30-600 ms against the paper's
  160-665 ms, and the relations hold: validation beats full probing,
  stacking confirmation dominates rcvm's validation, and hpvm's full
  probe is the most expensive.
* rwc's straggler trigger is recalibrated from "10x below average" to "3x
  below median": host wake-up credit lets even a heavily hogged vCPU burst
  briefly, compressing the measured capacity range.
* In the multi-tenant experiment (fig17) the nginx gains track the paper,
  but the *intermittent-phase* neighbours (facesim/ferret) degrade by tens
  of percent instead of the paper's 1.2%: on this substrate the cycles
  vSched reclaims for its fair share directly stretch the neighbours'
  barrier phases.  The consistent-phase neighbour impact (~2%) matches.
* Mode = {mode}.

---

"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--only", default=None)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()
    fast = not args.full
    ids = args.only.split(",") if args.only else ALL_ORDER

    sections = []
    for exp_id in ids:
        started = time.time()
        print(f"running {exp_id}...", flush=True)
        table = run_experiment(exp_id, fast=fast)
        try:
            check_experiment(exp_id, table)
            verdict = "shape checks PASSED"
        except AssertionError as exc:
            verdict = f"shape checks FAILED: {exc}"
        elapsed = time.time() - started
        sections.append(
            f"## {exp_id}\n\n"
            f"**Paper:** {PAPER_CLAIMS[exp_id]}\n\n"
            f"**Measured** ({elapsed:.0f}s wall):\n\n"
            f"```\n{table.render()}\n```\n\n"
            f"**Verdict:** {verdict}\n\n---\n"
        )
        print(f"  {verdict} ({elapsed:.0f}s)", flush=True)

    mode = "full (paper-scale)" if args.full else "fast (shrunken workloads)"
    with open(args.out, "w") as fh:
        fh.write(HEADER.format(mode=mode))
        fh.write("\n".join(sections))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
