"""Figure 16 — vSched responds quickly to vCPU changes (§5.7).

A 16-vCPU VM serves Nginx while the host conditions move through four
phases:

1. **dedicated** — each vCPU owns a core; vSched ≈ CFS (the default
   abstraction is already accurate);
2. **overcommitted** — a competing VM takes half of every core; CFS
   throughput halves, vSched recovers much of it by harvesting (ivh);
3. **asymmetric** — half the vCPUs get 2× the capacity of the rest,
   total capacity unchanged; vSched sustains its throughput;
4. **constrained** — two vCPUs stacked on one thread and two more cut to
   straggler capacity; rwc hides them and vSched recovers while CFS
   suffers.

The table reports mean requests/second per phase for CFS and vSched.
Each mode is one work unit running one timeline: the transitions are
applied synchronously between ``run_until`` calls at the phase
boundaries, so the unit fires the same events however units are spread
across workers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit, execute_serial
from repro.core.weights import weight_for_nice
from repro.sim.engine import MSEC, SEC
from repro.workloads import NginxServer

PHASES = ("dedicated", "overcommitted", "asymmetric", "constrained")
MODES = ("cfs", "vsched")


# ---------------------------------------------------------------------------
# Host-condition transitions, applied synchronously at phase boundaries.
# Each takes the roots dict so the stress handles one phase adds can be
# removed by the next.
# ---------------------------------------------------------------------------
def _to_overcommitted(roots: Dict) -> None:
    env = roots["env"]
    roots["stress"] = [env.machine.add_host_task(f"s{i}", pinned=(i,))
                       for i in range(16)]


def _to_asymmetric(roots: Dict) -> None:
    # Half the vCPUs 2x the capacity of the rest, same total: fast
    # vCPUs' competitors are demoted to one third of the weight.
    env = roots["env"]
    for task in roots["stress"]:
        env.machine.remove_host_task(task)
    for i in range(16):
        if i < 8:
            env.machine.add_host_task(f"a{i}", pinned=(i,),
                                      weight=512)   # vCPU gets ~2/3
        else:
            env.machine.add_host_task(f"a{i}", pinned=(i,),
                                      weight=2048)  # vCPU gets ~1/3


def _to_constrained(roots: Dict) -> None:
    # Stack vCPU1 onto vCPU0's thread; throttle vCPUs 2-3 to straggler
    # capacity.
    env = roots["env"]
    env.machine.repin(env.vm.vcpu(1), (0,))
    for i in (2, 3):
        env.machine.add_host_task(f"hog{i}", pinned=(i,),
                                  weight=weight_for_nice(-20))


_TRANSITIONS = {"overcommitted": _to_overcommitted,
                "asymmetric": _to_asymmetric,
                "constrained": _to_constrained}


def _phase_dedicated(mode: str, phase_ns: int) -> Dict:
    """Build, start Nginx, run the dedicated phase."""
    env = build_plain_vm(16, host_slice_ns=5 * MSEC)
    vs = attach_scheduler(env, mode)
    ctx = make_context(env, vs, f"fig16-{mode}")
    nginx = NginxServer(workers=8, service_ns=2 * MSEC, rate_per_sec=2600.0)
    nginx.start(ctx)
    env.engine.run_until(1 * phase_ns)
    return {"engine": env.engine, "env": env, "nginx": nginx}


def _enter_phase(roots: Dict, phase: str, end_multiple: int,
                 phase_ns: int) -> None:
    """Apply one transition, run to the phase's end."""
    _TRANSITIONS[phase](roots)
    roots["engine"].run_until(end_multiple * phase_ns)


def _phase_rps(roots: Dict, phase_index: int, phase_ns: int) -> float:
    """Mean requests/second of the phase just simulated.

    Skips the first 30% of the phase as transition/adaptation time.
    """
    t0 = phase_index * phase_ns + (3 * phase_ns) // 10
    t1 = (phase_index + 1) * phase_ns
    return roots["nginx"].served_between(t0, t1) / ((t1 - t0) / SEC)


def _timeline(mode: str, phase_ns: int) -> Tuple[float, ...]:
    """Work-unit body: one four-phase timeline under one scheduler.

    Each transition is applied between ``run_until`` calls, at the exact
    phase boundary, and each phase is measured as soon as it ends.
    """
    roots = _phase_dedicated(mode, phase_ns)
    rps = [_phase_rps(roots, 0, phase_ns)]
    for k, phase in enumerate(PHASES[1:], start=1):
        _enter_phase(roots, phase, k + 1, phase_ns)
        rps.append(_phase_rps(roots, k, phase_ns))
    return tuple(rps)


def scenarios(fast: bool) -> List[WorkUnit]:
    phase_ns = (15 if fast else 30) * SEC
    cost = 14.0 if fast else 28.0
    return [WorkUnit(exp_id="fig16", label=mode, func=_timeline,
                     config=(mode, phase_ns), cost_hint=cost,
                     seed=f"fig16-{mode}")
            for mode in MODES]


def assemble(fast: bool, results: List[Tuple[float, ...]]) -> Table:
    cfs, vsched = (dict(zip(PHASES, rps)) for rps in results)
    table = Table(
        exp_id="fig16",
        title="Nginx live throughput across host phases (requests/s)",
        columns=["phase", "CFS", "vSched", "vsched_gain_pct"],
        paper_expectation="equal when dedicated; vSched sustains throughput "
                          "under overcommit/asymmetry and recovers quickly "
                          "when constrained",
    )
    for phase in PHASES:
        gain = 100.0 * (vsched[phase] - cfs[phase]) / max(1.0, cfs[phase])
        table.add(phase, cfs[phase], vsched[phase], gain)
    return table


def run(fast: bool = False) -> Table:
    return assemble(fast, execute_serial(scenarios(fast), fast))


def check(table: Table) -> None:
    rows = {r[0]: r for r in table.rows}
    # Dedicated: within 10% of each other (nothing to fix).
    assert abs(rows["dedicated"][3]) < 10.0, rows["dedicated"]
    # Overcommitted: CFS drops well below dedicated; vSched recovers.
    assert rows["overcommitted"][1] < rows["dedicated"][1] * 0.85, rows
    assert rows["overcommitted"][3] > 10.0, rows["overcommitted"]
    # Asymmetric: vSched keeps its advantage.
    assert rows["asymmetric"][3] > 5.0, rows["asymmetric"]
    # Constrained: vSched recovers more throughput than CFS.  (Each fast
    # phase leaves rwc only a few seconds after detection, so the margin
    # is smaller than in the full 30 s-per-phase run.)
    assert rows["constrained"][3] > 3.0, rows["constrained"]
