"""Ablations: what each vSched technique contributes.

Beyond the paper's own figures, these ablations isolate the design choices
DESIGN.md calls out: each scenario is chosen so exactly one technique
matters, and the test asserts that removing it forfeits the win.
"""

from repro.cluster import (
    attach_scheduler,
    build_plain_vm,
    make_context,
    run_to_completion,
)
from repro.sim import MSEC, SEC
from repro.workloads import LatencyWorkload, build_parsec


def _harvest_elapsed(overrides):
    """1 CPU-bound thread on a 4-vCPU VM at 50% share: ivh's home turf."""
    env = build_plain_vm(4, host_slice_ns=5 * MSEC)
    for i in range(4):
        env.machine.add_host_task(f"c{i}", pinned=(i,))
    vs = attach_scheduler(env, "vsched", overrides=overrides)
    ctx = make_context(env, vs, f"abl-harvest-{sorted(overrides.items())}")
    env.engine.run_until(4 * SEC)
    done = []

    def burn(api):
        yield api.run(1 * SEC)
        done.append(api.now())

    env.kernel.spawn(burn, "burn", group=vs.workload_group, initial_util=900)
    env.engine.run_until(40 * SEC)
    assert done
    return done[0] - 4 * SEC


def _latency_p95(overrides):
    """Asymmetric-latency VM serving masstree: bvs's home turf."""
    env = build_plain_vm(8, wakeup_gran_ns=None)
    for i in range(8):
        env.machine.set_slice(i, 3 * MSEC if i < 4 else 6 * MSEC)
        env.machine.add_host_task(f"s{i}", pinned=(i,))
    vs = attach_scheduler(env, "vsched", overrides=overrides)
    ctx = make_context(env, vs, f"abl-lat-{sorted(overrides.items())}")
    env.engine.run_until(6 * SEC)
    wl = LatencyWorkload("masstree", workers=6, n_requests=150)
    run_to_completion(env, [wl], ctx, timeout_ns=240 * SEC)
    return wl.p95_ns()


def _stacked_elapsed(overrides):
    """Sync-intensive job on a fully stacked VM: rwc's unique win is hiding
    one vCPU of each stack (capacity-aware balancing already dodges
    stragglers, but only rwc prevents double-scheduling on stacks)."""
    from repro.guest.kernel import GuestKernel
    from repro.cluster.vmtypes import VmEnvironment
    from repro.hw.topology import HostTopology
    from repro.hypervisor.machine import Machine
    from repro.sim.engine import Engine

    engine = Engine()
    machine = Machine(engine, HostTopology(1, 8, smt=1))
    pins = [(i // 2,) for i in range(16)]  # vCPUs 2k,2k+1 stacked
    vm = machine.new_vm("vm", 16, pinned_map=pins)
    kernel = GuestKernel(vm)
    env = VmEnvironment(engine, machine, vm, kernel,
                        stacked_pairs=[(2 * k, 2 * k + 1) for k in range(8)])
    vs = attach_scheduler(env, "vsched", overrides=overrides)
    ctx = make_context(env, vs, f"abl-stack-{sorted(overrides.items())}")
    env.engine.run_until(9 * SEC)
    wl = build_parsec("canneal", threads=16, scale=0.1)
    run_to_completion(env, [wl], ctx, timeout_ns=600 * SEC)
    return wl.elapsed_ns()


def test_ablate_ivh():
    full = _harvest_elapsed({})
    no_ivh = _harvest_elapsed({"enable_ivh": False})
    # ivh carries the harvesting win.
    assert full < no_ivh * 0.75, (full, no_ivh)


def test_ablate_bvs():
    full = _latency_p95({"enable_ivh": False, "enable_rwc": False})
    no_bvs = _latency_p95({"enable_ivh": False, "enable_rwc": False,
                           "enable_bvs": False})
    # bvs carries the tail-latency win.
    assert full < no_bvs * 0.92, (full, no_bvs)


def test_ablate_rwc():
    full = _stacked_elapsed({"enable_ivh": False, "enable_bvs": False})
    no_rwc = _stacked_elapsed({"enable_ivh": False, "enable_bvs": False,
                               "enable_rwc": False})
    # Hiding one vCPU per stack carries the win.
    assert full < no_rwc * 0.92, (full, no_rwc)
