"""Tests for the EEVDF guest-scheduler port (the paper's §4 claim)."""

import pytest

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.guest import GuestConfig
from repro.guest.eevdf import EevdfRunqueue
from repro.sim import MSEC, SEC, USEC
from repro.workloads import CpuBoundJob, LatencyWorkload


def eevdf_vm(n=4, **kw):
    return build_plain_vm(n, guest_config=GuestConfig(scheduler="eevdf"), **kw)


class TestEevdfBasics:
    def test_runqueue_class_selected(self):
        env = eevdf_vm(2)
        assert isinstance(env.kernel.cpus[0].rq, EevdfRunqueue)

    def test_fairness_matches_cfs(self):
        env = eevdf_vm(1)
        tasks = []

        def spin(api):
            while True:
                yield api.run(500 * USEC)

        for i in range(3):
            tasks.append(env.kernel.spawn(spin, f"t{i}", cpu=0, allowed=(0,)))
        env.engine.run_until(2 * SEC)
        works = [t.stats.work_done for t in tasks]
        assert max(works) - min(works) < 0.06 * sum(works)

    def test_sched_idle_still_yields_to_normal(self):
        from repro.guest import Policy
        env = eevdf_vm(1)
        done = {}

        def be(api):
            while True:
                yield api.run(500 * USEC)

        def urgent(api):
            yield api.run(10 * MSEC)
            done["t"] = api.now()

        env.kernel.spawn(be, "be", policy=Policy.IDLE, cpu=0, allowed=(0,))
        env.engine.run_until(20 * MSEC)
        env.kernel.spawn(urgent, "u", cpu=0, allowed=(0,))
        env.engine.run_until(SEC)
        assert abs(done["t"] - 30 * MSEC) < 2 * MSEC

    def test_virtual_time_is_weighted_average(self):
        env = eevdf_vm(1)

        def spin(api):
            while True:
                yield api.run(MSEC)

        a = env.kernel.spawn(spin, "a", cpu=0, allowed=(0,))
        b = env.kernel.spawn(spin, "b", cpu=0, allowed=(0,))
        env.engine.run_until(50 * MSEC)
        rq = env.kernel.cpus[0].rq
        v = rq.virtual_time()
        vrs = sorted(t.vruntime for t in (a, b))
        assert vrs[0] - 1 <= v <= vrs[1] + 1

    def test_work_conserved(self):
        env = eevdf_vm(2)
        from repro.cluster import attach_scheduler as att
        vs = att(env, "cfs")
        ctx = make_context(env, vs, "eevdf-wc")
        wl = CpuBoundJob(threads=2, work_per_thread_ns=100 * MSEC)
        run_to_completion(env, [wl], ctx)
        for t in wl.tasks:
            assert t.stats.work_done == pytest.approx(100 * MSEC, rel=1e-6)


def _harvest(scheduler: str, mode: str) -> int:
    """Time for one CPU-bound thread to finish 1 s of work on a 4-vCPU VM
    at 50% host share, under the given guest scheduler and vSched mode."""
    env = build_plain_vm(4, host_slice_ns=5 * MSEC,
                         guest_config=GuestConfig(scheduler=scheduler))
    for i in range(4):
        env.machine.add_host_task(f"c{i}", pinned=(i,))
    vs = attach_scheduler(env, mode)
    ctx = make_context(env, vs, f"eevdf-bench-{scheduler}-{mode}")
    env.engine.run_until(4 * SEC)
    done = []

    def burn(api):
        yield api.run(1 * SEC)
        done.append(api.now())

    env.kernel.spawn(burn, "burn", group=vs.workload_group, initial_util=900)
    env.engine.run_until(40 * SEC)
    assert done
    return done[0] - 4 * SEC


class TestVSchedOnEevdf:
    """The portability claim: vSched's techniques work unchanged."""

    def test_vsched_gain_on_both_guest_schedulers(self):
        for scheduler in ("cfs", "eevdf"):
            speedup = (_harvest(scheduler, "cfs")
                       / _harvest(scheduler, "vsched"))
            assert speedup > 1.3, (scheduler, speedup)

    def test_ivh_harvests_on_eevdf(self):
        def elapsed(mode):
            env = eevdf_vm(4, host_slice_ns=5 * MSEC)
            for i in range(4):
                env.machine.add_host_task(f"c{i}", pinned=(i,))
            vs = attach_scheduler(env, mode)
            ctx = make_context(env, vs, f"eevdf-ivh-{mode}")
            env.engine.run_until(4 * SEC)
            done = []

            def burn(api):
                yield api.run(SEC)
                done.append(api.now())

            env.kernel.spawn(burn, "b", group=vs.workload_group,
                             initial_util=900)
            env.engine.run_until(40 * SEC)
            assert done
            return done[0] - 4 * SEC

        cfs_base = elapsed("cfs")
        vsched = elapsed("vsched")
        assert vsched < cfs_base * 0.75

    def test_bvs_reduces_tails_on_eevdf(self):
        def p95(with_bvs):
            env = eevdf_vm(8, wakeup_gran_ns=None)
            for i in range(8):
                env.machine.set_slice(i, 3 * MSEC if i < 4 else 6 * MSEC)
                env.machine.add_host_task(f"s{i}", pinned=(i,))
            overrides = {"enable_ivh": False, "enable_rwc": False}
            if not with_bvs:
                overrides["enable_bvs"] = False
            vs = attach_scheduler(env, "vsched", overrides=overrides)
            ctx = make_context(env, vs, f"eevdf-bvs-{with_bvs}")
            env.engine.run_until(6 * SEC)
            wl = LatencyWorkload("masstree", workers=6, n_requests=200)
            run_to_completion(env, [wl], ctx, timeout_ns=240 * SEC)
            return wl.p95_ns()

        base = p95(False)
        biased = p95(True)
        assert biased < base * 0.95, (base, biased)
