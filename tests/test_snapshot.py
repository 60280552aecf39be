"""Snapshot/fork determinism: a forked world resumes byte-identically.

The warm-start contract (docs/INTERNALS.md §15) has three layers, each
tested here against its cold-path twin:

* engine layer — a forked world replays the identical event sequence
  with tickless elision on or off (including the fork-then-``_catch_up``
  case: elided guest ticks materialize before the freeze, and elision
  resumes after the fork), and the engine refuses to be copied
  mid-dispatch;
* world layer — :class:`WorldSnapshot` freezes engine + roots in one
  deep copy, the guard rejects copy-unsafe callbacks loudly, and every
  fork is independent of its siblings and of the frozen image;
* experiment layer — fig14, the one experiment that forks, measures each
  config on a fork of its side's warm world and must get exactly the p95
  of the cold one-shot ``run_one``.
"""

from __future__ import annotations

import copy

import pytest

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.experiments import fig14_bvs
from repro.experiments.snapstore import execute_unit
from repro.guest.task import Task
from repro.sim.engine import MSEC, SEC, Engine
from repro.sim.rng import make_rng, rng_signature
from repro.sim.snapshot import SnapshotError, WorldSnapshot, guard_world
from repro.workloads import SysbenchCpu


# ----------------------------------------------------------------------
# A compact but fully real world: 4-vCPU VM, vsched, 2 stressor threads.
# Two vCPUs stay idle so tickless runs actually elide guest ticks.
# ----------------------------------------------------------------------
def _world(seed: str = "snaptest", mode: str = "vsched",
           event_work_ns: int = 500_000):
    env = build_plain_vm(4)
    env.machine.add_host_task("stress0", pinned=(0,))
    vs = attach_scheduler(env, mode)
    ctx = make_context(env, vs, seed=seed)
    wl = SysbenchCpu(threads=2, event_work_ns=event_work_ns)
    wl.start(ctx)
    return {"engine": env.engine, "env": env, "vs": vs, "ctx": ctx,
            "wl": wl}


def _sig(roots):
    """Everything a divergent fork could corrupt, in one tuple."""
    env, wl, ctx = roots["env"], roots["wl"], roots["ctx"]
    return (env.engine.now, env.engine.events_fired,
            env.engine.events_elided, wl.events,
            env.kernel.stats.migrations, rng_signature(ctx.rng))


# The engine has one event store, the heap; the ``store`` param names it
# so the test ids keep their ``heap`` suffix.
@pytest.mark.parametrize("store", ["heap"])
@pytest.mark.parametrize("tickless", ["1", "0"])
class TestForkMatchesColdRun:
    def test_fork_resumes_byte_identically(self, store, tickless,
                                           monkeypatch):
        monkeypatch.setenv("VSCHED_REPRO_TICKLESS", tickless)

        cold = _world()
        cold["engine"].run_until(2 * SEC)
        want = _sig(cold)

        warm = _world()
        warm["engine"].run_until(1 * SEC)
        snap = WorldSnapshot(warm["engine"], warm)
        at_freeze = _sig(warm)

        # Two sibling forks, both run to the cold horizon.
        for _ in range(2):
            _eng, fork = snap.fork()
            fork["engine"].run_until(2 * SEC)
            assert _sig(fork) == want
        # The original world and the frozen image are untouched by the
        # forks' divergence.
        assert _sig(warm) == at_freeze


@pytest.mark.parametrize("store", ["heap"])
class TestForkResumesElision:
    def test_elided_ticks_survive_freeze_and_fork(self, store,
                                                  monkeypatch):
        # The restore-then-_catch_up case: freezing materializes every
        # elided tick (WorldSnapshot calls engine.materialize()), and the
        # fork keeps eliding from that baseline.  A long-chunk CFS world
        # elides nearly every tick (vsched's 1 ms prober cadence would
        # keep the tick horizon short), so the counters prove the span
        # machinery really ran on both sides of the freeze.
        monkeypatch.setenv("VSCHED_REPRO_TICKLESS", "1")

        cold = _world(mode="cfs", event_work_ns=20 * MSEC)
        cold["engine"].run_until(2 * SEC)
        want = _sig(cold)

        warm = _world(mode="cfs", event_work_ns=20 * MSEC)
        warm["engine"].run_until(1 * SEC)
        snap = WorldSnapshot(warm["engine"], warm)
        at_freeze = _sig(warm)
        assert want[2] > at_freeze[2] > 0  # elision on both sides

        _eng, fork = snap.fork()
        fork["engine"].run_until(2 * SEC)
        assert _sig(fork) == want


class TestEngineRestore:
    def test_snapshot_refused_while_running(self):
        eng = Engine()
        seen = []

        def freeze_mid_run():
            with pytest.raises(RuntimeError, match="running"):
                copy.deepcopy(eng)
            seen.append("tried")

        eng.call_at(10, freeze_mid_run)
        eng.run_until(20)
        assert seen == ["tried"]


def _spin_body(api):
    while True:
        yield api.run(1 * MSEC)


class TestTaskBodyCopy:
    """``Task.__deepcopy__`` forks only bodies it can resume exactly."""

    def test_never_started_generator_is_recreated(self):
        env = build_plain_vm(1)
        task = Task(env.kernel, "spin", _spin_body)
        clone = copy.deepcopy(task)
        assert clone.body is not task.body
        assert clone.factory is _spin_body

    def test_suspended_generator_is_refused(self):
        env = build_plain_vm(1)
        env.kernel.spawn(_spin_body, "spin", cpu=0, allowed=(0,))
        env.engine.run_until(10 * MSEC)
        with pytest.raises(SnapshotError, match="StatefulBody"):
            WorldSnapshot(env.engine, {"env": env})

    def test_closure_factory_is_refused(self):
        env = build_plain_vm(1)
        work = 1 * MSEC

        def closure_body(api):
            while True:
                yield api.run(work)

        task = Task(env.kernel, "c", closure_body)
        with pytest.raises(SnapshotError, match="closure"):
            copy.deepcopy(task)


class TestGuard:
    def test_closure_callback_is_named(self):
        eng = Engine()
        leak = []
        eng.call_at(1000, lambda: leak.append(1))
        with pytest.raises(SnapshotError) as exc:
            guard_world(eng)
        assert "closure" in str(exc.value)
        assert "t=1000" in str(exc.value)

    def test_all_offenders_reported_at_once(self):
        eng = Engine()
        a, b = [], []
        eng.call_at(1, lambda: a.append(1))
        eng.call_at(2, lambda: b.append(1))
        eng.call_at(3, b.append)  # bound builtin: shares the receiver
        with pytest.raises(SnapshotError) as exc:
            guard_world(eng)
        msg = str(exc.value)
        assert msg.count("closure") == 2
        assert "bound builtin" in msg

    def test_cancelled_offenders_are_ignored(self):
        eng = Engine()
        ev = eng.call_at(1, lambda: None)
        ev.cancel()
        guard_world(eng)  # does not raise

    def test_real_world_is_guard_clean(self):
        roots = _world()
        roots["engine"].run_until(1 * SEC)
        guard_world(roots["engine"])  # does not raise


class TestRngFork:
    def test_fork_copies_stream_then_diverges_identically(self):
        rng = make_rng("snap-rng")
        rng.normal()
        sig = rng_signature(rng)
        clone = copy.deepcopy(rng)
        assert rng_signature(clone) == sig
        assert clone.normal() == rng.normal()
        assert rng_signature(clone) == rng_signature(rng) != sig


# ----------------------------------------------------------------------
# Sibling forks of a cheap synthetic world.
# ----------------------------------------------------------------------
class _Ticker:
    """Periodic bound-method event source — deep-copy safe by design."""

    def __init__(self, engine: Engine, period: int):
        self.engine = engine
        self.period = period
        self.count = 0
        engine.call_in(period, self._tick)

    def _tick(self):
        self.count += 1
        self.engine.call_in(self.period, self._tick)


class TestForkIndependence:
    def test_forks_are_independent(self):
        eng = Engine()
        ticker = _Ticker(eng, 100)
        eng.run_until(1_000)
        snap = WorldSnapshot(eng, {"engine": eng, "ticker": ticker})
        a, b = snap.fork()[1], snap.fork()[1]
        a["engine"].run_until(20_000)
        assert b["ticker"].count == 10  # sibling unmoved by a's divergence
        b["engine"].run_until(20_000)
        assert a["ticker"].count == b["ticker"].count == 200


class TestExecuteUnit:
    def test_prefixless_unit_is_plain_call(self):
        assert execute_unit(int, ("7",), None, True) == 7


# ----------------------------------------------------------------------
# fig14's unit body against its cold reference, on the cheapest benchmark.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tickless", ["1", "0"])
class TestFig14Fork:
    def test_side_unit_matches_cold_run_one(self, tickless, monkeypatch):
        monkeypatch.setenv("VSCHED_REPRO_TICKLESS", tickless)
        bench, n_requests = "silo", 60
        for bvs in (False, True):
            forked = fig14_bvs._side_p95s(bvs, (bench,), n_requests)
            cold = [fig14_bvs.run_one(bench, bvs, best_effort,
                                      n_requests).p95_ns()
                    for best_effort in (False, True)]
            assert forked == cold, (bvs, forked, cold)
