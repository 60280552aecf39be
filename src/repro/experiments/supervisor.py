"""Fault-tolerant supervision of the flat work-unit pool.

PR 2's scheduler fed one shared task queue and trusted every worker to
live forever: a worker killed mid-unit (OOM, SIGKILL) hung the campaign, a
wedged simulation stalled it with no deadline, and any failure aborted the
whole run.  This module replaces that fire-and-forget feed with a
**supervision loop** (docs/INTERNALS.md §10):

* **ownership** — the parent assigns exactly one unit at a time to each
  worker through a *per-worker* task pipe, so it always knows which unit
  a worker owns (no announce race, and a killed worker can never corrupt
  a pipe another worker reads);
* **per-worker result pipes** — workers report results on private pipes
  multiplexed with ``multiprocessing.connection.wait``, never a shared
  queue.  A shared queue serializes writers through one inter-process
  lock, and a worker SIGKILLed (or chaos-crashed) between finishing its
  pipe write and releasing that lock would wedge every sibling writer
  forever; with one pipe per worker a dying writer can only corrupt its
  own pipe, which the parent discards when it reaps the corpse;
* **crash recovery** — `Process.is_alive()` + exitcode sweeps detect dead
  workers; the in-flight unit is requeued and a replacement worker
  spawned, up to a respawn budget;
* **per-unit deadlines** — `timeout_s = clamp(cost_hint × multiplier,
  floor, ceiling)` (or the unit's / CLI's explicit override); on expiry
  the owning worker is SIGKILLed and the unit requeued or failed;
* **bounded retry with deterministic backoff** — transient failures
  (worker death, deadline expiry, `TransientUnitError`) retry up to the
  budget; backoff jitter derives from the unit's identity via `make_rng`,
  never wall clock, so retried units recompute identical results and the
  determinism contract survives chaos;
* **unit fates** — every outcome carries its attempt count and a fate
  trail ("attempt 1: worker died (exitcode -9); …") for the end-of-run
  failure report.

Supervision state machine per unit::

    dispatched -> running -> done
                        \\-> retrying -> dispatched   (transient, budget left)
                        \\-> failed                   (deterministic / budget spent)

Wall clock appears only in *scheduling* decisions (deadlines, backoff
sleeps); results remain pure functions of ``(code, config, seed)``.
"""

from __future__ import annotations

import heapq  # vschedlint: disable=heap-encapsulation -- host-time retry backoff queue, not the engine event store
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.experiments.chaos import ChaosPlan
from repro.experiments.units import TransientUnitError, WorkUnit

#: Environment variable overriding the derived per-unit deadline (seconds).
UNIT_TIMEOUT_ENV_VAR = "VSCHED_REPRO_UNIT_TIMEOUT"

#: Full (non-fast) scenarios run roughly this much longer than their
#: fast-mode ``cost_hint`` seconds; deadlines scale accordingly.
FULL_MODE_SCALE = 60.0


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a supervised campaign, after worker cleanup.

    Carries how far the campaign got so the CLI can print
    ``interrupted after N/M units (cached results preserved)``.
    """

    def __init__(self, done: int, total: int):
        super().__init__(f"interrupted after {done}/{total} units")
        self.done = done
        self.total = total


@dataclass(frozen=True)
class DeadlinePolicy:
    """Derives each unit's wall-clock deadline.

    Precedence: ``override_s`` (CLI ``--unit-timeout`` /
    ``$VSCHED_REPRO_UNIT_TIMEOUT``) > ``unit.timeout_s`` >
    ``clamp(cost_hint × multiplier, floor_s, ceil_s)``.  Full-mode
    scenarios scale the derived (not overridden) value by
    :data:`FULL_MODE_SCALE` because ``cost_hint`` is in fast-mode seconds.
    """

    multiplier: float = 30.0
    floor_s: float = 30.0
    ceil_s: float = 1800.0
    override_s: Optional[float] = None

    @classmethod
    def from_env(cls, override_s: Optional[float] = None,
                 **kwargs) -> "DeadlinePolicy":
        if override_s is None:
            env = os.environ.get(UNIT_TIMEOUT_ENV_VAR)
            if env:
                try:
                    override_s = float(env)
                except ValueError:
                    raise ValueError(
                        f"malformed {UNIT_TIMEOUT_ENV_VAR}={env!r} "
                        f"(expected seconds)")
        return cls(override_s=override_s, **kwargs)

    def timeout_for(self, unit: WorkUnit, fast: bool) -> float:
        if self.override_s is not None:
            return self.override_s
        if unit.timeout_s is not None:
            return unit.timeout_s
        scale = 1.0 if fast else FULL_MODE_SCALE
        derived = unit.cost_hint * self.multiplier * scale
        return min(max(derived, self.floor_s), self.ceil_s * scale)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff."""

    max_retries: int = 1
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 5.0

    def retries_for(self, unit: WorkUnit) -> int:
        if not unit.retryable:
            return 0
        if unit.max_retries is not None:
            return max(0, unit.max_retries)
        return max(0, self.max_retries)

    def backoff_s(self, tag: str, attempt: int) -> float:
        """Backoff before re-dispatching attempt ``attempt`` (1-based).

        Exponential in the attempt number with jitter in [0.5, 1.5)
        drawn from ``make_rng`` on the unit tag — deterministic, never
        wall clock, so chaos runs reproduce exactly.
        """
        from repro.sim.rng import make_rng
        raw = self.backoff_base_s * (2.0 ** max(0, attempt - 1))
        jitter = 0.5 + make_rng(f"backoff|{tag}|attempt{attempt}").random()
        return min(self.backoff_cap_s, raw * jitter)


@dataclass
class SupervisorStats:
    """Counters for one supervised campaign (reported by tools/bench.py)."""

    retries: int = 0    # re-dispatches after any transient failure
    requeues: int = 0   # in-flight units reclaimed from dead/killed workers
    timeouts: int = 0   # per-unit deadlines that expired
    kills: int = 0      # workers SIGKILLed by the supervisor (deadlines)
    crashes: int = 0    # workers that died on their own (crash/OOM/SIGKILL)
    respawns: int = 0   # replacement workers spawned

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class UnitOutcome:
    """One measured attempt of a unit, and then its terminal state."""

    result: Any = None
    error: Optional[str] = None
    tb: Optional[str] = None
    wall_s: float = 0.0
    events: int = 0
    elided: int = 0
    #: Engine counter deltas over the unit (pushes/cancels/dead_drops —
    #: see Engine.counters); None for units that never ran.
    counters: Optional[Dict[str, float]] = None
    attempts: int = 1
    fate: str = "ok"
    #: The attempt raised :class:`TransientUnitError`.
    retryable: bool = False


def unit_tag(unit: WorkUnit) -> str:
    """Stable identity string seeding chaos and backoff for one unit."""
    return f"{unit.exp_id}/{unit.label}|{unit.seed}"


def unit_fate(history: Sequence[str], ending: str, attempts: int) -> str:
    """The fate trail of a unit: its failed attempts, then how it ended.

    ``history`` holds one ``"attempt N: <error>"`` entry per failed
    attempt; ``ending`` is ``"ok"``, ``"gave up"`` or ``"not
    retryable"``.  CI greps these strings.
    """
    trail = "; ".join(history)
    if ending == "ok":
        return f"{trail}; ok on attempt {attempts}" if history else "ok"
    if ending == "not retryable":
        return f"{trail} (not retryable)"
    return f"{trail}; gave up"


def measure_attempt(body: Callable[[], Any],
                    catch: type = Exception) -> UnitOutcome:
    """Run one attempt of a unit body in this process and measure it.

    Times ``body()`` and takes the deltas of the engine's process-wide
    counters around it.  An exception of type ``catch`` becomes the
    outcome's error and traceback; anything else propagates.  The
    in-process scheduler and every pool worker measure through here.
    """
    from repro.sim.engine import Engine
    events0 = Engine.total_events_fired
    elided0 = Engine.total_events_elided
    counters0 = Engine.counters()
    started = time.perf_counter()
    out = UnitOutcome()
    try:
        out.result = body()
    except catch as exc:  # noqa: BLE001 - reported, not raised
        out.error = f"{type(exc).__name__}: {exc}"
        out.tb = traceback.format_exc()
        out.retryable = isinstance(exc, TransientUnitError)
    out.wall_s = time.perf_counter() - started
    out.events = Engine.total_events_fired - events0
    out.elided = Engine.total_events_elided - elided0
    out.counters = {k: v - counters0[k]
                    for k, v in Engine.counters().items()
                    if k not in ("fired", "elided")}
    return out


def _pool_context():
    """Prefer fork (cheap, POSIX) and fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, task_r, result_w,
                 chaos: Optional[ChaosPlan]) -> None:
    """Worker loop: serve one unit per parent assignment until None/EOF.

    Each unit is measured by :func:`measure_attempt`, exactly as in the
    in-process scheduler.  The worker adds only chaos injection, seeded
    on ``(tag, attempt)`` before the unit body, and a pickle check of the
    result, so an unpicklable value fails with a real traceback.  Every
    exception is reported to the parent, which owns retries.  Both pipes
    are private to this worker: the parent is the only writer of
    ``task_r`` and the only reader of ``result_w``, so neither needs a
    lock.  A unit body is ``func(*config)``; nothing but its result and
    the measured outcome outlives it in the worker.
    """
    while True:
        try:
            item = task_r.recv()
        except (EOFError, OSError):
            break  # parent closed its end (teardown) or died
        if item is None:
            break
        idx, attempt, tag, func, config = item

        def body():
            if chaos is not None:
                chaos.maybe_inject(tag, attempt)
            result = func(*config)
            pickle.dumps(result)
            return result

        out = measure_attempt(body, catch=BaseException)
        try:
            result_w.send((worker_id, idx, out))
        except (BrokenPipeError, OSError):
            break  # parent is gone; nothing left to report to


@dataclass
class _Worker:
    """Parent-side record of one worker process and its assignment."""

    proc: mp.Process
    task_w: Any    # parent's write end of the worker's private task pipe
    result_r: Any  # parent's read end of the worker's private result pipe
    current: Optional[Tuple[int, int, float, float]] = None  # idx, attempt,
    #                                                deadline_ts, timeout_s

    def close_pipes(self) -> None:
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Parent side: the supervision loop
# ----------------------------------------------------------------------
def supervise(units: Sequence[WorkUnit], jobs: int, *, fast: bool = False,
              retry: Optional[RetryPolicy] = None,
              deadline: Optional[DeadlinePolicy] = None,
              chaos: Optional[ChaosPlan] = None,
              stats: Optional[SupervisorStats] = None,
              max_respawns: Optional[int] = None,
              ) -> Iterator[Tuple[int, UnitOutcome]]:
    """Run ``units`` on ``jobs`` supervised workers; yield ``(idx, outcome)``.

    Units are dispatched in sequence order (callers pre-sort longest
    first).  Outcomes stream in completion order; every unit gets exactly
    one terminal outcome, even under worker crashes, hangs, and injected
    chaos — the loop converges because each unit's attempts are bounded
    and the respawn budget is finite.  On Ctrl-C the pool is torn down and
    :class:`CampaignInterrupted` raised.
    """
    retry = retry or RetryPolicy()
    deadline = deadline or DeadlinePolicy.from_env()
    stats = stats if stats is not None else SupervisorStats()
    if max_respawns is None:
        max_respawns = max(16, 8 * jobs)

    n = len(units)
    ctx = _pool_context()
    ready = deque(range(n))
    delayed: List[Tuple[float, int, int]] = []  # (ready_ts, seq, idx)
    done = [False] * n
    attempts_made = [0] * n   # completed (failed or successful) attempts
    history: List[List[str]] = [[] for _ in range(n)]
    resolved = 0
    respawn_budget = max_respawns
    seq = 0  # tiebreaker for the delayed heap

    def spawn(wid: int) -> _Worker:
        task_r, task_w = ctx.Pipe(duplex=False)
        result_r, result_w = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker_main,
                           args=(wid, task_r, result_w, chaos),
                           daemon=False, name=f"vsched-unit-{wid}")
        proc.start()
        # Close the child's ends in the parent so a dead child shows as
        # EOF on result_r instead of a silent forever-block.
        task_r.close()
        result_w.close()
        return _Worker(proc=proc, task_w=task_w, result_r=result_r)

    workers: Dict[int, _Worker] = {i: spawn(i) for i in range(jobs)}
    next_wid = jobs

    def settle(idx: int, reason: str) -> Optional[UnitOutcome]:
        """A transient failure of ``idx``: schedule a retry or fail it."""
        nonlocal seq
        if done[idx]:
            return None
        attempts_made[idx] += 1
        history[idx].append(f"attempt {attempts_made[idx]}: {reason}")
        if attempts_made[idx] <= retry.retries_for(units[idx]):
            stats.retries += 1
            backoff = retry.backoff_s(unit_tag(units[idx]),
                                      attempts_made[idx])
            heapq.heappush(delayed, (time.monotonic() + backoff, seq, idx))
            seq += 1
            return None
        done[idx] = True
        return UnitOutcome(error=reason, attempts=attempts_made[idx],
                           fate=unit_fate(history[idx], "gave up",
                                          attempts_made[idx]))

    try:
        while resolved < n:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _ts, _seq, idx = heapq.heappop(delayed)
                if not done[idx]:
                    ready.append(idx)

            # Assign ready units to idle live workers (one unit at a time,
            # so ownership is known parent-side at dispatch).
            for wid, w in workers.items():
                if not ready:
                    break
                if w.current is None and w.proc.is_alive():
                    idx = ready.popleft()
                    if done[idx]:
                        continue
                    unit = units[idx]
                    timeout_s = deadline.timeout_for(unit, fast)
                    try:
                        w.task_w.send((idx, attempts_made[idx],
                                       unit_tag(unit), unit.func,
                                       unit.config))
                    except (BrokenPipeError, OSError):
                        # Worker died between is_alive() and send(); the
                        # liveness sweep below reclaims the unit.
                        pass
                    w.current = (idx, attempts_made[idx],
                                 now + timeout_s, timeout_s)

            # Wait for results, but wake for the nearest deadline/backoff.
            wake = [0.25]
            wake += [w.current[2] - now for w in workers.values()
                     if w.current is not None]
            if delayed:
                wake.append(delayed[0][0] - now)
            emit: List[Tuple[int, UnitOutcome]] = []
            readers = {w.result_r: wid for wid, w in workers.items()}
            msgs = []
            for conn in mp_connection.wait(list(readers),
                                           timeout=max(0.01, min(wake))):
                try:
                    msgs.append(conn.recv())
                except (EOFError, OSError, pickle.UnpicklingError):
                    # Worker died (possibly mid-write, leaving a partial
                    # message on its private pipe).  Only this worker's
                    # pipe is affected; the liveness sweep reclaims its
                    # unit and the pipe is closed with the corpse.
                    pass
            for wid, idx, out in msgs:
                w = workers.get(wid)
                if w is not None and w.current is not None \
                        and w.current[0] == idx:
                    w.current = None
                if done[idx]:
                    continue
                if out.retryable:
                    settled = settle(idx, out.error)
                    if settled is not None:
                        settled.tb = out.tb
                        resolved += 1
                        yield idx, settled
                    continue
                done[idx] = True
                resolved += 1
                attempts_made[idx] += 1
                out.attempts = attempts_made[idx]
                if out.error is None:
                    out.fate = unit_fate(history[idx], "ok", out.attempts)
                else:
                    history[idx].append(
                        f"attempt {out.attempts}: {out.error}")
                    out.fate = unit_fate(history[idx], "not retryable",
                                         out.attempts)
                yield idx, out

            now = time.monotonic()
            # Deadline sweep: kill workers whose unit overran its budget.
            for wid, w in list(workers.items()):
                if w.current is None or now <= w.current[2]:
                    continue
                idx, _attempt, _ts, timeout_s = w.current
                stats.timeouts += 1
                stats.kills += 1
                w.proc.kill()
                w.proc.join()
                w.close_pipes()
                del workers[wid]
                if not done[idx]:
                    stats.requeues += 1
                out = settle(
                    idx, f"deadline {timeout_s:.1f}s exceeded "
                         f"(worker killed)")
                if out is not None:
                    resolved += 1
                    emit.append((idx, out))

            # Liveness sweep: reclaim units from workers that died alone.
            for wid, w in list(workers.items()):
                if w.proc.is_alive():
                    continue
                stats.crashes += 1
                w.close_pipes()
                del workers[wid]
                if w.current is not None:
                    idx = w.current[0]
                    if not done[idx]:
                        stats.requeues += 1
                    out = settle(
                        idx, f"worker died (exitcode {w.proc.exitcode})")
                    if out is not None:
                        resolved += 1
                        emit.append((idx, out))

            for idx, out in emit:
                yield idx, out

            # Respawn replacements while work remains and budget allows.
            while (len(workers) < jobs and respawn_budget > 0
                   and resolved < n):
                respawn_budget -= 1
                stats.respawns += 1
                workers[next_wid] = spawn(next_wid)
                next_wid += 1

            # Budget spent and nobody left alive: fail everything pending
            # rather than spinning forever.
            if resolved < n and not workers:
                for idx in range(n):
                    if done[idx]:
                        continue
                    done[idx] = True
                    resolved += 1
                    attempts_made[idx] += 1
                    history[idx].append(
                        "worker pool exhausted "
                        f"(respawn budget {max_respawns} spent)")
                    yield idx, UnitOutcome(
                        error="worker pool exhausted",
                        attempts=attempts_made[idx],
                        fate="; ".join(history[idx]))
    except KeyboardInterrupt:
        raise CampaignInterrupted(resolved, n)
    finally:
        for w in workers.values():
            if w.proc.is_alive():
                w.proc.terminate()
        for w in workers.values():
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1.0)
            # Plain fd closes — pipes have no feeder threads, so teardown
            # cannot hang on a queue flushing to a dead reader.
            w.close_pipes()
