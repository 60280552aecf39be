"""Discrete-event simulation engine.

The whole reproduction runs on a single deterministic event loop.  Time is
kept in integer nanoseconds so that runs are bit-reproducible across
platforms; ties between events scheduled for the same instant are broken by
a priority band and then insertion order (a monotonically increasing
sequence number), never by object identity.

The engine is deliberately minimal: entities schedule callbacks, callbacks
may schedule more callbacks.  Higher layers (hypervisor, guest kernel) build
their state machines on top of this primitive.

Events live in one binary heap of ``(time, prio, seq, event)`` tuples, so
ordering is decided by C-level integer comparisons and never reaches the
:class:`Event` objects.  Cancellation is lazy: a cancelled event stays in
the heap and is dropped when it surfaces.  The engine counts the dead
entries and compacts the heap when they dominate, so ``run_until`` does not
churn through millions of corpses; since the ``(time, prio, seq)`` key is
unique per event, compaction never changes pop order.  ``pending()`` is
O(1): the heap length minus the dead entries still in it.

Priority bands (``prio``) exist for timer elision: a periodic timer whose
firing is elided and later re-armed would otherwise land at its original
instant with a *newer* sequence number, perturbing same-instant ordering
relative to a run without elision.  Timers that participate in elision are
given a per-owner negative "lane" (:meth:`Engine.alloc_lane`) so their
position among same-instant events is a function of (time, lane) alone —
history-independent, hence identical whether or not the timer was ever
cancelled, elided, or re-armed along the way.  Ordinary events use prio 0.

Elision support: subsystems that skip scheduling a timer whose effect they
materialize arithmetically (tickless guest CPUs, quiescent host balancing)
report the skipped firings through :meth:`Engine.note_elided`; the counts
surface next to ``events_fired`` in ``tools/bench.py``.  A callback
attribution profiler (:attr:`Engine.profiling`) keeps per-callsite
fired/cancelled/elided counters when enabled and costs one local truth test
per event when off.
"""

from __future__ import annotations

import copy
import os
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One microsecond / millisecond / second expressed in engine time units.
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

#: Compact the heap only when at least this many dead entries accumulated
#: (avoids rebuilding tiny heaps) ...
_COMPACT_MIN_CANCELLED = 64
#: ... and the dead entries are at least half of the heap.
_COMPACT_FRACTION = 2


def ns_to_ms(t: int) -> float:
    """Convert engine nanoseconds to floating-point milliseconds."""
    return t / MSEC


def ns_to_sec(t: int) -> float:
    """Convert engine nanoseconds to floating-point seconds."""
    return t / SEC


def elision_default() -> bool:
    """Process-wide default for timer elision (on unless opted out).

    ``VSCHED_REPRO_TICKLESS=0`` disables elision; the A/B harness
    (``tools/abdiff.py``) flips this to assert that elided and non-elided
    runs produce byte-identical tables.  Read lazily at each construction
    site so tests can toggle it in-process.
    """
    return os.environ.get("VSCHED_REPRO_TICKLESS", "1") != "0"


class Event:
    """A cancellable scheduled callback.

    Instances are returned by :meth:`Engine.call_at` / :meth:`Engine.call_in`.
    Cancellation is lazy: the event stays in the heap but is skipped when it
    surfaces.
    """

    __slots__ = ("time", "prio", "seq", "callback", "args", "cancelled",
                 "_engine")

    def __init__(self, time: int, prio: int, seq: int,
                 callback: Callable[..., None], args: tuple,
                 engine: Optional["Engine"] = None):
        self.time = time
        self.prio = prio
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running when the event fires."""
        if self.cancelled:
            return
        self.cancelled = True
        eng = self._engine
        if eng is not None:
            self._engine = None
            eng._note_cancelled()
            if Engine.profiling:
                Engine._profile_bump(self.callback, 1)

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time} {name} {state}>"


class Engine:
    """The simulation clock and event queue.

    Typical use::

        eng = Engine()
        eng.call_in(5 * MSEC, my_callback, arg)
        eng.run_until(1 * SEC)
    """

    #: Process-wide count of events fired across all engines (perf metric;
    #: read by tools/bench.py to report events/sec).  A "fire" is a live
    #: dispatch — cancelled entries never count.
    total_events_fired: int = 0
    #: Process-wide count of timer firings elided (materialized
    #: arithmetically instead of dispatched through the heap).
    total_events_elided: int = 0
    #: Process-wide count of ``call_at``/``call_in`` arms.
    total_pushes: int = 0
    #: Process-wide count of ``Event.cancel`` calls on still-pending events.
    total_cancels: int = 0
    #: Process-wide count of cancelled entries physically discarded from
    #: the heap (dead pops + compaction sweeps).  Over a fully drained run
    #: it converges to ``total_cancels``.
    total_dead_drops: int = 0
    #: Callback-attribution profiler switch.  When True, per-callsite
    #: fired/cancelled/elided counters accumulate in :attr:`profile_data`.
    profiling: bool = False
    #: qualname -> [fired, cancelled, elided]
    profile_data: Dict[str, List[int]] = {}

    def __init__(self) -> None:
        self.now: int = 0
        #: The event heap: ``(time, prio, seq, Event)`` entries, live and
        #: cancelled alike.
        self._heap: List[Tuple[int, int, int, Event]] = []
        #: Cancelled entries still in ``_heap``.
        self._ncancelled = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: Events fired by this engine instance.
        self.events_fired = 0
        #: Timer firings elided by this engine instance.
        self.events_elided = 0
        #: Next negative priority lane to hand out (see module docstring).
        self._next_lane = 0
        #: Heap entry of the event currently being dispatched, or None.
        self._current: Optional[Tuple[int, int, int, Event]] = None
        #: Highest priority popped so far at the current instant.  The heap
        #: invariant guarantees that when an entry with priority ``p`` pops
        #: at time ``t``, every entry armed *before* instant ``t`` began
        #: with priority ``< p`` has already popped — so this high-water
        #: mark, not the executing event's own priority, is the correct
        #: replay limit for elided same-instant timers.  (The executing
        #: event itself may have been armed mid-instant — e.g. an overdue
        #: tick re-armed at ``now`` by a resume — in which case its own
        #: priority says nothing about what already ran.)
        self._instant_hi: float = float("-inf")
        #: Count of events popped, ever.  An "epoch" names a point in the
        #: dispatch order; recording it when arming lets a later reader ask
        #: whether anything has fired since (see
        #: :meth:`max_prio_popped_since`).
        self._pop_epoch: int = 0
        #: ``(epoch, prio)`` marks for pops at the *current* instant, epochs
        #: increasing and priorities strictly decreasing (a pop evicts all
        #: marks with priority <= its own before appending).  The first mark
        #: with epoch > e is therefore the maximum priority popped since
        #: epoch ``e`` at this instant.
        self._instant_marks: List[Tuple[int, int]] = []
        #: Callbacks invoked when a run()/run_until() finishes, after the
        #: clock settles — elision catch-up hooks use this so state reads
        #: *between* runs see fully materialized effects.
        self._sync_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def call_at(self, time: int, callback: Callable[..., None], *args: Any,
                prio: int = 0) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        Scheduling in the past is a programming error and raises
        ``ValueError`` — silent time travel hides causality bugs.

        ``prio`` orders same-instant events: lower fires first, default 0.
        Pass a lane from :meth:`alloc_lane` for timers whose same-instant
        position must not depend on when they were (re-)pushed.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = Event(time, prio, seq, callback, args, self)
        heappush(self._heap, (time, prio, seq, ev))
        Engine.total_pushes += 1
        return ev

    def call_in(self, delay: int, callback: Callable[..., None], *args: Any,
                prio: int = 0) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.call_at(self.now + delay, callback, *args, prio=prio)

    def alloc_lane(self) -> int:
        """Reserve a unique negative priority band for one periodic timer.

        Allocation order must be deterministic (construction order of the
        owning objects), and owners must allocate unconditionally — lanes
        shape same-instant ordering, so they have to be identical between
        elision-on and elision-off runs.
        """
        self._next_lane -= 1
        return self._next_lane

    def current_key(self) -> Optional[Tuple[int, float]]:
        """Replay limit while an event is dispatching, or None outside one.

        Returns ``(now, hi)`` where ``hi`` is the highest priority popped
        so far at this instant.  Elision catch-up materializes a skipped
        timer firing iff its own (time, lane) orders strictly before that
        key: such an entry, had it been armed eagerly, would already have
        popped.  Comparing against the *executing* event's priority would
        be wrong when that event was armed mid-instant (an overdue timer
        re-armed at ``now`` runs after entries of every lane that popped
        earlier in the instant, not only after lower-priority ones).
        """
        cur = self._current
        if cur is None:
            return None
        return (cur[0], self._instant_hi)

    @property
    def pop_epoch(self) -> int:
        """Dispatch-order position: count of events popped so far."""
        return self._pop_epoch

    def max_prio_popped_since(self, epoch: int) -> Optional[int]:
        """Max priority popped at the current instant after ``epoch``.

        Returns None when nothing has popped since.  Used to replay a timer
        that eager mode would have armed *mid-instant*: such an entry sits
        in the heap from its arming epoch on, so by the heap-min property
        it has fired iff some later pop carried a higher priority.
        """
        for e, p in self._instant_marks:
            if e > epoch:
                return p
        return None

    # ------------------------------------------------------------------
    # Elision accounting
    # ------------------------------------------------------------------
    def note_elided(self, n: int, callback: Callable[..., None]) -> None:
        """Record ``n`` timer firings of ``callback`` elided off the heap."""
        self.events_elided += n
        Engine.total_events_elided += n
        if Engine.profiling:
            Engine._profile_bump(callback, 2, n)

    @classmethod
    def counters(cls) -> Dict[str, int]:
        """Snapshot of the process-wide engine counters.

        ``pushes``/``cancels``/``fired``/``elided`` count API-level events;
        ``dead_drops`` counts corpses discarded from the heap (see the class
        attributes).  Callers measure a scenario by differencing two
        snapshots (``tools/bench.py``, the campaign supervisor's per-unit
        stats).
        """
        return {
            "pushes": cls.total_pushes,
            "cancels": cls.total_cancels,
            "fired": cls.total_events_fired,
            "elided": cls.total_events_elided,
            "dead_drops": cls.total_dead_drops,
        }

    # ------------------------------------------------------------------
    # Callback-attribution profiler
    # ------------------------------------------------------------------
    @classmethod
    def _profile_bump(cls, callback: Callable[..., None], slot: int,
                      n: int = 1) -> None:
        name = getattr(callback, "__qualname__", repr(callback))
        row = cls.profile_data.get(name)
        if row is None:
            row = cls.profile_data[name] = [0, 0, 0]
        row[slot] += n

    @classmethod
    def profile_reset(cls) -> None:
        cls.profile_data = {}

    @classmethod
    def profile_table(cls, top: int = 15) -> str:
        """Render the hot-callback table (sorted by fired, descending).

        The key is total (name breaks fired-count ties): registration
        order differs between elided and eager runs, so an insertion-order
        tiebreak would render A/B-divergent tables.
        """
        rows = sorted(cls.profile_data.items(),
                      key=lambda kv: (-kv[1][0], kv[0]))[:top]
        width = max([len(name) for name, _ in rows] + [8])
        lines = [f"{'callback':<{width}} {'fired':>12} {'cancelled':>12} "
                 f"{'elided':>12}"]
        for name, (fired, cancelled, elided) in rows:
            lines.append(f"{name:<{width}} {fired:>12,d} {cancelled:>12,d} "
                         f"{elided:>12,d}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def add_sync_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` after every run()/run_until() completes.

        Subsystems that defer state materialization (tickless catch-up)
        register here so callers reading state between runs never observe
        a half-materialized world.
        """
        self._sync_hooks.append(hook)

    def _dispatch(self, deadline: Optional[int],
                  max_events: Optional[int]) -> int:
        """Shared dispatch loop: pop due entries off the heap and fire.

        Cancelled entries are discarded as they surface.  The instant/epoch
        bookkeeping (``_instant_hi``, ``_instant_marks``, ``_pop_epoch``)
        is keyed purely on the popped ``(time, prio, seq)``.
        """
        if self._running:
            raise RuntimeError("engine is not reentrant")
        self._running = True
        self._stopped = False
        # Compaction rewrites the heap list in place, so this alias stays
        # valid while callbacks cancel events.
        heap = self._heap
        fired = 0
        profiling = Engine.profiling
        bump = Engine._profile_bump
        try:
            while heap and not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                entry = heap[0]
                if deadline is not None and entry[0] > deadline:
                    break
                heappop(heap)
                ev = entry[3]
                if ev.cancelled:
                    self._ncancelled -= 1
                    Engine.total_dead_drops += 1
                    continue
                ev._engine = None
                self._pop_epoch += 1
                marks = self._instant_marks
                if entry[0] != self.now:
                    self._instant_hi = entry[1]
                    del marks[:]
                else:
                    if entry[1] > self._instant_hi:
                        self._instant_hi = entry[1]
                    while marks and marks[-1][1] <= entry[1]:
                        marks.pop()
                marks.append((self._pop_epoch, entry[1]))
                self.now = entry[0]
                self._current = entry
                ev.callback(*ev.args)
                fired += 1
                if profiling:
                    bump(ev.callback, 0)
        finally:
            self._current = None
            self._running = False
            self.events_fired += fired
            Engine.total_events_fired += fired
        return fired

    def run_until(self, deadline: int) -> None:
        """Process events up to and including ``deadline``.

        The clock is left at ``deadline`` even if the queue drains earlier,
        so that subsequent relative scheduling behaves intuitively.
        """
        try:
            self._dispatch(deadline, None)
            if self.now < deadline:
                self.now = deadline
        finally:
            for hook in self._sync_hooks:
                hook()

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire); return count."""
        try:
            return self._dispatch(None, max_events)
        finally:
            for hook in self._sync_hooks:
                hook()

    def stop(self) -> None:
        """Stop the current ``run``/``run_until`` after the active callback."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1)).

        Derived from the heap itself, so it cannot drift from what is
        queued — not even when a callback raises mid-dispatch.
        """
        return len(self._heap) - self._ncancelled

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Replay all deferred (elided) state by running the sync hooks.

        Identical to what run()/run_until() do on completion; exposed so
        the snapshot layer can assert a fully-materialized world before
        freezing — a frozen half-materialized world would let a fork skip
        ``_catch_up`` replay that the cold run performed.
        """
        for hook in self._sync_hooks:
            hook()

    def __deepcopy__(self, memo) -> "Engine":  # vschedlint: disable=identity-key -- deepcopy memo is keyed by id() per the copy protocol, never simulation state
        """Deep-copy the engine, refusing mid-dispatch.

        Queue contents, lanes, ``now``, pop-epoch/instant marks,
        per-instance counters and sync hooks all copy structurally through
        the memo, so event back-refs and callback bindings land on the
        copied world.
        """
        if self._running:
            raise RuntimeError("cannot snapshot a running engine "
                               "(snapshot between run()/run_until() calls)")
        new = object.__new__(type(self))
        memo[id(self)] = new
        new.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return new

    # ------------------------------------------------------------------
    # Lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An in-heap event was cancelled (called from Event.cancel).

        Compacts when the dead entries number at least
        ``_COMPACT_MIN_CANCELLED`` and make up at least half of the heap.
        """
        Engine.total_cancels += 1
        self._ncancelled = n = self._ncancelled + 1
        if (n >= _COMPACT_MIN_CANCELLED
                and n * _COMPACT_FRACTION >= len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, preserving pop order.

        Mutates the heap list in place so a running dispatch loop keeps
        targeting the live list.  Since the ``(time, prio, seq)`` key is
        unique per event, pop order after compaction is identical to the
        order before it.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        Engine.total_dead_drops += before - len(heap)
        self._ncancelled = 0
