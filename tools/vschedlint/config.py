"""Declarative configuration: the layer graph, the guest-visible ABI, and
the elision registry.

Everything the checker enforces is data in this module, so the contracts
stay reviewable in one place.  Changing a boundary is a one-line diff here
— and a deliberate one, because this file is what INTERNALS §12 documents.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Layer graph
# ---------------------------------------------------------------------------
# Rank order: a module may import only from layers of rank <= its own.
# (Equal rank = same layer; intra-layer imports are always fine.)
#
#   sim -> hw -> hypervisor -> [guest ABI] -> guest/core/probers
#       -> workloads -> metrics/cluster -> experiments
LAYER_RANK = {
    "sim": 0,
    "hw": 1,
    "hypervisor": 2,
    "guest": 3,
    "core": 3,
    "probers": 3,
    "workloads": 4,
    "metrics": 5,
    "cluster": 5,
    "experiments": 6,
}

#: Layers that are "the guest": they model code running inside the VM and
#: must not read host-side oracle state (see GUEST ABI below).
GUEST_SIDE_LAYERS = frozenset({"guest", "core", "probers", "workloads"})

#: The host-side package guest layers may not import from.
HOST_PACKAGE = "repro.hypervisor"

#: Modules importable from *any* layer, including lower-ranked ones.
#: ``repro.core.weights`` holds the CFS nice->weight table — pure arithmetic
#: shared by host entities and guest probers, with no scheduler state.
NEUTRAL_MODULES = frozenset({
    "repro.core.weights",
})

#: Host names guest-side code may import by name (none today: the runtime
#: ABI below covers every sanctioned channel).  Maps module -> names.
GUEST_IMPORT_ALLOWLIST: dict = {}

#: The package whose modules may touch ``heapq`` / ``._heap`` directly.
#: Everything else goes through the Engine API (call_at/call_in/cancel),
#: so the event store's layout stays private to the engine.
HEAP_OWNER_PACKAGE = "repro.sim"

# ---------------------------------------------------------------------------
# Guest-visible runtime ABI (attribute allowlist)
# ---------------------------------------------------------------------------
# Guest-side code holds handles to hypervisor objects (its VCpuThread, the
# VM, transitively the Machine).  A real Linux guest on KVM sees exactly:
# steal time, the ability to halt and be kicked, activity transitions (the
# steal-jump observable), and the physics of measurements it performs
# itself (cache-line ping-pong latency).  Anything else is an oracle.

#: Attributes guest code may touch on a vCPU handle (``*.vcpu`` or
#: ``vm.vcpus[i]``).
VCPU_ABI = frozenset({
    "active",              # host-activity flag (observable via steal jumps)
    "steal_ns",            # paravirtual steal time (/proc/stat steal)
    "halt",                # guest idle -> host blocks the thread
    "kick",                # wake a halted vCPU (IPI)
    "guest_cpu",           # guest attach point (set by the guest kernel)
    "last_thread",         # hosting hw thread: physics input, below
    "activity_listeners",  # transition callbacks (vtop's event-driven probe)
    "index",
})

#: Attributes guest code may touch on the VM handle.
VM_ABI = frozenset({"vcpus", "machine", "kernel", "name"})

#: Attributes guest code may touch on the Machine handle, and — for the
#: physics channels — which sub-attributes.  ``topology.distance`` and the
#: cache model parameterize effects a guest *measures* (cache-line transfer
#: latency, IPI cost, coherence stalls); the guest never reads them for
#: answers, only to simulate the measurement a real guest performs.
MACHINE_ABI = frozenset({"engine", "tracer", "topology", "cache"})
MACHINE_TOPOLOGY_ABI = frozenset({"distance"})
MACHINE_CACHE_ABI = frozenset({"base_latency", "stall_cycles", "sample_latency"})

# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
#: The one module allowed to construct numpy generators: everything else
#: must route through repro.sim.rng.make_rng / split_rng.
RNG_FACTORY_MODULE = "repro.sim.rng"

#: Wall-clock calls that are never acceptable inside src/repro.
WALLCLOCK_FORBIDDEN = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Monotonic/process clocks: meaningless in simulated time, so forbidden in
#: simulation layers; the experiments layer legitimately measures host
#: elapsed time with them (supervisor deadlines, progress lines).
MONOTONIC_FORBIDDEN = {
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
}
MONOTONIC_EXEMPT_LAYERS = frozenset({"experiments"})

#: Ordering-sensitive sinks: a dict-view iteration in a function that also
#: schedules events or pushes heap entries gets flagged.
ORDERING_SINKS = frozenset({"call_at", "call_in", "heappush", "heapify"})

#: The dict-view+sink heuristic targets the *simulation* event heap.  The
#: experiments layer runs real subprocesses against real (monotonic)
#: deadlines; its heaps are host-time backoff queues, and CPython dict
#: views iterate in deterministic insertion order anyway.
ORDERING_SINK_EXEMPT_LAYERS = frozenset({"experiments"})

#: Builtins whose result does not depend on iteration order; set iteration
#: feeding only these is fine.
ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "any", "all", "sum", "len", "min", "max",
})

# ---------------------------------------------------------------------------
# Elision registry
# ---------------------------------------------------------------------------
#: Fields whose value is maintained by (possibly elided) ticks and
#: materialized by GuestCpu._catch_up / the engine sync hook.  Any function
#: in src/repro that reads or writes one of these must call a sync method
#: first (textually earlier in its body).
ELISION_FIELDS = frozenset({
    # GuestCpu tick/segment state (guest/cpu.py)
    "_tick_due", "_seg_update", "last_tick_time",
    # vact kernel-side instrumentation, stamped by tick_accounting
    "last_heartbeat", "tick_steal_last", "preempt_count", "active_since_est",
    "steal_graze_count",
    # default-CFS capacity estimate, decayed per tick
    "cfs_capacity", "steal_frac_avg", "_cap_touch",
    # Machine elided-timer state (hypervisor/machine.py)
    "_balance_next", "_core_ramp_goal",
})

#: Calls that count as "the state is materialized from here on".
ELISION_SYNC_CALLS = frozenset({
    "_catch_up",            # per-CPU replay (GuestCpu)
    "sync_ticks",           # kernel-wide replay (GuestKernel, engine hook)
    "_note_host_waiting",   # host balance-grid re-arm (Machine)
    "materialize",          # engine-wide replay via the registered sync
                            # hooks — WorldSnapshot calls it before
                            # freezing, so state read after a freeze
                            # point is fully materialized (§15)
})

#: Functions allowed to touch registered fields without syncing, because
#: they *are* the elision machinery (replay primitives, timer callbacks
#: that own the state) or constructors.  Qualnames, matched per module.
ELISION_EXEMPT = {
    "repro.guest.cpu": {
        "GuestCpu._catch_up",      # the replay loop itself
        "GuestCpu._integrate",     # replay primitive, called per elided tick
    },
    "repro.guest.kernel": {
        "GuestKernel.tick_accounting",          # the replayed arithmetic
        "GuestKernel._update_default_capacity",  # called only from it
    },
    "repro.hypervisor.machine": {
        "Machine._start_host_balance",  # grid origin setup
        "Machine._note_host_waiting",   # the sync hook itself
        "Machine._host_balance",        # the timer body; advances the grid
        "Machine._update_dvfs",         # owns the logical-due goal
        "Machine._dvfs_fire",           # timer body chasing the due
    },
}

#: ``__init__`` initializes registered fields everywhere.
ELISION_EXEMPT_EVERYWHERE = frozenset({"__init__"})

# ---------------------------------------------------------------------------
# Trees and per-tree rule policy
# ---------------------------------------------------------------------------
# vschedlint lints three trees with different contracts.  ``src/repro`` is
# the simulator: every family applies.  ``tools/`` is host-side dev
# tooling: it may read real clocks (bench measures wall time) but must
# still be deterministic where it feeds A/B comparisons, and must not
# reach into engine internals.  ``tests/`` may read clocks and poke
# internals (white-box tests of the engine are the point), but unseeded
# randomness would make failures unreproducible.
#
# Families: "layering", "determinism", "elision", "snapshot", "cachekeys",
# "leakage".  Flags soften individual determinism rules per tree.
TREE_POLICIES = {
    "repro": {
        "families": frozenset({"layering", "determinism", "elision",
                               "snapshot", "cachekeys", "leakage"}),
        "allow_wallclock": False,
        "allow_identity": False,
    },
    "tools": {
        "families": frozenset({"determinism"}),
        # bench/abdiff measure real elapsed time on purpose
        "allow_wallclock": True,
        "allow_identity": True,
        # explicit-seed RNG constructors (random.Random(0)) are fine;
        # drawing from the process-global stream still is not
        "allow_seeded_rng": True,
        # the dict-view+sink heuristic targets the sim event heap
        "dict_view_sinks": False,
        # tools must not reach into the engine's event store either
        "heap_encapsulation": True,
    },
    "tests": {
        "families": frozenset({"determinism"}),
        "allow_wallclock": True,
        "allow_identity": True,
        "allow_seeded_rng": True,
        "dict_view_sinks": False,
        "heap_encapsulation": False,  # white-box engine tests are fine
    },
}

#: Directory components whose subtrees are skipped when a *directory* is
#: expanded (explicit file arguments always lint).  The vschedlint test
#: fixtures are deliberate rule violations: linting them as part of
#: ``vschedlint tests`` would report their intentional findings.
EXCLUDED_DIR_COMPONENTS = frozenset({"__pycache__", "fixtures"})

# ---------------------------------------------------------------------------
# Snapshot safety (VSL4xx)
# ---------------------------------------------------------------------------
#: Method names whose call registers a callable into the simulated world,
#: mapped to the positional index of the callable argument.  Everything
#: scheduled through these can sit in a pending event when a warm world
#: freezes (INTERNALS §15), so it must survive ``copy.deepcopy``.
REGISTRATION_CALLS = {
    "call_at": 1,        # Engine.call_at(time, callback, *args)
    "call_in": 1,        # Engine.call_in(delay, callback, *args)
    "add_sync_hook": 0,  # Engine.add_sync_hook(hook)
}

#: Attributes that hold listener lists on world objects;
#: ``<attr>.append(cb)`` is a registration site too.
LISTENER_ATTRS = frozenset({"activity_listeners"})

#: Constructors whose ``func`` argument names a work-unit body, mapped to
#: its positional index.  These are the reachability roots: the code a
#: warm pooled worker runs per unit.
UNIT_ROOT_CTORS = {
    "WorkUnit": 2,    # positional (exp_id, label, func, ...)
}

#: Builtin-container method names: ``x.append`` passed as a callback is
#: (almost certainly) a bound builtin, which ``copy.deepcopy`` treats as
#: an atom — the fork would keep mutating the original receiver.  A user
#: class happening to define one of these names is a suppressible false
#: positive; none exist in this tree.
BOUND_BUILTIN_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "update", "insert", "remove",
    "discard", "pop", "popleft", "clear", "setdefault", "sort", "reverse",
})

#: Mutation method names used to detect writes to module-level mutables.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "update", "insert", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "setdefault", "sort",
})

# ---------------------------------------------------------------------------
# Cache-key soundness (VSL5xx)
# ---------------------------------------------------------------------------
#: Third-party packages whose code is *not* covered by the result cache's
#: code fingerprint but is version-pinned by the environment; importing
#: them does not constitute a fingerprint gap.  Everything else non-stdlib
#: does.
FINGERPRINTED_THIRD_PARTY = frozenset({"numpy", "np"})

#: Hidden-input blessings: ``modname -> {function qualname -> reason}``.
#: A blessed function may read the environment or the filesystem even
#: where the rules would otherwise flag a hidden result input.  Every
#: entry must say *why the read cannot make two equal cache keys map to
#: different results*.
HIDDEN_INPUT_BLESSED = {
    "repro.sim.engine": {
        # The process-mode knob.  It changes how results are *computed*,
        # never what they are: the A/B identity CI job proves
        # byte-identical tables with tickless on and off.
        "elision_default": "mode knob; byte-identity across settings is "
                           "CI-enforced (abdiff)",
    },
    "repro.experiments.cache": {
        # The fingerprint is the cache key's code input itself; reading
        # the tree to compute it is the mechanism, not a hidden input.
        "_fingerprint_tree": "computes the code fingerprint that *is* "
                             "part of every unit key",
        # The cache's own entry files are keyed by the full unit key;
        # reading them returns a value previously stored under the same
        # key, so the read cannot alias two different inputs.
        "ResultCache.lookup": "reads its own content-addressed entries",
        "ResultCache.store": "writes its own content-addressed entries",
    },
    "repro.experiments.parallel": {
        # $VSCHED_REPRO_JOBS decides how many units run at once, never
        # what any unit computes; unit bodies receive data, not workers.
        "default_jobs": "worker-count knob; concurrency only, results "
                        "are per-unit pure functions regardless",
    },
}

# ---------------------------------------------------------------------------
# Cross-unit leakage (VSL6xx)
# ---------------------------------------------------------------------------
#: Process-level state blessings: ``modname -> {state name -> reason}``.
#: A blessed module-level (or ``Class.attr``) name may be written at
#: simulation time.  Every entry must say why persistence across units in
#: a warm pooled worker cannot change any unit's *result*.
PROCESS_STATE_BLESSED = {
    "repro.experiments.cache": {
        "_fingerprint_memo": "memo of a pure function of the source tree; "
                             "the tree cannot change mid-run",
    },
    "repro.experiments.parallel": {
        "_last_stats": "parent-process bench telemetry, written after "
                       "units complete; never read inside a unit body",
    },
    "repro.guest.pelt": {
        "_DECAY_CACHE": "memo table of y^p decay powers — a pure "
                        "function of its key, so warm entries are "
                        "byte-identical to cold recomputation",
    },
    "repro.sim.engine": {
        "Engine.total_events_fired": "process-wide telemetry; units "
                                     "report deltas, results never read it",
        "Engine.total_events_elided": "process-wide telemetry (deltas)",
        "Engine.total_pushes": "process-wide telemetry (deltas)",
        "Engine.total_cancels": "process-wide telemetry (deltas)",
        "Engine.total_dead_drops": "process-wide telemetry (deltas)",
        "Engine.profile_data": "opt-in profiling table, rendered for "
                               "humans by profile_table(); no result "
                               "reads it",
    },
}
