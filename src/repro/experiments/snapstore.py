"""The three names the repository benchmark (``perfbench/run.py``) imports.

No experiment needs a generic snapshot store: fig14, the one experiment
that forks a warm world, freezes and forks it inside its own work units
(:func:`repro.experiments.fig14_bvs._side_p95s`, docs/INTERNALS.md §15).
These names keep the benchmark's signatures; nothing in ``src`` or
``tools`` calls them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["execute_unit", "reset_process_store", "snapshot_counters"]


def execute_unit(func: Callable, config: Tuple, prefix: Optional[object],
                 fast: bool) -> Any:
    """Run one work-unit body: ``func(*config)``.

    ``prefix`` is always ``WorkUnit.prefix``, i.e. None, and ``fast`` is
    unused; both stay for the benchmark's call signature.
    """
    return func(*config)


def reset_process_store() -> None:
    """No-op: there is no per-process store to drop."""


def snapshot_counters() -> Dict[str, float]:
    """The benchmark's ``snap_*`` keys, all zero: no store keeps count."""
    return {"snap_hits": 0, "snap_misses": 0, "snap_forks": 0,
            "snap_saved_s": 0.0}
