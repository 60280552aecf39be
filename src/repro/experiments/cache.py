"""Content-addressed on-disk cache for work-unit results.

Every work unit is a pure function of ``(code, config, seed)`` by the
determinism contract (docs/INTERNALS.md §8), so its result can be cached
under a key that names exactly those inputs:

    key = SHA-256( code fingerprint of src/repro
                 | exp_id | scenario label | repr(config) | seed | fast )

The **code fingerprint** hashes the path and content of every ``*.py``
file in the installed ``repro`` package, so *any* source change — even to
a module the unit does not import — invalidates the whole cache.  That is
deliberately coarse: fingerprinting the true import closure would save
little (a campaign re-runs in minutes) and risks stale results, which are
far worse than spurious misses.

Values are pickled to ``<dir>/<key>.pkl`` via a temp file + ``os.replace``
so concurrent writers (parallel campaigns racing on the same unit) are
safe: last writer wins with an identical value.  A corrupt or unreadable
entry counts as a miss and is recomputed.

The cache directory defaults to ``.vsched-cache`` (override with
``--cache-dir`` or ``$VSCHED_REPRO_CACHE_DIR``); caching itself is opt-in
(``--cache`` or ``$VSCHED_REPRO_CACHE=1``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
from typing import Any, Optional, Tuple

from repro.experiments.units import WorkUnit

#: Environment variables consulted by the CLI / tools.
CACHE_ENV_VAR = "VSCHED_REPRO_CACHE"
CACHE_DIR_ENV_VAR = "VSCHED_REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".vsched-cache"

_fingerprint_memo: Optional[str] = None


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV_VAR) or DEFAULT_CACHE_DIR


def cache_enabled_by_env() -> bool:
    return os.environ.get(CACHE_ENV_VAR, "") not in ("", "0", "false", "no")


def code_fingerprint(root: Optional[str] = None) -> str:
    """SHA-256 over (relative path, content) of every .py under ``root``.

    ``root`` defaults to the installed ``repro`` package directory; that
    default is memoized per process (the tree does not change mid-run).
    """
    global _fingerprint_memo
    if root is None:
        if _fingerprint_memo is not None:
            return _fingerprint_memo
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        _fingerprint_memo = _fingerprint_tree(root)
        return _fingerprint_memo
    return _fingerprint_tree(root)


def _fingerprint_tree(root: str) -> str:
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in filenames:
            if fn.endswith(".py"):
                paths.append(os.path.join(dirpath, fn))
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode())
        h.update(b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def unit_key(unit: WorkUnit, fast: bool,
             fingerprint: Optional[str] = None) -> str:
    """Content address of one work unit's result."""
    parts = [fingerprint if fingerprint is not None else code_fingerprint(),
             unit.exp_id, unit.label, repr(unit.config), unit.seed,
             "fast" if fast else "full"]
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class ResultCache:
    """Pickle-per-key store with hit/miss accounting.

    Robustness contract: the cache is an accelerator, never a point of
    failure.  Corrupt entries read as misses, and a failed write (disk
    full, permissions, unpicklable value) degrades to a warning + counter
    instead of aborting the campaign that produced the result.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path or default_cache_dir()
        os.makedirs(self.path, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0

    def _entry(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.pkl")

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a corrupt entry is a miss."""
        try:
            with open(self._entry(key), "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._entry(key))
        except (OSError, pickle.PicklingError, AttributeError,
                TypeError) as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if self.store_errors == 0:
                print(f"warning: result cache store failed "
                      f"({type(exc).__name__}: {exc}); continuing without "
                      f"caching this unit", file=sys.stderr)
            self.store_errors += 1
            return
        self.stores += 1

    def summary(self) -> str:
        extra = f" store-errors={self.store_errors}" \
            if self.store_errors else ""
        return (f"[cache] hits={self.hits} misses={self.misses}"
                f"{extra} dir={self.path}")
