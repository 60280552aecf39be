"""Profile-to-layer attribution for the benchmark's traced runs.

A layer is one package of ``src/repro`` (``sim``, ``guest``, ...).  The
input is the raw table of a :mod:`cProfile` run, as
``pstats.Stats(profiler).stats`` holds it::

    {(filename, lineno, funcname): (cc, nc, tt, ct, callers)}
    callers = {(filename, lineno, funcname): (nc, cc, tt, ct)}

where ``tt`` is self time and ``ct`` cumulative time, per function and per
caller edge.  Self time of a function inside ``repro`` belongs to its own
file.  Self time of anything else (stdlib, builtins) belongs to the repro
file that called it: a function's self time is split over its callers by
the edge self times, and where a caller is itself outside ``repro`` the
share is passed on up, split by that caller's cumulative edge times, until
it reaches a repro file.  Time that never reaches one (the benchmark's own
harness) is reported as unattributed and left out of the shares.

Passing a share up uses the caller's split over all of its own callers,
not only over the calls that led to this function, so attribution through
two or more non-repro frames is an estimate; one frame deep it is exact.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

LAYERS: Tuple[str, ...] = ("sim", "hw", "hypervisor", "guest", "core",
                           "probers", "workloads", "metrics", "cluster",
                           "experiments")

#: Files of the ``guest`` and ``sim`` packages reported on their own.
HOT_FILES: Tuple[str, ...] = ("guest/cpu", "guest/balance", "guest/runqueue",
                              "guest/kernel", "guest/pelt", "guest/task",
                              "sim/engine")

Func = Tuple[str, int, str]


def file_owner(repro_root: str) -> Callable[[str], Optional[str]]:
    """Map a code filename to ``"<layer>/<module>"``, or None outside a layer.

    ``repro_root`` is the directory of the ``repro`` package.  Files directly
    under it (``repro/__init__.py``) belong to no layer.
    """
    prefix = os.path.abspath(repro_root) + os.sep

    def owner(filename: str) -> Optional[str]:
        path = os.path.abspath(filename)
        if not path.startswith(prefix) or not path.endswith(".py"):
            return None
        rel = path[len(prefix):-len(".py")].replace(os.sep, "/")
        layer = rel.split("/", 1)[0]
        if layer not in LAYERS or "/" not in rel:
            return None
        return rel
    return owner


def _shares(edges: Dict[Func, tuple], index: int) -> Dict[Func, float]:
    """Normalised weights of caller edges on field ``index`` (nc if all 0)."""
    total = sum(e[index] for e in edges.values())
    if total > 0:
        return {c: e[index] / total for c, e in edges.items()}
    total = sum(e[0] for e in edges.values())
    if total > 0:
        return {c: e[0] / total for c, e in edges.items()}
    return {c: 1.0 / len(edges) for c in edges}


def _inherited(raw: dict, owners: Dict[Func, Optional[str]],
               files: List[str]) -> Dict[Func, np.ndarray]:
    """For each non-repro function, how time passed up to it splits by file.

    This is an absorbing Markov chain: non-repro functions are transient
    states that move to their callers by cumulative edge time, repro files
    and the unattributed sink absorb.  Solving ``(I - Q) X = R`` handles
    recursion (``deepcopy`` -> ``_deepcopy_dict`` -> ``deepcopy``) exactly,
    where iterating would converge only geometrically.
    """
    outside = [f for f in raw if owners[f] is None]
    pos = {f: i for i, f in enumerate(outside)}
    col = {name: j for j, name in enumerate(files)}
    sink = len(files)
    q = np.zeros((len(outside), len(outside)))
    r = np.zeros((len(outside), len(files) + 1))
    for f in outside:
        i = pos[f]
        callers = raw[f][4]
        if not callers:
            r[i, sink] = 1.0
            continue
        for c, w in _shares(callers, 3).items():
            if owners.get(c) is not None:
                r[i, col[owners[c]]] += w
            elif c in pos:
                q[i, pos[c]] += w
            else:
                r[i, sink] += w
    if not outside:
        return {}
    x = np.linalg.lstsq(np.eye(len(outside)) - q, r, rcond=None)[0]
    return {f: x[pos[f]] for f in outside}


def attribute(raw: dict, owner: Callable[[str], Optional[str]]) -> dict:
    """Aggregate a cProfile table by repro file and layer.

    Returns ``{"files": {file: {"self_s", "calls", "cum_s"}},
    "layers": {layer: {"self_s", "calls", "share"}}, "unattributed_s"}``.
    ``calls`` counts calls of the layer's own functions only.  ``cum_s`` of
    a file sums the cumulative time of calls entering it from other files.
    """
    owners: Dict[Func, Optional[str]] = {}
    for f, row in raw.items():
        owners[f] = owner(f[0])
        for c in row[4]:
            if c not in owners:
                owners[c] = owner(c[0])
    files = sorted({o for o in owners.values() if o is not None})
    out = {name: {"self_s": 0.0, "calls": 0, "cum_s": 0.0} for name in files}
    inherited = _inherited(raw, owners, files)
    spread = np.zeros(len(files) + 1)
    for f, (_cc, nc, tt, _ct, callers) in raw.items():
        mine = owners[f]
        if mine is not None:
            out[mine]["self_s"] += tt
            out[mine]["calls"] += nc
            out[mine]["cum_s"] += sum(e[3] for c, e in callers.items()
                                      if owners.get(c) != mine)
            continue
        if tt <= 0:
            continue
        if not callers:
            spread[-1] += tt
            continue
        for c, w in _shares(callers, 2).items():
            if owners.get(c) is not None:
                out[owners[c]]["self_s"] += tt * w
            elif c in inherited:
                spread += tt * w * inherited[c]
            else:
                spread[-1] += tt * w
    for j, name in enumerate(files):
        out[name]["self_s"] += float(spread[j])
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for name, row in out.items():
        layer = layers[name.split("/", 1)[0]]
        layer["self_s"] += row["self_s"]
        layer["calls"] += row["calls"]
    total = sum(v["self_s"] for v in layers.values())
    for v in layers.values():
        v["share"] = v["self_s"] / total if total > 0 else 0.0
    return {"files": out, "layers": layers,
            "unattributed_s": float(spread[-1])}


def function_cum(raw: dict, filename: str, funcname: str) -> float:
    """Cumulative time of one function (recursion counted once)."""
    want = os.path.abspath(filename)
    return sum(row[3] for f, row in raw.items()
               if f[2] == funcname and os.path.abspath(f[0]) == want)


def layer_metrics(attr: dict, events: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer and hot-file metrics as ``{name: (value, unit)}``."""
    out: Dict[str, Tuple[float, str]] = {}
    for name in LAYERS:
        v = attr["layers"][name]
        out[f"{name}.self_s"] = (v["self_s"], "s")
        out[f"{name}.share"] = (v["share"], "frac")
        out[f"{name}.us_per_event"] = (
            v["self_s"] * 1e6 / events if events else 0.0, "us/event")
        out[f"{name}.calls"] = (v["calls"], "count")
    files = attr["files"]
    empty = {"self_s": 0.0, "calls": 0, "cum_s": 0.0}
    for name in HOT_FILES:
        out[f"{name.replace('/', '.')}.self_s"] = (
            files.get(name, empty)["self_s"], "s")
    out["guest.balance.cum_s"] = (files.get("guest/balance", empty)["cum_s"],
                                  "s")
    out["guest.runqueue.calls"] = (files.get("guest/runqueue", empty)["calls"],
                                   "count")
    return out


def chrome_trace(spans: Iterable[dict], tracks: Dict[int, str],
                 other: dict) -> dict:
    """Spans as a Chrome Trace Event document (``chrome://tracing``).

    Each span is ``{"name", "cat", "ts_s", "dur_s", "tid", "args"}`` with
    times in seconds; the format wants microseconds.
    """
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
               "args": {"name": label}}
              for tid, label in sorted(tracks.items())]
    for s in spans:
        events.append({"name": s["name"], "cat": s["cat"], "ph": "X",
                       "pid": 1, "tid": s["tid"],
                       "ts": round(s["ts_s"] * 1e6, 3),
                       "dur": round(s["dur_s"] * 1e6, 3),
                       "args": s.get("args", {})})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}
