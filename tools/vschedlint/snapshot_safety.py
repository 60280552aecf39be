"""Snapshot safety (VSL4xx): copy-unsafe callables at registration sites.

Warm-start snapshots (INTERNALS §15) freeze a world with one deep copy.
``copy.deepcopy`` silently treats three kinds of callables as atoms, so a
fork would share state with the world it was forked from — exactly the
classes ``repro.sim.snapshot.guard_world`` rejects at runtime:

* closures (lambdas or nested defs with free variables): their cells keep
  pointing into the original world — **VSL401**;
* bound builtin methods (``some_list.append``): the receiver is never
  copied — **VSL402**;
* functions with mutable defaults: the default objects are shared between
  original and fork — **VSL403**;
* live generators in event arguments: not deep-copyable at all —
  **VSL404**.

The runtime guard only fires when a world is actually frozen, i.e. when
a scenario forks a warm world (fig14 today); these rules fire at
*every* registration site in ``src/repro`` (``Engine.call_at/call_in``,
``add_sync_hook``, ``activity_listeners.append``), because any scenario
is a candidate for migration and a violation discovered then is a
mid-campaign crash.  Cross-module resolution goes through the project
index; callables the index cannot resolve (parameters, values out of
containers) are conservatively trusted — the runtime guard remains the
backstop for those, which is the documented under-approximation.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from vschedlint import config
from vschedlint.callgraph import CallGraph, node_id, unit_root_nodes
from vschedlint.findings import Finding
from vschedlint.index import FileRecord, FunctionInfo, ProjectIndex


def check_snapshot_safety(index: ProjectIndex, graph: CallGraph,
                          findings: List[Finding]) -> None:
    unit_reach = _unit_reachable(index, graph)
    for rec in index.repro_records():
        for site in rec.reg_sites:
            _check_site(index, rec, site, unit_reach, findings)


def _unit_reachable(index: ProjectIndex, graph: CallGraph) -> Set[str]:
    """Nodes reachable from work-unit bodies — code that demonstrably
    runs inside (or builds) the worlds units simulate, fig14's frozen ones
    among them.  Used to sharpen messages, never to skip a site."""
    return graph.reachable_from(unit_root_nodes(index))


def _flag(findings: List[Finding], rec: FileRecord, site: dict, rule: str,
          detail: str, reachable: bool) -> None:
    where = ("in a snapshot-covered scenario path"
             if reachable else "a warm-start migration away from crashing")
    findings.append(Finding(
        rule, rec.path, site["line"], site["col"],
        f"{detail} registered via {site['kind']} — deepcopy would alias "
        f"the original world ({where}; see guard_world, INTERNALS §15)",
        symbol=site["func"], modname=rec.modname))


def _resolve_callable(index: ProjectIndex, rec: FileRecord, summary: dict,
                      context: str) -> Optional[Tuple[FileRecord,
                                                      FunctionInfo]]:
    if summary.get("form") == "name":
        return index.resolve_function(rec, summary["id"],
                                      context_qual=context)
    if summary.get("form") == "attr":
        return index.resolve_method(rec, summary["attr"],
                                    context_qual=context)
    return None


def _check_site(index: ProjectIndex, rec: FileRecord, site: dict,
                unit_reach: Set[str], findings: List[Finding]) -> None:
    reachable = _site_reachable(rec, site, unit_reach)
    _check_callback(index, rec, site, site.get("callback") or {},
                    reachable, findings, depth=0)
    for arg in site.get("args", ()):
        _check_arg(index, rec, site, arg, reachable, findings)


def _site_reachable(rec: FileRecord, site: dict,
                    unit_reach: Set[str]) -> bool:
    return node_id(rec, site["func"]) in unit_reach if site["func"] \
        else False


def _check_callback(index: ProjectIndex, rec: FileRecord, site: dict,
                    cb: dict, reachable: bool, findings: List[Finding],
                    depth: int) -> None:
    if depth > 3:
        return
    form = cb.get("form")

    if form == "lambda":
        if cb.get("free"):
            _flag(findings, rec, site, "snapshot-closure",
                  f"lambda closing over {sorted(cb['free'])}", reachable)
        return

    if form == "attr":
        # ``partial`` objects and bound methods of in-world objects are
        # safe (the receiver copies through the memo); builtin-container
        # methods are not.
        if cb.get("attr") in config.BOUND_BUILTIN_METHODS:
            _flag(findings, rec, site, "snapshot-bound-builtin",
                  f"bound builtin candidate {cb.get('dotted', cb['attr'])!r}",
                  reachable)
            return
        hit = index.resolve_method(rec, cb["attr"],
                                   context_qual=site["func"])
        if hit is not None and hit[1].mutable_defaults:
                _flag(findings, rec, site, "snapshot-mutable-default",
                      f"method {hit[1].qual!r} has mutable default "
                      f"arguments (shared between original and fork)",
                      reachable)
        return

    if form == "name":
        hit = index.resolve_function(rec, cb["id"],
                                     context_qual=site["func"])
        if hit is None:
            return
        src, info = hit
        if info.free:
            _flag(findings, rec, site, "snapshot-closure",
                  f"function {info.qual!r} ({src.modname}) closes over "
                  f"{sorted(info.free)}", reachable)
        if info.mutable_defaults:
            _flag(findings, rec, site, "snapshot-mutable-default",
                  f"function {info.qual!r} ({src.modname}) has mutable "
                  f"default arguments", reachable)
        return

    if form == "call":
        callee = cb.get("callee") or {}
        # functools.partial(f, ...): the partial copies through the memo,
        # f is what must be safe — recurse into the first argument.
        callee_name = callee.get("id") or callee.get("attr")
        if callee_name == "partial":
            args = cb.get("args") or []
            if args:
                _check_callback(index, rec, site, args[0], reachable,
                                findings, depth + 1)
            return
        # factory call: whatever the factory returns is the callback.
        hit = _resolve_callable(index, rec, callee, site["func"])
        if hit is None:
            return
        src, info = hit
        for ret in info.returns:
            if ret.get("form") == "lambda" and ret.get("free"):
                _flag(findings, rec, site, "snapshot-closure",
                      f"factory {info.qual!r} ({src.modname}) returns a "
                      f"lambda closing over {sorted(ret['free'])}",
                      reachable)
            elif ret.get("form") == "name":
                inner = src.function(f"{info.qual}.{ret['id']}")
                if inner is not None and inner.free:
                    _flag(findings, rec, site, "snapshot-closure",
                          f"factory {info.qual!r} ({src.modname}) returns "
                          f"nested function {ret['id']!r} closing over "
                          f"{sorted(inner.free)}", reachable)


def _check_arg(index: ProjectIndex, rec: FileRecord, site: dict, arg: dict,
               reachable: bool, findings: List[Finding]) -> None:
    form = arg.get("form")
    if form == "genexp":
        _flag(findings, rec, site, "snapshot-generator",
              "generator expression passed as event argument (generators "
              "cannot be deep-copied)", reachable)
        return
    if form == "call":
        callee = arg.get("callee") or {}
        hit = _resolve_callable(index, rec, callee, site["func"])
        if hit is not None and hit[1].has_yield:
            _flag(findings, rec, site, "snapshot-generator",
                  f"argument is a live generator from {hit[1].qual!r} "
                  f"({hit[0].modname}) (generators cannot be deep-copied)",
                  reachable)
