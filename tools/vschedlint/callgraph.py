"""A conservative, name-based call graph over the project index.

Nodes are ``module:qualname`` strings.  Edges come from the per-function
call summaries the index records:

* a **bare** call ``foo()`` resolves to a nested def of the caller, a
  module-level function of the caller's module, or a function imported by
  name — exact resolution, no guessing;
* a **self/cls** call ``self.meth()`` resolves to methods named ``meth``
  of the caller's own class first, falling back to every method of that
  name in the caller's module (subclass dispatch);
* an **attribute** call ``obj.meth()`` resolves to *every* function named
  ``meth`` in the repro tree — deliberate over-approximation, since the
  receiver's type is unknown.

Known trade-offs (documented in INTERNALS §16): the over-approximation on
attribute calls can only make *more* code reachable (safe for the rules
that use reachability to widen scrutiny, e.g. hidden-input checks inside
work-unit bodies); under-approximation exists for calls through values
(callables stored in dicts, getattr dispatch) — such edges are invisible,
which is why the snapshot-safety family checks every registration site in
the tree rather than only reachable ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from vschedlint.index import FileRecord, FunctionInfo, ProjectIndex


def node_id(rec: FileRecord, qual: str) -> str:
    return f"{rec.modname}:{qual}"


class CallGraph:
    """Adjacency over ``module:qualname`` nodes, repro tree only."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.edges: Dict[str, Set[str]] = {}
        for rec in index.repro_records():
            for qual, d in rec.functions.items():
                info = FunctionInfo.from_json(d)
                self.edges[node_id(rec, qual)] = self._callees(
                    rec, qual, info)

    def _callees(self, rec: FileRecord, qual: str,
                 info: FunctionInfo) -> Set[str]:
        out: Set[str] = set()
        for kind, name in info.calls:
            if kind == "bare":
                hit = self.index.resolve_function(rec, name,
                                                  context_qual=qual)
                if hit is not None:
                    out.add(node_id(hit[0], hit[1].qual))
            elif kind == "selfattr":
                cls = info.cls
                found = False
                if cls is not None:
                    own = rec.function(f"{cls}.{name}")
                    if own is not None:
                        out.add(node_id(rec, own.qual))
                        found = True
                if not found:
                    for r2, f2 in self.index.functions_named(name):
                        if r2.modname == rec.modname and f2.cls is not None:
                            out.add(node_id(r2, f2.qual))
            else:  # attr: any same-named function in the tree
                for r2, f2 in self.index.functions_named(name):
                    if r2.tree == "repro":
                        out.add(node_id(r2, f2.qual))
        return out

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure over the edge relation."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.edges]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.edges.get(node, ()) - seen)
        return seen


def unit_root_nodes(index: ProjectIndex) -> List[str]:
    """Call-graph nodes of every callable handed to WorkUnit.

    These are the functions a warm pooled worker executes per unit — the
    code whose hidden inputs must be part of the unit's cache key, and
    whose registrations land inside snapshot-covered worlds.
    """
    roots: List[str] = []
    for rec in index.repro_records():
        for site in rec.root_sites:
            summary = site.get("func_summary") or {}
            name = None
            if summary.get("form") == "name":
                name = summary["id"]
            elif summary.get("form") == "attr":
                name = summary["attr"]
            if not name:
                continue
            hit = index.resolve_function(rec, name)
            if hit is None and summary.get("form") == "attr":
                hit = index.resolve_method(rec, name)
            if hit is not None:
                roots.append(node_id(hit[0], hit[1].qual))
    return sorted(set(roots))
