"""The project index: one whole-program view built once per run.

Per-file rules (VSL1xx–3xx) see one AST at a time; the snapshot-safety,
cache-key, and leakage families (VSL4xx–6xx) need to know what the *rest*
of the tree does — where a callable handed to ``Engine.call_at`` is
defined, which modules an experiment transitively imports, which functions
a work unit can reach.  This module distills every linted file into a
:class:`FileRecord`: a JSON-serializable summary of exactly the facts the
whole-program rules consume (imports, the function/class registry with
closure and default information, registration sites, hidden-input sites,
module-state writes).  A :class:`ProjectIndex` is the collection of
records plus the cross-module resolution helpers.

Records are deliberately AST-free so they can be cached on disk
(:class:`IndexCache`): the cache is keyed by each file's SHA-256 *and* a
hash of the linter's own sources, so editing one simulator file re-parses
one file, while editing the linter (or its config) invalidates everything.
Whole-program rules always re-run — they are cheap once parsing is paid —
so a cached record can still produce fresh cross-module findings.

Free-variable analysis uses :mod:`symtable` (the compiler's own symbol
pass), so "closure" here means exactly what it means at runtime: a
function whose code object carries cells into an enclosing scope.  A
nested function that only reads module globals is *not* a closure and is
not flagged.
"""

from __future__ import annotations

import ast
import hashlib
import json
import symtable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from vschedlint import config
from vschedlint.findings import Finding

#: Bump when the record schema changes; cached records from another
#: schema are discarded wholesale.
RECORD_SCHEMA = 2


# ---------------------------------------------------------------------------
# Expression summaries
# ---------------------------------------------------------------------------
# A tiny, serializable description of the expressions that matter to the
# snapshot-safety rules: what was passed as a callback / argument at a
# registration site.  ``form`` is one of:
#
#   lambda   {free: [names]}          — a lambda, with its free variables
#   name     {id: str}                — a bare name
#   attr     {attr: str, dotted: str} — an attribute access (x.y.z)
#   call     {callee: summary, args: [summaries]} — a call expression
#   genexp   {}                       — a generator expression
#   other    {}                       — anything else (conservatively mute)

def _dotted(node: ast.AST) -> Optional[str]:
    """x.y.z for pure attribute chains rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def summarize_expr(node: ast.AST, frees_of, depth: int = 0) -> dict:
    if depth > 4:
        return {"form": "other"}
    if isinstance(node, ast.Lambda):
        return {"form": "lambda", "free": frees_of(node),
                "line": node.lineno, "col": node.col_offset}
    if isinstance(node, ast.Name):
        return {"form": "name", "id": node.id}
    if isinstance(node, ast.Attribute):
        return {"form": "attr", "attr": node.attr,
                "dotted": _dotted(node) or node.attr}
    if isinstance(node, ast.Call):
        return {"form": "call",
                "callee": summarize_expr(node.func, frees_of, depth + 1),
                "args": [summarize_expr(a, frees_of, depth + 1)
                         for a in node.args]}
    if isinstance(node, ast.GeneratorExp):
        return {"form": "genexp"}
    return {"form": "other"}


# ---------------------------------------------------------------------------
# Record dataclasses
# ---------------------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One function or method, as the whole-program rules see it."""

    qual: str                      # e.g. "VTop._begin" or "run_one"
    line: int = 0
    cls: Optional[str] = None      # innermost enclosing class name
    free: List[str] = field(default_factory=list)   # closure cells
    mutable_defaults: bool = False
    has_yield: bool = False
    calls: List[List[str]] = field(default_factory=list)  # [kind, name]
    returns: List[dict] = field(default_factory=list)     # expr summaries

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_json(cls, d: dict) -> "FunctionInfo":
        return cls(**d)


@dataclass
class FileRecord:
    """Everything the whole-program pass needs to know about one file."""

    path: str
    modname: str
    tree: str                      # "repro" | "tools" | "tests"
    layer: Optional[str]
    sha: str
    imports: List[List[Any]] = field(default_factory=list)
    # [target_module, imported_name_or_None, lineno, col]
    functions: Dict[str, dict] = field(default_factory=dict)
    classes: Dict[str, dict] = field(default_factory=dict)
    # class name -> {"line": int, "methods": [names]}
    module_mutables: Dict[str, int] = field(default_factory=dict)
    # module-level name bound to a mutable value -> lineno
    state_writes: List[dict] = field(default_factory=list)
    # {"func", "name", "target_mod", "how", "line", "col"}
    env_reads: List[dict] = field(default_factory=list)
    file_reads: List[dict] = field(default_factory=list)
    # {"func", "what", "line", "col"}
    reg_sites: List[dict] = field(default_factory=list)
    # {"kind", "func", "line", "col", "callback": summary,
    #  "args": [summaries]}
    root_sites: List[dict] = field(default_factory=list)
    # WorkUnit construction: {"kind", "func_summary", "line"}
    spans: List[List[Any]] = field(default_factory=list)
    # [start, end, def_line, qual] — for suppression def-line scoping
    suppressions: Dict[str, dict] = field(default_factory=dict)
    # str(lineno) -> {"rules": [...], "reason": str}
    findings: List[dict] = field(default_factory=list)
    # serialized per-file findings (pre-suppression)

    def function(self, qual: str) -> Optional[FunctionInfo]:
        d = self.functions.get(qual)
        return FunctionInfo.from_json(d) if d else None

    def def_lines_of(self, line: int) -> List[int]:
        hits = [(start, dl) for start, end, dl, _q in self.spans
                if start <= line <= end]
        return [dl for _, dl in sorted(hits, reverse=True)]

    def symbol_at(self, line: int) -> str:
        best = ""
        for start, end, _dl, qual in sorted(self.spans):
            if start <= line <= end:
                best = qual
        return best

    def to_json(self) -> dict:
        return {
            "path": self.path, "modname": self.modname, "tree": self.tree,
            "layer": self.layer, "sha": self.sha, "imports": self.imports,
            "functions": self.functions, "classes": self.classes,
            "module_mutables": self.module_mutables,
            "state_writes": self.state_writes, "env_reads": self.env_reads,
            "file_reads": self.file_reads, "reg_sites": self.reg_sites,
            "root_sites": self.root_sites, "spans": self.spans,
            "suppressions": self.suppressions, "findings": self.findings,
        }

    @classmethod
    def from_json(cls, d: dict) -> "FileRecord":
        return cls(**d)


# ---------------------------------------------------------------------------
# Free variables via symtable
# ---------------------------------------------------------------------------
def _collect_frees(source: str, path: str) -> Dict[Tuple[str, int], List[str]]:
    """(block name, first line) -> free variable names, for every function
    block (including lambdas, which symtable names ``lambda``).  Two
    blocks on one line with the same name merge their frees — a
    conservative union."""
    out: Dict[Tuple[str, int], List[str]] = {}

    def walk(tbl):
        for child in tbl.get_children():
            if child.get_type() == "function":
                key = (child.get_name(), child.get_lineno())
                frees = sorted(set(child.get_frees())
                               | set(out.get(key, ())))
                out[key] = frees
            walk(child)

    walk(symtable.symtable(source, path, "exec"))
    return out


# ---------------------------------------------------------------------------
# The extraction visitor
# ---------------------------------------------------------------------------
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict", "deque",
                            "Counter", "OrderedDict", "bytearray"})


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in _MUTABLE_CTORS
    return False


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST filling a FileRecord."""

    def __init__(self, module, record: FileRecord):
        self.m = module
        self.rec = record
        self.frees = _collect_frees(module.source, module.path)
        self.func_stack: List[str] = []   # qualnames
        self.class_stack: List[str] = []
        self.local_names_stack: List[set] = []
        self.global_decls_stack: List[set] = []
        self._module_level_pass()

    # -- helpers -----------------------------------------------------------
    def _qual(self) -> str:
        return self.func_stack[-1] if self.func_stack else ""

    def _frees_of(self, node) -> List[str]:
        name = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else "lambda"
        return self.frees.get((name, node.lineno), [])

    def _summarize(self, node) -> dict:
        return summarize_expr(node, self._frees_of)

    def _module_level_pass(self) -> None:
        for node in self.m.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name) and _is_mutable_value(value):
                    self.rec.module_mutables[tgt.id] = tgt.lineno

    def _resolve_imported(self, name: str) -> Optional[str]:
        """Module that ``name`` was imported from, if any."""
        for target_mod, imported, _ln, _col in self.rec.imports:
            if imported == name:
                return target_mod
        return None

    # -- scopes ------------------------------------------------------------
    def visit_ClassDef(self, node):
        self.class_stack.append(node.name)
        methods = [n.name for n in node.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if len(self.class_stack) == 1 and not self.func_stack:
            self.rec.classes[node.name] = {"line": node.lineno,
                                           "methods": methods}
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node):
        prefix = (self.func_stack[-1] + "." if self.func_stack
                  else ".".join(self.class_stack + [""])
                  if self.class_stack else "")
        qual = prefix + node.name
        args = node.args
        local = {a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)}
        if args.vararg:
            local.add(args.vararg.arg)
        if args.kwarg:
            local.add(args.kwarg.arg)
        glob: set = set()
        has_yield = False
        calls: List[List[str]] = []
        returns: List[dict] = []
        for sub in _walk_own(node):
            if isinstance(sub, ast.Global):
                glob.update(sub.names)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                has_yield = True
            elif isinstance(sub, ast.Return) and sub.value is not None:
                returns.append(self._summarize(sub.value))
            elif isinstance(sub, ast.Call):
                fn = sub.func
                if isinstance(fn, ast.Name):
                    calls.append(["bare", fn.id])
                elif isinstance(fn, ast.Attribute):
                    kind = ("selfattr" if isinstance(fn.value, ast.Name)
                            and fn.value.id in ("self", "cls") else "attr")
                    calls.append([kind, fn.attr])
            elif isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    if isinstance(tgt, ast.Name):
                        local.add(tgt.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(sub.target, ast.Name):
                    local.add(sub.target.id)

        defaults = list(args.defaults) + [d for d in args.kw_defaults
                                          if d is not None]
        info = FunctionInfo(
            qual=qual, line=node.lineno,
            cls=self.class_stack[-1] if self.class_stack else None,
            free=self._frees_of(node),
            mutable_defaults=any(_is_mutable_value(d) for d in defaults),
            has_yield=has_yield,
            calls=sorted({tuple(c) for c in calls} - {()},
                         key=lambda c: (c[0], c[1])),
            returns=returns)
        info.calls = [list(c) for c in info.calls]
        self.rec.functions[qual] = info.to_json()

        self.func_stack.append(qual)
        self.local_names_stack.append(local - glob)
        self.global_decls_stack.append(glob)
        self.generic_visit(node)
        self.func_stack.pop()
        self.local_names_stack.pop()
        self.global_decls_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node):
        for a in node.names:
            self.rec.imports.append([a.name, None, node.lineno,
                                     node.col_offset])
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:
            parts = self.m.modname.split(".")[: -node.level]
            base = ".".join(parts + ([base] if base else []))
        for a in node.names:
            self.rec.imports.append([base, a.name, node.lineno,
                                     node.col_offset])
        self.generic_visit(node)

    # -- state writes ------------------------------------------------------
    def _is_local(self, name: str) -> bool:
        return any(name in names for names in self.local_names_stack)

    def _note_write(self, name: str, target_mod: Optional[str], how: str,
                    node) -> None:
        self.rec.state_writes.append({
            "func": self._qual(), "name": name,
            "target_mod": target_mod or self.rec.modname, "how": how,
            "line": node.lineno, "col": node.col_offset})

    def _check_target_write(self, target, node) -> None:
        """Assign/AugAssign targets that hit module or class state."""
        if not self.func_stack:
            return
        if isinstance(target, ast.Name):
            if target.id in (self.global_decls_stack[-1] if
                             self.global_decls_stack else ()):
                self._note_write(target.id, None, "global-rebind", node)
        elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name):
            base = target.value.id
            if self._is_local(base):
                return
            if base in self.rec.module_mutables:
                self._note_write(base, None, "mutate", node)
            else:
                src = self._resolve_imported(base)
                if src and src.startswith("repro"):
                    self._note_write(base, src, "mutate", node)
        elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name):
            base = target.value.id
            if base == "cls" or base in self.rec.classes:
                cls = (self.class_stack[-1] if base == "cls"
                       and self.class_stack else base)
                self._note_write(f"{cls}.{target.attr}", None,
                                 "class-attr", node)
            elif base[:1].isupper():
                src = self._resolve_imported(base)
                if src and src.startswith("repro"):
                    self._note_write(f"{base}.{target.attr}", src,
                                     "class-attr", node)

    def visit_Assign(self, node):
        for tgt in node.targets:
            self._check_target_write(tgt, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_target_write(node.target, node)
        self.generic_visit(node)

    # -- calls: mutations, registrations, env/file reads -------------------
    def visit_Call(self, node):
        fn = node.func
        qual = self._qual()

        # mutation of module-level mutables via method call
        if (self.func_stack and isinstance(fn, ast.Attribute)
                and fn.attr in config.MUTATOR_METHODS
                and isinstance(fn.value, ast.Name)
                and not self._is_local(fn.value.id)):
            base = fn.value.id
            if base in self.rec.module_mutables:
                self._note_write(base, None, "mutate", node)
            else:
                src = self._resolve_imported(base)
                if src and src.startswith("repro"):
                    self._note_write(base, src, "mutate", node)

        # engine / listener registration sites
        reg_idx = None
        kind = None
        if isinstance(fn, ast.Attribute):
            if fn.attr in config.REGISTRATION_CALLS:
                kind, reg_idx = fn.attr, config.REGISTRATION_CALLS[fn.attr]
            elif (fn.attr == "append"
                  and isinstance(fn.value, ast.Attribute)
                  and fn.value.attr in config.LISTENER_ATTRS):
                kind, reg_idx = f"{fn.value.attr}.append", 0
        if kind is not None and len(node.args) > reg_idx:
            self.rec.reg_sites.append({
                "kind": kind, "func": qual, "line": node.lineno,
                "col": node.col_offset,
                "callback": self._summarize(node.args[reg_idx]),
                "args": [self._summarize(a)
                         for a in node.args[reg_idx + 1:]]})

        # WorkUnit roots (for reachability)
        ctor = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        if ctor in config.UNIT_ROOT_CTORS:
            func_arg = None
            pos = config.UNIT_ROOT_CTORS[ctor]
            if len(node.args) > pos:
                func_arg = node.args[pos]
            for kw in node.keywords:
                if kw.arg == "func":
                    func_arg = kw.value
            if func_arg is not None:
                self.rec.root_sites.append({
                    "kind": ctor, "line": node.lineno,
                    "func_summary": self._summarize(func_arg)})

        # hidden inputs: environment
        dotted = _dotted(fn) or ""
        if (dotted in ("os.getenv", "os.environ.get", "environ.get",
                       "getenv")):
            self.rec.env_reads.append({"func": qual, "what": dotted,
                                       "line": node.lineno,
                                       "col": node.col_offset})

        # hidden inputs: file content
        if isinstance(fn, ast.Name) and fn.id == "open":
            self.rec.file_reads.append({"func": qual, "what": "open()",
                                        "line": node.lineno,
                                        "col": node.col_offset})
        elif isinstance(fn, ast.Attribute) and fn.attr in (
                "read_text", "read_bytes"):
            self.rec.file_reads.append({
                "func": qual, "what": f".{fn.attr}()",
                "line": node.lineno, "col": node.col_offset})
        elif dotted in ("np.load", "numpy.load", "np.loadtxt",
                        "numpy.loadtxt"):
            self.rec.file_reads.append({"func": qual, "what": dotted,
                                        "line": node.lineno,
                                        "col": node.col_offset})
        self.generic_visit(node)

    def visit_Subscript(self, node):
        # os.environ["X"] reads (stores are caught as state writes... no:
        # environ stores are env *mutations*; both are hidden inputs).
        if (_dotted(node.value) in ("os.environ", "environ")
                and isinstance(node.ctx, (ast.Load, ast.Store))):
            self.rec.env_reads.append({
                "func": self._qual(),
                "what": (_dotted(node.value) or "os.environ") + "[...]",
                "line": node.lineno, "col": node.col_offset})
        self.generic_visit(node)


def _walk_own(fn: ast.AST):
    """Walk a function's body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            yield node  # the def itself is visible; its body is not
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Record construction
# ---------------------------------------------------------------------------
def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def extract(module, findings: List[Finding],
            suppressions: Dict[int, Any]) -> FileRecord:
    """Distill a parsed :class:`vschedlint.checker.Module` plus its
    per-file findings into a cacheable record."""
    rec = FileRecord(path=module.path, modname=module.modname,
                     tree=module.tree_kind, layer=module.layer,
                     sha=sha256_text(module.source))
    _Extractor(module, rec).visit(module.tree)
    rec.spans = [[s, e, dl, q] for s, e, dl, q in module.spans]
    rec.suppressions = {
        str(ln): {"rules": sup.rules, "reason": sup.reason}
        for ln, sup in suppressions.items()}
    rec.findings = [_finding_to_json(f) for f in findings]
    return rec


def _finding_to_json(f: Finding) -> dict:
    return {"rule": f.rule, "path": f.path, "line": f.line, "col": f.col,
            "message": f.message, "symbol": f.symbol, "modname": f.modname}


def finding_from_json(d: dict) -> Finding:
    return Finding(**d)


# ---------------------------------------------------------------------------
# The project index
# ---------------------------------------------------------------------------
class ProjectIndex:
    """All records of one run, with cross-module resolution helpers."""

    def __init__(self, records: List[FileRecord]):
        self.records = records
        self.by_mod: Dict[str, FileRecord] = {}
        for rec in records:
            self.by_mod[rec.modname] = rec
        # last-qual-component -> [(record, FunctionInfo)] across the tree
        self._by_short: Dict[str, List[Tuple[FileRecord, FunctionInfo]]] = {}
        for rec in records:
            for qual, d in rec.functions.items():
                info = FunctionInfo.from_json(d)
                short = qual.rsplit(".", 1)[-1]
                self._by_short.setdefault(short, []).append((rec, info))

    def repro_records(self) -> List[FileRecord]:
        return [r for r in self.records if r.tree == "repro"]

    def functions_named(self, short: str) -> List[Tuple[FileRecord,
                                                        FunctionInfo]]:
        return self._by_short.get(short, [])

    def import_map(self, rec: FileRecord) -> Dict[str, str]:
        """imported name -> source module, for ``from m import n``."""
        return {name: mod for mod, name, _ln, _col in rec.imports
                if name is not None}

    def resolve_function(self, rec: FileRecord, name: str,
                         context_qual: str = "") -> Optional[
                             Tuple[FileRecord, FunctionInfo]]:
        """Resolve a bare callable name seen in ``rec``.

        Resolution order: a nested def of the referencing function, a
        module-level function of ``rec``, then a function imported by
        name from another indexed module.  Returns None when the name is
        unknown (a parameter, a local variable, a third-party import) —
        callers must treat that as "cannot prove unsafe".
        """
        if context_qual:
            nested = rec.function(f"{context_qual}.{name}")
            if nested is not None:
                return rec, nested
        direct = rec.function(name)
        if direct is not None:
            return rec, direct
        src_mod = self.import_map(rec).get(name)
        if src_mod is not None:
            src = self.by_mod.get(src_mod)
            if src is not None:
                info = src.function(name)
                if info is not None:
                    return src, info
            # ``from pkg import module`` — nothing to resolve further.
        return None

    def resolve_method(self, rec: FileRecord, attr: str,
                       context_qual: str = "") -> Optional[
                           Tuple[FileRecord, FunctionInfo]]:
        """Resolve ``something.attr`` conservatively.

        Preference: a method of the class enclosing ``context_qual`` in
        this module; then a uniquely-named method anywhere in this
        module; then a uniquely-named function across the whole index.
        Ambiguity (several unrelated definitions share the name) resolves
        to None — the rules stay quiet rather than guess.
        """
        ctx_cls = context_qual.split(".")[0] if "." in context_qual else None
        if ctx_cls and ctx_cls in rec.classes:
            info = rec.function(f"{ctx_cls}.{attr}")
            if info is not None:
                return rec, info
        local = [(rec, FunctionInfo.from_json(d))
                 for q, d in rec.functions.items()
                 if q.rsplit(".", 1)[-1] == attr]
        if len(local) == 1:
            return local[0]
        everywhere = self.functions_named(attr)
        if len(everywhere) == 1:
            return everywhere[0]
        return None

    def transitive_imports(self, modname: str) -> set:
        """All repro-tree modules reachable from ``modname`` via imports
        (including import targets that are *not* in the index — callers
        detect fingerprint gaps by checking membership)."""
        seen: set = set()
        stack = [modname]
        while stack:
            mod = stack.pop()
            if mod in seen:
                continue
            seen.add(mod)
            rec = self.by_mod.get(mod)
            if rec is None:
                continue
            for target, name, _ln, _col in rec.imports:
                if not target.startswith("repro"):
                    continue
                stack.append(target)
                if name is not None and f"{target}.{name}" in self.by_mod:
                    stack.append(f"{target}.{name}")
        seen.discard(modname)
        return seen


# ---------------------------------------------------------------------------
# The on-disk incremental cache
# ---------------------------------------------------------------------------
def tool_hash() -> str:
    """Hash of the linter's own sources: any change invalidates records."""
    here = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for p in sorted(here.glob("*.py")) + sorted(here.glob("*.json")):
        h.update(p.name.encode())
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    h.update(str(RECORD_SCHEMA).encode())
    return h.hexdigest()


class IndexCache:
    """Per-file record cache keyed by content SHA-256 + linter hash.

    ``hits``/``misses`` count record reuse; a miss means the file was
    (re)parsed this run.  The cache never affects findings — a corrupt or
    stale file is simply ignored.
    """

    def __init__(self, path: Optional[Path]):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, dict] = {}
        self._tool = tool_hash()
        if path is not None and path.exists():
            try:
                data = json.loads(path.read_text())
                if (data.get("schema") == RECORD_SCHEMA
                        and data.get("tool") == self._tool):
                    self._entries = data.get("files", {})
            except (ValueError, OSError):
                self._entries = {}

    def get(self, display_path: str, sha: str) -> Optional[FileRecord]:
        entry = self._entries.get(display_path)
        if entry is not None and entry.get("sha") == sha:
            try:
                rec = FileRecord.from_json(entry["record"])
            except (KeyError, TypeError):
                self.misses += 1
                return None
            self.hits += 1
            return rec
        self.misses += 1
        return None

    def put(self, rec: FileRecord) -> None:
        self._entries[rec.path] = {"sha": rec.sha, "record": rec.to_json()}

    def prune(self, live_paths) -> None:
        """Drop entries for files that no longer exist (rename, delete)."""
        live = set(live_paths)
        for path in list(self._entries):
            if path not in live:
                del self._entries[path]

    def save(self) -> None:
        if self.path is None:
            return
        payload = {"schema": RECORD_SCHEMA, "tool": self._tool,
                   "files": self._entries}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(payload))
        except OSError:
            pass  # the cache is an accelerator, never a point of failure
