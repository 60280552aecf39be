"""Cache-key soundness (VSL5xx): every result input must be in the key.

The content-addressed result cache (INTERNALS §9) keys on
``SHA-256(code fingerprint | exp_id | label | config | seed | fast)``.
That key is sound only while two facts hold:

* **the fingerprint covers all the code that can run** — the fingerprint
  hashes every ``*.py`` under the installed ``repro`` package, so any
  import that resolves *outside* it (an unindexed ``repro.*`` submodule,
  a non-pinned third-party package) is code the key cannot see —
  **VSL501**;
* **nothing else feeds the result** — an ``os.environ`` read or a file
  read inside result-producing code is an input that two identical keys
  can disagree on — **VSL502** (environment) and **VSL503** (files).

Scope: hidden-input rules fire everywhere in ``src/repro`` *except* the
experiments layer's orchestration (CLI flags, supervisor deadlines, job
counts — host-side concerns that never touch a result value).  Inside the
experiments layer they fire exactly for functions reachable from a
work-unit body on the conservative call graph: that is the code a warm
pooled worker runs per unit.  Intentional reads carry a reasoned blessing
in ``config.HIDDEN_INPUT_BLESSED`` (the engine's tickless knob, whose
cross-setting byte-identity is CI-enforced, the job-count knob, and the
cache's own fingerprint/entry machinery).
"""

from __future__ import annotations

import sys
from typing import List, Set

from vschedlint import config
from vschedlint.callgraph import CallGraph, node_id, unit_root_nodes
from vschedlint.findings import Finding
from vschedlint.index import FileRecord, ProjectIndex

_STDLIB = set(getattr(sys, "stdlib_module_names", ())) | {
    "__future__", "typing", "dataclasses", "collections", "functools",
    "itertools", "math", "os", "sys", "json", "time", "hashlib",
}


def check_cachekeys(index: ProjectIndex, graph: CallGraph,
                    findings: List[Finding]) -> None:
    unit_reach = graph.reachable_from(unit_root_nodes(index))
    # Closure coverage is only meaningful when the whole package was
    # scanned; on partial scans (one file, one subpackage) every sibling
    # import would be a false gap.
    full_scan = "repro" in index.by_mod
    for rec in index.repro_records():
        _check_fingerprint_coverage(index, rec, full_scan, findings)
        _check_hidden_inputs(rec, unit_reach, findings)


def _check_fingerprint_coverage(index: ProjectIndex, rec: FileRecord,
                                full_scan: bool,
                                findings: List[Finding]) -> None:
    for target, name, line, col in rec.imports:
        root = target.split(".")[0]
        if root == "repro":
            if not full_scan:
                continue
            full = f"{target}.{name}" if name else target
            if target in index.by_mod or full in index.by_mod:
                continue
            # ``from repro.x import y`` where y is a symbol of repro.x:
            # covered as long as repro.x itself is indexed.
            if name is not None and target in index.by_mod:
                continue
            findings.append(Finding(
                "fingerprint-gap", rec.path, line, col,
                f"import of {target!r} resolves outside the scanned "
                f"package tree — the result cache's code fingerprint "
                f"cannot cover it",
                symbol=rec.symbol_at(line), modname=rec.modname))
        elif (root not in _STDLIB
              and root not in config.FINGERPRINTED_THIRD_PARTY
              and root != "vschedlint"):
            findings.append(Finding(
                "fingerprint-gap", rec.path, line, col,
                f"third-party import {root!r} is not covered by the "
                f"result cache's code fingerprint nor pinned in "
                f"config.FINGERPRINTED_THIRD_PARTY — a version change "
                f"would silently serve stale cached results",
                symbol=rec.symbol_at(line), modname=rec.modname))


def _in_scope(rec: FileRecord, func: str, unit_reach: Set[str]) -> bool:
    """Hidden-input scope: all sim layers; experiments only when the
    enclosing function is unit-reachable (module-level reads in an
    experiments module run at import time in every worker, so they are
    in scope too)."""
    if rec.layer != "experiments":
        return True
    if not func:
        return True
    return node_id(rec, func) in unit_reach


def _blessed(rec: FileRecord, func: str) -> bool:
    blessed = config.HIDDEN_INPUT_BLESSED.get(rec.modname, ())
    return func in blessed


def _check_hidden_inputs(rec: FileRecord, unit_reach: Set[str],
                         findings: List[Finding]) -> None:
    for read in rec.env_reads:
        func = read["func"]
        if not _in_scope(rec, func, unit_reach) or _blessed(rec, func):
            continue
        findings.append(Finding(
            "hidden-env-input", rec.path, read["line"], read["col"],
            f"{read['what']} read in result-producing code: the "
            f"environment is an input the unit cache key never sees — "
            f"fold it into the key or bless it in "
            f"config.HIDDEN_INPUT_BLESSED with a reason",
            symbol=func, modname=rec.modname))
    for read in rec.file_reads:
        func = read["func"]
        if not _in_scope(rec, func, unit_reach) or _blessed(rec, func):
            continue
        findings.append(Finding(
            "hidden-file-input", rec.path, read["line"], read["col"],
            f"{read['what']} in result-producing code: file contents are "
            f"an input the unit cache key never sees — load via config "
            f"plumbing that feeds the key, or bless it in "
            f"config.HIDDEN_INPUT_BLESSED with a reason",
            symbol=func, modname=rec.modname))
