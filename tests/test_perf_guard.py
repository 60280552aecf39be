"""tools/perf_guard.py counts fired events whatever the job count.

The guard reads the parent process's ``Engine`` totals, so every unit must
run in-process; a pooled unit fires its events in a worker and the guard
would compare a zero against its budgets.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments import parallel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_guard.py"


@pytest.fixture
def perf_guard():
    spec = importlib.util.spec_from_file_location("perf_guard", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_measure_counts_events_under_jobs_env(perf_guard, monkeypatch):
    monkeypatch.setenv(parallel.JOBS_ENV_VAR, "2")
    assert parallel.default_jobs() == 2
    assert perf_guard.measure("fig2")["events_fired"] > 0
