"""Tests of the profile-to-layer attribution.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import cProfile
import copy
import importlib.util
import json
import pstats

import pytest

import layers

ROOT = "/x/src/repro"
owner = layers.file_owner(ROOT)


def fn(path, name, line=1):
    return (path, line, name)


CPU = fn(f"{ROOT}/guest/cpu.py", "segment_done")
BAL = fn(f"{ROOT}/guest/balance.py", "balance")
ENG = fn(f"{ROOT}/sim/engine.py", "run")
SNAP = fn(f"{ROOT}/sim/snapshot.py", "fork")
HARNESS = fn("/x/perfbench/run.py", "serial_pass")
HEAPPUSH = fn("~", 0, "<built-in method _heapq.heappush>")
SORTED = fn("~", 0, "<built-in method builtins.sorted>")
DEEPCOPY = fn("/usr/lib/python3/copy.py", "deepcopy", 128)
DCDICT = fn("/usr/lib/python3/copy.py", "_deepcopy_dict", 226)


def row(tt, ct, callers, nc=1):
    return (nc, nc, tt, ct, callers)


def edge(tt, ct, nc=1):
    return (nc, nc, tt, ct)


def test_file_owner_maps_packages_and_skips_the_rest():
    assert owner(f"{ROOT}/guest/cpu.py") == "guest/cpu"
    assert owner(f"{ROOT}/experiments/snapstore.py") == "experiments/snapstore"
    assert owner(f"{ROOT}/__init__.py") is None
    assert owner(f"{ROOT}/notalayer/x.py") is None
    assert owner("/usr/lib/python3/copy.py") is None
    assert owner("~") is None


def test_own_self_time_and_calls_stay_in_the_file():
    raw = {ENG: row(2.0, 3.0, {HARNESS: edge(2.0, 3.0)}, nc=1),
           CPU: row(1.0, 1.0, {ENG: edge(1.0, 1.0, nc=7)}, nc=7),
           HARNESS: row(0.5, 3.5, {})}
    a = layers.attribute(raw, owner)
    assert a["files"]["sim/engine"]["self_s"] == pytest.approx(2.0)
    assert a["files"]["guest/cpu"]["calls"] == 7
    assert a["layers"]["guest"]["self_s"] == pytest.approx(1.0)
    assert a["unattributed_s"] == pytest.approx(0.5)


def test_builtin_time_goes_to_the_calling_file_split_by_edge_time():
    raw = {CPU: row(1.0, 2.5, {}),
           BAL: row(1.0, 1.5, {}),
           HEAPPUSH: row(2.0, 2.0, {CPU: edge(1.5, 1.5),
                                    BAL: edge(0.5, 0.5)}, nc=4)}
    a = layers.attribute(raw, owner)
    assert a["files"]["guest/cpu"]["self_s"] == pytest.approx(2.5)
    assert a["files"]["guest/balance"]["self_s"] == pytest.approx(1.5)
    # Builtin calls are not the layer's own calls.
    assert a["layers"]["guest"]["calls"] == 2


def test_stdlib_chain_passes_time_up_to_the_nearest_repro_frame():
    helper = fn("/usr/lib/python3/heapq.py", "nsmallest")
    raw = {ENG: row(1.0, 4.0, {}),
           helper: row(1.0, 3.0, {ENG: edge(1.0, 3.0)}),
           SORTED: row(2.0, 2.0, {helper: edge(2.0, 2.0)})}
    a = layers.attribute(raw, owner)
    assert a["layers"]["sim"]["self_s"] == pytest.approx(4.0)
    assert a["unattributed_s"] == pytest.approx(0.0)


def test_recursive_stdlib_time_reaches_its_caller_exactly():
    # copy.deepcopy recursion: nearly all self time is on the recursive
    # edges, and the only way out of the cycle is the repro caller.
    raw = {SNAP: row(0.01, 5.0, {}),
           DEEPCOPY: row(3.0, 5.0, {SNAP: edge(1e-6, 5.0),
                                    DCDICT: edge(3.0 - 1e-6, 4.9)},
                         nc=10000),
           DCDICT: row(2.0, 4.9, {DEEPCOPY: edge(2.0, 4.9)}, nc=5000)}
    a = layers.attribute(raw, owner)
    assert a["files"]["sim/snapshot"]["self_s"] == pytest.approx(5.01)
    assert a["unattributed_s"] == pytest.approx(0.0, abs=1e-9)


def test_stdlib_called_only_by_the_harness_is_unattributed():
    raw = {HARNESS: row(0.2, 1.2, {}),
           SORTED: row(1.0, 1.0, {HARNESS: edge(1.0, 1.0)}),
           CPU: row(1.0, 1.0, {HARNESS: edge(1.0, 1.0)})}
    a = layers.attribute(raw, owner)
    assert a["unattributed_s"] == pytest.approx(1.2)
    assert a["layers"]["guest"]["share"] == pytest.approx(1.0)


def test_shares_sum_to_one():
    raw = {ENG: row(2.0, 6.0, {}),
           CPU: row(1.5, 3.0, {ENG: edge(1.5, 3.0)}),
           BAL: row(0.5, 0.5, {CPU: edge(0.5, 0.5)}),
           SORTED: row(1.0, 1.0, {CPU: edge(1.0, 1.0)}),
           HARNESS: row(0.3, 6.3, {})}
    a = layers.attribute(raw, owner)
    shares = [v["share"] for v in a["layers"].values()]
    assert sum(shares) == pytest.approx(1.0)
    assert a["layers"]["guest"]["share"] == pytest.approx(3.0 / 5.0)


def test_file_cum_counts_only_calls_entering_from_other_files():
    inner = fn(f"{ROOT}/guest/balance.py", "find_busiest", 50)
    raw = {CPU: row(1.0, 5.0, {}),
           BAL: row(1.0, 4.0, {CPU: edge(1.0, 4.0)}),
           inner: row(3.0, 3.0, {BAL: edge(3.0, 3.0)})}
    a = layers.attribute(raw, owner)
    assert a["files"]["guest/balance"]["cum_s"] == pytest.approx(4.0)
    m = layers.layer_metrics(a, events=1000)
    assert m["guest.balance.cum_s"] == (pytest.approx(4.0), "s")
    assert m["guest.balance.self_s"][0] == pytest.approx(4.0)
    assert m["guest.us_per_event"][0] == pytest.approx(5.0 * 1e6 / 1000)


def test_layer_metrics_name_every_layer_and_hot_file():
    a = layers.attribute({}, owner)
    m = layers.layer_metrics(a, events=0)
    for name in layers.LAYERS:
        for suffix in ("self_s", "share", "us_per_event", "calls"):
            assert f"{name}.{suffix}" in m
    for path in layers.HOT_FILES:
        assert m[path.replace("/", ".") + ".self_s"][0] == 0.0


def test_real_profile_attributes_stdlib_to_the_calling_layer(tmp_path):
    pkg = tmp_path / "repro" / "guest"
    pkg.mkdir(parents=True)
    (pkg / "hot.py").write_text(
        "import copy\n"
        "def work():\n"
        "    total = 0\n"
        "    for i in range(300):\n"
        "        total += len(sorted(range(i, 0, -1)))\n"
        "        copy.deepcopy({'a': [i, {'b': [i] * 20}]})\n"
        "    return total\n")
    spec = importlib.util.spec_from_file_location("hot", pkg / "hot.py")
    hot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hot)
    prof = cProfile.Profile()
    prof.runcall(hot.work)
    raw = pstats.Stats(prof).stats
    a = layers.attribute(raw, layers.file_owner(str(tmp_path / "repro")))
    guest = a["layers"]["guest"]["self_s"]
    assert guest > 0
    assert a["layers"]["guest"]["share"] == pytest.approx(1.0)
    total_tt = sum(r[2] for r in raw.values())
    # Everything except the profiler's own bookkeeping frame lands in guest.
    assert guest + a["unattributed_s"] == pytest.approx(total_tt, rel=1e-6)
    assert guest > 0.9 * total_tt
    assert layers.function_cum(raw, copy.__file__, "deepcopy") > 0


def test_chrome_trace_is_loadable_json_in_microseconds(tmp_path):
    spans = [{"name": "unit", "cat": "unit", "ts_s": 0.5, "dur_s": 0.25,
              "tid": 3, "args": {"reconstructed": True}}]
    doc = layers.chrome_trace(spans, {3: "worker 0"}, {"replay": True})
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    loaded = json.loads(path.read_text())
    x = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
    assert x == [{"name": "unit", "cat": "unit", "ph": "X", "pid": 1,
                  "tid": 3, "ts": 500000.0, "dur": 250000.0,
                  "args": {"reconstructed": True}}]
    meta = [e for e in loaded["traceEvents"] if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "worker 0"
    assert loaded["otherData"]["replay"] is True


def test_repeat_check_pins_first_value_and_flags_a_change():
    import run
    ledger = {}
    assert run.check_repeats(ledger, "code", "segment", "events_fired",
                             10) is None
    assert run.check_repeats(ledger, "code", "segment", "events_fired",
                             10) is None
    assert "nondeterminism" in run.check_repeats(
        ledger, "code", "segment", "events_fired", 11)
    # Another tree starts its own record.
    assert run.check_repeats(ledger, "other", "segment", "events_fired",
                             11) is None
