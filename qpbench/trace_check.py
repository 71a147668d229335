"""Checks of the benchmark's traced record.

    python3 -m pytest -q qpbench/trace_check.py

The file name keeps it out of the repository's default test collection:
the traced passes of all four workloads take a few minutes.  The synthetic
tests at the top need no subprocess.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _record(spans, counts=None, spawn=0.0):
    return {"cmd": 0, "spawn": spawn, "spans": spans, "counts": counts or {}}


def test_self_time_and_outermost_stage_on_synthetic_spans():
    spans = [
        ("cli.process", 1.0, 10.0, -1, 0),
        ("cli.main", 2.0, 9.0, 0, 0),
        ("qpsets.bruhat_order", 3.0, 7.0, 1, 0),
        ("qpsets.bruhat_order", 4.0, 5.0, 2, 0),  # nested: not counted twice
        ("coxeter.twisted_conjugate", 5.0, 6.0, 2, 0),
    ]
    m = layers.aggregate([_record(spans, {"qpsets.points": 7})], [10.5], 42)
    assert m["qpsets.bruhat_s"] == pytest.approx(4.0)
    assert m["qpsets.self_s"] == pytest.approx(2.0 + 1.0)
    assert m["coxeter.self_s"] == pytest.approx(1.0)
    # process and main self time plus the 1 s interpreter start-up
    assert m["cli.self_s"] == pytest.approx(2.0 + 3.0 + 1.0)
    assert m["cli.startup_s"] == pytest.approx(2.0)
    assert m["trace.coverage"] == pytest.approx(10.0 / 10.5)
    assert m["qpsets.points"] == 7 and m["qpsets.calls"] == 2
    assert m["cli.cache_hit_ratio"] == 0.0 and m["cli.output_bytes"] == 42


def test_nesting_violations_are_rejected():
    root = ("cli.process", 0.0, 10.0, -1, 0)
    with pytest.raises(ValueError):
        layers.check_nesting([root, ("cli.main", 5.0, 11.0, 0, 0)])
    with pytest.raises(ValueError):
        layers.check_nesting([root, ("cli.main", 1.0, 2.0, 1, 0)])
    with pytest.raises(ValueError):
        layers.check_nesting([root, ("cli.main", 1.0, 2.0, 0, 1)])


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == set(layers.metric_units())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


# -- traced passes of every workload ------------------------------------------


@pytest.fixture(scope="module")
def traced():
    """Two traced passes per workload, under different seeds."""
    out = {}
    for name, workload in WORKLOADS.items():
        runs = []
        for seed in (11, 12):
            runner = run.Runner(seed, json.loads(run.REFS.read_text()))
            try:
                _, _, cache = runner.setup(workload)
                metrics, traced_pass = run.traced_pass(runner, workload, cache)
            finally:
                runner.close()
            runs.append((metrics, traced_pass, runner))
        out[name] = runs
    return out


def test_every_layer_metric_is_present(traced):
    names = set(layers.metric_units()) - {"trace.untraced_wall_s", "trace.overhead_s", "host.ref_loop_s"}
    for name, runs in traced.items():
        for metrics, _, _ in runs:
            assert names <= set(metrics), (name, names - set(metrics))


def test_spans_nest_by_parent(traced):
    for runs in traced.values():
        for _, traced_pass, _ in runs:
            for res in traced_pass["results"]:
                assert res["record"]["missing"] == []  # every wrapped target exists
                spans = res["record"]["spans"]
                layers.check_nesting(spans)
                assert all(s[4] == res["record"]["cmd"] for s in spans)


def test_counts_are_integers_and_repeat(traced):
    units = layers.metric_units()
    counted = [n for n, (unit, _) in units.items() if unit in ("count", "bytes")]
    for name, ((first, _, _), (second, _, _)) in traced.items():
        for metric in counted:
            assert isinstance(first[metric], int), (name, metric)
            assert first[metric] == second[metric], (name, metric)


def test_tracing_changes_no_output_hash(traced):
    refs = json.loads(run.REFS.read_text())
    for runs in traced.values():
        for _, traced_pass, runner in runs:
            assert runner.failures == []
            for res in traced_pass["results"]:
                assert (res["rc"], res["sha256"]) == (refs[res["key"]]["rc"], refs[res["key"]]["sha256"])


def test_workload_design(traced):
    def share(m, group):
        total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
        return sum(m[f"{layer}.self_s"] for layer in group) / total

    group_side = ("coxeter", "qpsets", "classify")
    base_side = ("barcanon", "laurent")
    for name, runs in traced.items():
        for m, _, _ in runs:
            assert m["trace.coverage"] >= 0.95, name
            assert (m["hecke.self_s"] > 0) == (name == "suites"), name
            if name == "groups":
                assert share(m, group_side) >= 0.80 and share(m, base_side) <= 0.05
            if name == "bases":
                assert share(m, base_side) >= 0.80 and share(m, group_side) <= 0.05
            if name == "cache_warm":
                assert m["cli.cache_hit_ratio"] == 1.0
            if name in ("groups", "bases"):
                assert m["cli.cache_hit_ratio"] == 0.0
