"""Tests of the benchmark itself; run with ``python3 -m pytest benchmarks``.

None of them imports the package under test; the few that time anything
time busy-waits.
"""

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

import bench
import metrics
import pace
import workloads
from tracer import Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

TABLE_METRICS = {
    "setup_s", "peak_rss_mb", "fail_frac", "op_ms_p50", "op_ms_p90", "engage_per_s", "commands_per_s",
    "effort_err_max", "miss_m_max", "impact_err_s_max", "rows_per_s", "train_rows_per_s", "pipeline_s",
    "dataset_rows", "val_mse",
}


def _member_outcome(steps=3000, effort_err=None, miss=0.01, impact_err=1e-6):
    return {"ok": True, "steps": steps, "miss": miss, "effort_err": effort_err, "impact_err": impact_err,
            "pn_effort_dev": None, "error": None, "digest": (1.0, miss, 25.0)}


def _emitted(workload, n_ops):
    if workload == "dataset-pipeline":
        outcomes = [[{"rows": 1000, "epochs": 4, "val_mse": 0.01, "generate_s": 1.0, "write_s": 0.5,
                      "read_s": 0.5, "train_s": 2.0, "pipeline_s": 4.0}]] * n_ops
        op_seconds = [4.0] * n_ops
    else:
        outcomes = [[_member_outcome(effort_err=0.001 * (k % 3) or None)] for k in range(n_ops)]
        op_seconds = [0.1 + 0.001 * k for k in range(n_ops)]
    timings = bench.Timings(op_seconds, list(range(len(op_seconds))), outcomes, scale=[0.9] * len(op_seconds))
    return bench.report_metrics(workload, timings, setup_s=0.5)


def test_benchmark_json_mirrors_the_catalogue():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == metrics.PER_LAYER
    assert max(b for _, _, b in metrics.END_TO_END.values()) == metrics.END_TO_END["setup_s"][2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("n_ops", [3, metrics.P90_MIN_OPS])
def test_every_metric_is_emitted_with_unit_and_direction(workload, n_ops):
    assert TABLE_METRICS <= set(metrics.REPORT)
    for unit, better, where in metrics.REPORT.values():
        assert unit and better in ("lower", "higher", "equal") and set(where) <= set(workloads.WORKLOADS)
    values = _emitted(workload, n_ops)
    expected = {name for name, (_, _, where) in metrics.REPORT.items() if workload in where}
    if n_ops < metrics.P90_MIN_OPS:
        expected.discard("op_ms_p90")
    assert set(values) == expected
    # the gated metrics exist on every workload and are never 0
    assert all(values[name] > 0 for name in metrics.END_TO_END)


def test_every_per_layer_metric_is_emitted_even_for_idle_layers():
    values = metrics.per_layer({}, traced_wall_s=1.0, overhead_frac=0.01)
    assert list(values) == list(metrics.PER_LAYER)
    assert all(isinstance(v, (int, float)) for v in values.values())


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_never_exceeds_span_time_on_a_synthetic_tree():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))
    hot = tracer.wrap("hot", lambda: _busy(0.0005))

    def inner_fn():
        _busy(0.001)
        leaf()
        hot()

    inner = tracer.wrap("inner", inner_fn, span=True)

    def failing_fn():
        leaf()
        raise ValueError("boom")

    failing = tracer.wrap("failing", failing_fn, span=True)

    def root_fn():
        _busy(0.001)
        for _ in range(3):
            inner()
        hot()
        with pytest.raises(ValueError):
            failing()

    root = tracer.wrap("root", root_fn, span=True)
    root()

    assert tracer.stats["failing"].errors == 1
    assert tracer._stack == [[tracer.stats["root"].total_s, -1]]
    for stats in tracer.stats.values():
        assert 0.0 <= stats.self_s <= stats.total_s
    spans = tracer.span_records()
    assert [s["name"] for s in spans] == ["inner"] * 3 + ["failing", "root"]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert 0.0 <= s["self_s"] <= s["t1"] - s["t0"]
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["t0"] <= s["t0"] <= s["t1"] <= parent["t1"]
    root_span = by_id[spans[-1]["id"]]
    assert root_span["parent"] == -1
    # self times partition the root's duration
    total_self = sum(stats.self_s for stats in tracer.stats.values())
    assert total_self == pytest.approx(root_span["t1"] - root_span["t0"], rel=1e-9)


def test_installed_patches_and_restores_module_attributes():
    module = types.ModuleType("bench_fake_module")
    module.f = lambda x: x + 1
    original = module.f
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        with tracer.installed([(module.__name__, "f", "fake.f", False, None)]):
            assert module.f is not original
            assert module.f(1) == 2
        assert module.f is original
        assert tracer.stats["fake.f"].calls == 1
    finally:
        del sys.modules[module.__name__]


@pytest.mark.parametrize("during", [True, False])
def test_timed_block_excludes_the_sampler_and_restores_the_signal_handler(during):
    handler = signal.getsignal(signal.SIGALRM)
    ref = pace.Reference(during=during)
    t0 = time.perf_counter()
    with ref.timing() as block:
        _busy(0.1)
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.1 <= wall
    if during:
        # the handler's kernel runs inside the busy wait and is taken out
        assert 0.05 < block.seconds < 0.1
    else:
        assert 0.1 <= block.seconds <= wall
    assert block.scale > 0.0 and block.nominal == block.seconds * block.scale


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)
    with pytest.raises(ValueError):
        workloads.make_inputs("no-such-workload", 7)
