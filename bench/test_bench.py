"""Tests of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, _covered  # noqa: E402

W = workloads.WORKLOADS
TINY = {
    "panel-default": dataclasses.replace(
        W["panel-default"], t_steps=60, post_onset_index=30, datasets=2,
        num_samples=20, epochs=1),
    "wide-panel": dataclasses.replace(
        W["wide-panel"], n_regions=30, datasets=1, num_samples=20),
    "mc-replications": dataclasses.replace(W["mc-replications"], datasets=40),
}

# Per-layer metrics that may read 0 on a pipeline workload.
MAY_BE_ZERO = {"causal.ridge_fallbacks", "trace.overhead_s"}
MC_LAYERS = ("spatial.build", "spatial.pairs", "spatial.lag", "causal.")


def _run(name, tmp_path, trace, seed=1):
    return workloads.run_workload(TINY[name], seed, 0.0, trace, tmp_path)


def test_benchmark_json_names_every_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_printed_with_units(name, tmp_path):
    result = _run(name, tmp_path, trace=False)
    declared = run.declared_metrics(trace=False)
    assert set(declared) <= set(result.values)
    line = run.result_json(result, declared)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == list(declared)
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == declared[metric]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric


@pytest.mark.parametrize("name", list(TINY))
def test_per_layer_metrics_printed_with_units(name, tmp_path):
    result = _run(name, tmp_path, trace=True)
    declared = run.declared_metrics(trace=True)
    line = run.result_json(result, declared)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == list(declared)
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == declared[metric]
        value = entry["value"]
        assert math.isfinite(value), metric
        exercised = (TINY[name].kind == "pipeline"
                     or metric.startswith(MC_LAYERS + ("trace.",)))
        if exercised and metric not in MAY_BE_ZERO:
            assert value > 0, metric


def test_spans_nest_inside_parents_and_self_times_nonnegative(tmp_path):
    tracer = _run("panel-default", tmp_path, trace=True).tracer
    assert tracer.spans
    for span in tracer.spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.run_id == span.run_id
    names = {s.name for s in tracer.spans}
    assert {"unit", "pipeline.main", "pipeline.train", "gru.step"} <= names
    assert min(tracer.self_times()) >= 0.0


def test_counts_repeat_exactly_and_differ_by_seed(tmp_path):
    first = _run("panel-default", tmp_path / "a", trace=True, seed=1)
    again = _run("panel-default", tmp_path / "b", trace=True, seed=1)
    other = _run("panel-default", tmp_path / "c", trace=True, seed=2)
    for key in ("gru.step_rows", "forecaster.forecast_step_rows",
                "spatial.pairs", "causal.design_rows", "metrics.crps_cells"):
        assert first.values[key] == again.values[key] == other.values[key]
    assert first.digest == again.digest != other.digest
    assert other.correct


def test_repeats_must_be_bit_identical_to_the_first_pass():
    runner = workloads.McRunner(TINY["mc-replications"], 1)
    runner.setup()
    assert runner.check(0, runner.call(0))
    assert runner.check(0, runner.call(0))
    assert not runner.check(0, runner.call(1))
    assert "differ from the first run" in runner.errors[-1]


def test_gate_rejects_a_tampered_artifact(tmp_path):
    runner = workloads.PipelineRunner(TINY["panel-default"], 1, tmp_path)
    runner.setup()
    assert runner.check(0, runner.call(0))
    scores = runner.inputs[0][1] / "scores.csv"
    scores.write_text(scores.read_text() + "\n")
    assert not runner.check(0, 0)
    assert "does not match its manifest hash" in runner.errors[-1]


def test_covered_merges_overlapping_children():
    assert _covered([(1.0, 3.0), (2.0, 4.0), (6.0, 20.0)], 0.0, 10.0) == 7.0
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer_self, inner_self = tracer.self_times()
    assert outer_self >= 0.0 and inner_self >= 0.0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "panel-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
