"""Span recording around the public functions of each stcast layer.

A traced unit of work runs with every function listed in ``_targets``
replaced by a wrapper that records a span (name, start, end, parent
span, run id) and, where the layer has one, a work count.  Wrappers are
installed where callers look the names up: ``pipeline`` and ``causal``
bind ``build_spatial_matrix``, ``fit_did`` and ``spatial_lag`` by name
at import, so those bindings are patched as well as the defining
module's.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), float("nan"), parent,
                               self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(self.spans[i].name == name for i in self._stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        return [s.end - s.start - _covered(children[i], s.start, s.end)
                for i, s in enumerate(self.spans)]

    def totals(self) -> tuple[Counter, Counter]:
        """(inclusive, self) seconds summed per span name."""
        inclusive, own = Counter(), Counter()
        for s, self_s in zip(self.spans, self.self_times()):
            inclusive[s.name] += s.end - s.start
            own[s.name] += self_s
        return inclusive, own

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(s)}) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped callable.

    A counter is called as ``counter(tracer, args, result)`` after the
    wrapped call returns.
    """
    from stcast import (causal, cli, dataio, forecaster, gru, heads, metrics,
                        pipeline, spatial)

    def pairs(t, args, _):
        n = args[0].n
        t.count("spatial.pairs", n * (n - 1) // 2)

    def csv_bytes(t, args, _):
        t.count("spatial.csv_bytes", _file_bytes(args[1]))

    def lag(t, _args, _):
        t.count("spatial.lag_calls")

    def design(t, _args, result):
        t.count("causal.design_rows", result[0].shape[0])

    def step(t, args, _):
        rows = args[1].shape[0]
        t.count("gru.step_calls")
        t.count("gru.step_rows", rows)
        if t.inside("forecaster.forecast"):
            t.count("forecaster.forecast_step_rows", rows)

    def backward(t, _args, _):
        t.count("gru.backward_calls")

    def nll_grad(t, _args, _):
        t.count("heads.nll_grad_calls")

    def sample(t, _args, _):
        t.count("heads.sample_calls")

    def fit(t, args, _):
        model, adjusted = args[0], args[1]
        n, steps = adjusted.z.shape
        windows = n * (steps - model.config.context_len)
        t.count("forecaster.train_windows", windows)
        t.count("forecaster.epoch_windows", windows * model.config.epochs)

    def crps(t, args, _):
        t.count("metrics.crps_cells", args[1].size)

    def ingest(t, args, _):
        t.count("dataio.bytes_read", _file_bytes(args[0], args[1]))

    def written(t, args, _):
        t.count("dataio.bytes_written", _file_bytes(args[-1]))

    table = [
        (spatial, "build_spatial_matrix", "spatial.build", pairs),
        (pipeline, "build_spatial_matrix", "spatial.build", pairs),
        (pipeline, "spatial_matrix_to_csv", "spatial.to_csv", csv_bytes),
        (spatial, "spatial_lag", "spatial.lag", lag),
        (causal, "spatial_lag", "spatial.lag", lag),
        (causal, "fit_did", "causal.fit_did", None),
        (pipeline, "fit_did", "causal.fit_did", None),
        (causal, "build_design_matrix", "causal.design", design),
        (causal, "estimate_rho_iv", "causal.rho_iv", None),
        (causal, "estimate_ols_given_rho", "causal.ols", None),
        (causal, "adjust_panel", "causal.adjust", None),
        (pipeline, "adjust_panel", "causal.adjust", None),
        (gru.GRUStack, "step", "gru.step", step),
        (gru.GRUStack, "step_backward", "gru.backward", backward),
        (heads, "nll_and_raw_grad", "heads.nll_grad", nll_grad),
        (heads, "project_raw", "heads.project", None),
        (heads, "sample", "heads.sample", sample),
        (forecaster.ForecastModel, "fit", "forecaster.fit", fit),
        (forecaster.ForecastModel, "forecast", "forecaster.forecast", None),
        (pipeline, "score_report", "metrics.score_report", None),
        (metrics, "mean_crps", "metrics.crps", crps),
        (metrics, "energy_score", "metrics.energy", None),
        (dataio, "ingest", "dataio.ingest", ingest),
        (cli, "main", "pipeline.main", None),
        (cli, "run_pipeline", "pipeline.run", None),
        (pipeline, "write_manifest", "pipeline.manifest", None),
    ]
    for name in ("write_did_estimate_csv", "write_parameter_report",
                 "write_adjusted_csv", "write_forecast_samples_csv",
                 "write_scores_csv", "write_scores_long_csv"):
        table.append((dataio, name, "dataio.write", written))
    return table


def _wrap(tracer: Tracer, fn, name: str, counter):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, args, result)
        return result
    return wrapper


def _wrap_fit_did(tracer: Tracer, fn):
    """fit_did wrapper that also counts ridge-fallback warnings."""
    inner = _wrap(tracer, fn, "causal.fit_did", None)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = inner(*args, **kwargs)
        tracer.count("causal.fit_did_calls")
        for w in caught:
            if "ridge" in str(w.message):
                tracer.count("causal.ridge_fallbacks")
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return result
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Install span recorders on every layer entry point; restore on exit."""
    from stcast import pipeline

    saved = []
    try:
        for owner, attr, name, counter in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            if name == "causal.fit_did":
                wrapper = _wrap_fit_did(tracer, original)
            else:
                wrapper = _wrap(tracer, original, name, counter)
            setattr(owner, attr, wrapper)

        original_stage = pipeline._stage
        saved.append((pipeline, "_stage", original_stage))

        @contextmanager
        def traced_stage(stage_name):
            with tracer.span("pipeline." + stage_name), original_stage(stage_name):
                yield

        pipeline._stage = traced_stage
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
