"""Outputs that do not depend on the thread count of numpy's OpenBLAS pool.

OpenBLAS splits a product across its pool's threads above a size, and a
split product can round differently.  ``fit_did``, ``adjust_panel``,
``ForecastModel.fit`` and ``ForecastModel.forecast`` each hold the one
``_blas.one_thread`` scope, which sets every pool to 1 thread, so the
caller's count does not reach their bytes.  At N = 500 the spatial lag,
the history encode and the decode blocks are large enough to split.
"""

import warnings

import numpy as np
import pytest

from stcast import causal
from stcast.causal import AdjustedPanel, adjust_panel, fit_did
from stcast.errors import EstimationError, InputValidationError, InsufficientDataError
from stcast.forecaster import ForecastModel, ModelConfig
from stcast.gru import GRUStack
from stcast.spatial import build_spatial_matrix
from stcast.synth import GeneratorSpec, generate

from conftest import make_panel

WIDE = GeneratorSpec(seed=5, n_regions=500, t_steps=40, post_onset_index=20)


def _model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # context_len:horizon is not 5:1
        return ForecastModel(ModelConfig(context_len=10, horizon=2, epochs=1,
                                         num_samples=10))


def _fit_to_forecast(regions, panel):
    """The bytes of each library result from the fit to the forecast."""
    S = build_spatial_matrix(regions, WIDE.alpha)
    est = fit_did(panel, S)
    adjusted = adjust_panel(panel, est, S)
    model = _model()
    trace = model.fit(adjusted, panel)
    samples = model.forecast(adjusted.z, panel.y).samples
    return {
        "estimate": repr((dict(est.table), est.residual_variance)).encode(),
        "y_tilde": adjusted.y_tilde.tobytes(),
        "z": adjusted.z.tobytes(),
        "trace": np.array(trace).tobytes(),
        "params": b"".join(p.tobytes() for p in model.params.values()),
        "samples": samples.tobytes(),
    }


def _generated(spec):
    _, panel, _ = generate(spec)
    return panel.y.tobytes(), panel.c.tobytes()


class TestNumpyThreads:
    def test_fit_to_forecast_bytes_do_not_depend_on_the_count(self, numpy_pool):
        get_threads, set_threads = numpy_pool
        regions, panel, _ = generate(WIDE)
        set_threads(1)
        one = _fit_to_forecast(regions, panel)
        set_threads(3)
        three = _fit_to_forecast(regions, panel)
        assert get_threads() == 3
        assert {name for name in one if one[name] != three[name]} == set()

    def test_each_entry_point_runs_its_products_on_one_thread(
            self, monkeypatch, numpy_pool):
        # The caller left the pool at 3; each spatial lag and GRU step
        # inside the four entry points reads 1.
        get_threads, _ = numpy_pool
        counts = []
        for owner, name in ((causal, "spatial_lag"), (GRUStack, "step")):
            def recording(*args, original=getattr(owner, name), **kwargs):
                counts.append(get_threads())
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, recording)
        spec = GeneratorSpec(seed=1, t_steps=60, post_onset_index=30)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        seen = {}

        def run(name, call):
            counts.clear()
            result = call()
            seen[name] = set(counts)
            return result

        est = run("fit_did", lambda: fit_did(panel, S))
        adjusted = run("adjust_panel", lambda: adjust_panel(panel, est, S))
        model = _model()
        run("fit", lambda: model.fit(adjusted, panel))
        run("forecast", lambda: model.forecast(adjusted.z, panel.y))
        assert seen == dict.fromkeys(("fit_did", "adjust_panel", "fit",
                                      "forecast"), {1})
        assert get_threads() == 3

    def test_generated_panel_does_not_depend_on_the_count(self, numpy_pool):
        # The generator runs no scope; its bytes do not depend on the
        # count either.
        get_threads, set_threads = numpy_pool
        set_threads(1)
        one = _generated(WIDE)
        set_threads(3)
        assert _generated(WIDE) == one
        assert get_threads() == 3

    def test_a_raise_restores_the_count(self, numpy_pool):
        rng = np.random.default_rng(0)
        constant = make_panel(rng.normal(size=(3, 20)), treated=np.zeros(3))
        with pytest.raises(EstimationError, match="collinear"):
            fit_did(constant, None)
        short = make_panel(rng.normal(size=(3, 5)))
        with pytest.raises(InsufficientDataError):
            _model().fit(AdjustedPanel(y_tilde=short.y, z=short.y), short)
        with pytest.raises(InputValidationError, match="not fitted"):
            _model().forecast(constant.y, constant.y)
        assert numpy_pool[0]() == 3
