import copy
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from stcast import gru, heads
from stcast.causal import AdjustedPanel, adjust_panel, fit_did
from stcast.errors import (
    InputValidationError,
    InsufficientDataError,
    PropagationError,
)
from stcast.forecaster import (
    DECODE_BLOCK_ROWS,
    ForecastDistribution,
    ForecastModel,
    ModelConfig,
)
from stcast.spatial import build_spatial_matrix
from stcast.synth import GeneratorSpec, generate
from stcast.transforms import TargetTransform, fit_target_transform

from conftest import make_panel


def small_config(**overrides):
    base = dict(hidden_size=8, num_layers=2, distribution="gaussian",
                context_len=10, horizon=2, learning_rate=0.02, epochs=8,
                grad_clip=5.0, num_samples=20, seed=0, batch_size=16)
    base.update(overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ModelConfig(**base)


def random_training_data(seed=0, n=3, t=60):
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.normal(0, 0.3, size=(n, t)), axis=1)
    panel = make_panel(y, c=rng.normal(size=(n, t, 4)))
    z = y + 0.3 * rng.normal(size=(n, t))
    return AdjustedPanel(y_tilde=y.copy(), z=z), panel


def _scaled(model, adjusted, panel):
    """The fitted model's standardized (z, y) inputs."""
    return model.z_transform.apply(adjusted.z), model.y_transform.apply(panel.y)


class TestModelConfig:
    def test_ratio_warning(self):
        with pytest.warns(RuntimeWarning, match="5:1"):
            ModelConfig(context_len=10, horizon=5)

    def test_five_to_one_default_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelConfig()   # 25:5 is exactly 5:1

    def test_invalid_fields(self):
        with pytest.raises(InputValidationError):
            small_config(hidden_size=0)
        with pytest.raises(InputValidationError):
            small_config(distribution="poisson")
        with pytest.raises(InputValidationError, match="seed"):
            small_config(seed=-1)   # numpy's generators reject it in training
        # NaN grad_clip would silently switch clipping off; a non-finite
        # learning rate would only fail in training, as a divergence.
        for name, bad in (("grad_clip", float("nan")),
                          ("learning_rate", float("nan")),
                          ("learning_rate", float("inf"))):
            with pytest.raises(InputValidationError, match=f"{name} must"):
                small_config(**{name: bad})

    def test_infinite_grad_clip_means_no_clipping(self):
        adjusted, panel = random_training_data(2)
        unclipped = ForecastModel(small_config(grad_clip=float("inf"), epochs=2))
        unclipped.fit(adjusted, panel)
        huge = ForecastModel(small_config(grad_clip=1e300, epochs=2))
        huge.fit(adjusted, panel)
        for key in huge.params:
            assert np.array_equal(unclipped.params[key], huge.params[key]), key


class TestEncodeProject:
    def test_zero_weights_zero_input_zero_hidden(self):
        model = ForecastModel(small_config())
        for key, value in model.params.items():
            model.params[key] = np.zeros_like(value)
        hidden = model.gru.init_hidden(1)
        out, _ = model.gru.step(np.zeros((1, 2)), hidden)
        for h in out:
            assert np.array_equal(h, np.zeros((1, 8)))

    def test_purity(self):
        model = ForecastModel(small_config(seed=5))
        x = np.array([[0.3, -1.2]])
        h0 = model.gru.init_hidden(1)
        a, _ = model.gru.step(x, h0)
        b, _ = model.gru.step(x, model.gru.init_hidden(1))
        for ha, hb in zip(a, b):
            assert np.array_equal(ha, hb)

    def test_nonfinite_input_propagation_error(self):
        model = _identity_scaled(ForecastModel(small_config()), 2)
        y = np.zeros((2, 12))
        y[1, 7] = np.nan
        with pytest.raises(PropagationError, match="region index 1 at time 7"):
            model.forecast(np.zeros((2, 12)), y)

    def test_nonfinite_input_names_first_cell_in_c_order(self):
        # Region before time, z and y alike: the later-time z defect in
        # region 0 is named, not the earlier-time y defect in region 1.
        model = _identity_scaled(ForecastModel(small_config()), 2)
        z, y = np.zeros((2, 2, 12))
        z[0, 9] = np.inf
        y[1, 2] = np.nan
        with pytest.raises(PropagationError, match="region index 0 at time 9"):
            model.forecast(z, y)

    def test_project_zero_hidden_zero_weights(self):
        raw = np.zeros((1, 8)) @ np.zeros((8, 2)) + np.zeros(2)
        p = heads.project_raw(raw, "gaussian")
        assert p.mu[0] == 0.0
        assert p.sigma[0] == pytest.approx(np.log(2.0) + 1e-6, abs=1e-12)

    def test_project_ranges_any_hidden(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(8, 3))
        b = rng.normal(size=3)
        p = heads.project_raw(rng.normal(size=(5, 8)) @ w + b, "student_t")
        assert np.all(p.sigma > 0)
        assert np.all(p.nu > 2)

    def test_project_matches_oracle(self):
        rng = np.random.default_rng(9)
        hidden = rng.normal(size=(1, 8))
        w = rng.normal(size=(8, 2))
        b = rng.normal(size=2)
        raw = hidden @ w + b
        p = heads.project_raw(raw, "gaussian")
        assert p.mu[0] == pytest.approx(raw[0, 0], abs=1e-12)
        assert p.sigma[0] == pytest.approx(
            np.logaddexp(0.0, raw[0, 1]) + 1e-6, abs=1e-12)


class TestTraining:
    def test_constant_series_converges(self):
        n, t = 2, 50
        y = np.full((n, t), 7.0)
        panel = make_panel(y, c=np.zeros((n, t, 1)))
        adjusted = AdjustedPanel(y_tilde=y.copy(), z=y.copy())
        model = ForecastModel(small_config(epochs=10, learning_rate=0.005,
                                           grad_clip=1.0))
        trace = model.fit(adjusted, panel)
        assert len(trace) == 10
        diffs = np.diff(trace[:10])
        assert np.all(diffs <= 1e-9)
        # The head's location converges to the standardized constant (0).
        zs, ys = _scaled(model, adjusted, panel)
        hidden, _ = _encode_every_copy(model, zs, ys, 1)
        raw = hidden[-1] @ model.params["head.W"] + model.params["head.b"]
        mu = raw[:, 0]
        assert np.max(np.abs(mu)) < 0.05

    def test_zero_learning_rate_identity(self):
        adjusted, panel = random_training_data(1)
        model = ForecastModel(small_config(learning_rate=0.0, epochs=3))
        before = copy.deepcopy(model.params)
        model.fit(adjusted, panel)
        for key in before:
            assert np.array_equal(before[key], model.params[key])

    def test_insufficient_history_rejected(self):
        adjusted, panel = random_training_data(2, t=11)
        model = ForecastModel(small_config())   # needs 10 + 2
        with pytest.raises(InsufficientDataError):
            model.fit(adjusted, panel)

    def test_loss_decreases_on_learnable_series(self):
        adjusted, panel = random_training_data(3)
        model = ForecastModel(small_config(epochs=12))
        trace = model.fit(adjusted, panel)
        assert trace[-1] < trace[0]

    def test_factorization_fidelity_naive_oracle(self):
        adjusted, panel = random_training_data(4, n=2, t=30)
        cfg = small_config(context_len=5, horizon=1, epochs=2)
        model = ForecastModel(cfg)
        model.fit(adjusted, panel)
        zs, ys = _scaled(model, adjusted, panel)
        ts = model.y_transform.apply(adjusted.y_tilde)
        inputs, targets = model._build_windows(zs, ys, ts)
        total, _ = model._batch_forward_backward(inputs, targets)
        count = targets.size

        # Naive oracle: loop windows and steps one by one.
        n, t = ys.shape
        t0 = cfg.context_len
        naive = 0.0
        terms = 0
        for i in range(n):
            for s in range(t - t0):
                hidden = model.gru.init_hidden(1)
                for k in range(t0):
                    x = np.array([[zs[i, s + k], ys[i, s + k]]])
                    hidden, _ = model.gru.step(x, hidden)
                    raw = hidden[-1] @ model.params["head.W"] + model.params["head.b"]
                    params = heads.project_raw(raw, cfg.distribution)
                    naive += heads.nll(params, ts[i, s + k + 1]).item()
                    terms += 1
        assert count == terms
        assert total == pytest.approx(naive, rel=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "student_t"])
    def test_gradcheck_all_families(self, family):
        rng = np.random.default_rng(10)
        cfg = small_config(distribution=family, hidden_size=6, context_len=6)
        model = ForecastModel(cfg)
        batch_in = rng.normal(size=(3, 6, 2))
        batch_tgt = rng.normal(size=(3, 6))
        _, grads = model._batch_forward_backward(batch_in, batch_tgt)

        def loss():
            value, _ = model._batch_forward_backward(batch_in, batch_tgt)
            return value / batch_tgt.size

        def slabs(arrays):
            """Every gate's W, U and b slab, then the head."""
            return [*model.gru.gate_slabs(arrays), arrays["head.W"],
                    arrays["head.b"]]

        worst = 0.0
        for slab, grad in zip(slabs(model.params), slabs(grads)):
            flat = slab.reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                up = loss()
                flat[idx] = orig - 1e-5
                dn = loss()
                flat[idx] = orig
                fd = (up - dn) / 2e-5
                an = grad.reshape(-1)[idx]
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
        assert worst < 1e-4


def _encode_every_copy(model, zs, ys, copies):
    """Reference encoder: rolls the GRU over one row per (region, copy)."""
    feats = np.stack([zs, ys], axis=-1)
    rows = np.repeat(feats, copies, axis=0)
    hidden = model.gru.init_hidden(rows.shape[0])
    for t in range(rows.shape[1]):
        hidden, _ = model.gru.step(rows[:, t, :], hidden)
    return hidden, np.repeat(zs[:, -1], copies)


def _decode_all_rows(model, hidden, z_last, steps, draw_fn):
    """Reference decoder: one GRU step over every sample row at once."""
    draws = np.empty((z_last.shape[0], steps))
    params_per_step = []
    for k in range(steps):
        raw = hidden[-1] @ model.params["head.W"] + model.params["head.b"]
        params = heads.project_raw(raw, model.config.distribution)
        params_per_step.append(params)
        draws[:, k] = draw_fn(params, k)
        if k + 1 < steps:
            x = np.column_stack([z_last, draws[:, k]])
            hidden, _ = model.gru.step(x, hidden)
    return draws, params_per_step


def _reference_step_backward(model, cache, d_new_hidden, grads):
    """Reference backward step: the per-gate form, reading gate g's
    weights as slab g of each block; it also forms the layer-0 input
    gradient."""
    p = model.params
    num_layers = model.config.num_layers
    d_out = [d.copy() for d in d_new_hidden]
    d_prev = [None] * num_layers
    dx = None
    for layer in range(num_layers - 1, -1, -1):
        inp, h, r, u, c = cache[layer]
        w, u_w, _ = (p[f"l{layer}.{kind}"] for kind in "WUb")
        g_w, g_u, g_b = (grads[f"l{layer}.{kind}"] for kind in "WUb")
        d_h_new = d_out[layer]

        da_u = d_h_new * (h - c) * u * (1.0 - u)
        da_c = d_h_new * (1.0 - u) * (1.0 - c * c)
        dhr = da_c @ u_w[2].T
        da_r = dhr * h * r * (1.0 - r)

        d_prev[layer] = (d_h_new * u + dhr * r
                         + da_r @ u_w[0].T
                         + da_u @ u_w[1].T)
        d_inp = (da_r @ w[0].T
                 + da_u @ w[1].T
                 + da_c @ w[2].T)

        g_w[0] += inp.T @ da_r
        g_u[0] += h.T @ da_r
        g_b[0] += da_r.sum(axis=0)
        g_w[1] += inp.T @ da_u
        g_u[1] += h.T @ da_u
        g_b[1] += da_u.sum(axis=0)
        g_w[2] += inp.T @ da_c
        g_u[2] += (r * h).T @ da_c
        g_b[2] += da_c.sum(axis=0)

        if layer > 0:
            d_out[layer - 1] = d_out[layer - 1] + d_inp
        else:
            dx = d_inp
    return dx, d_prev


def _reference_batch_forward_backward(model, batch_in, batch_tgt):
    """Reference training step: head projection, NLL and raw gradient per
    step, per-gate backward, gradients added gate slab by gate slab."""
    cfg = model.config
    b, t0, _ = batch_in.shape
    scale = 1.0 / (b * t0)
    hidden = model.gru.init_hidden(b)
    caches, tops, d_raws = [], [], []
    nll_total = 0.0
    for k in range(t0):
        hidden, cache = model.gru.step(batch_in[:, k, :], hidden)
        raw = hidden[-1] @ model.params["head.W"] + model.params["head.b"]
        values, d_raw = heads.nll_and_raw_grad(raw, batch_tgt[:, k],
                                               cfg.distribution)
        nll_total += float(values.sum())
        caches.append(cache)
        tops.append(hidden[-1])
        d_raws.append(d_raw * scale)

    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    d_hidden = model.gru.init_hidden(b)
    for k in range(t0 - 1, -1, -1):
        grads["head.W"] += tops[k].T @ d_raws[k]
        grads["head.b"] += d_raws[k].sum(axis=0)
        d_top = d_raws[k] @ model.params["head.W"].T
        d_out = list(d_hidden)
        d_out[-1] = d_out[-1] + d_top
        _, d_hidden = _reference_step_backward(model, caches[k], d_out, grads)
    return nll_total, grads


def _reference_sgd_update(model, grads, velocity):
    """Reference update: the clip norm sums squares per gate slab, W_r,
    U_r, b_r, W_u, ... layer by layer, then head.W and head.b; the
    momentum step runs per slab."""
    cfg = model.config
    keys = [(f"l{layer}.{kind}", g) for layer in range(cfg.num_layers)
            for g in range(3) for kind in "WUb"]
    keys += [("head.W", None), ("head.b", None)]

    def slab(arrays, key, g):
        return arrays[key] if g is None else arrays[key][g]

    norm = np.sqrt(sum(float(np.sum(slab(grads, *k) * slab(grads, *k)))
                       for k in keys))
    factor = min(1.0, cfg.grad_clip / norm)
    for key, g in keys:
        grad, v = slab(grads, key, g), slab(velocity, key, g)
        if factor < 1.0:
            grad *= factor
        v *= 0.9
        v -= cfg.learning_rate * grad
        slab(model.params, key, g)[...] += v


def _identity_scaled(model, n):
    """Mark a model fitted on n regions with identity standardization."""
    identity = TargetTransform("standardize", np.zeros(n), np.ones(n))
    model.z_transform = model.y_transform = identity
    return model


class TestForecast:
    def _fitted(self, seed=0, family="gaussian"):
        adjusted, panel = random_training_data(seed)
        model = ForecastModel(small_config(distribution=family, epochs=4))
        model.fit(adjusted, panel)
        return model, adjusted, panel

    @pytest.mark.parametrize("kwargs", [
        {"horizon": 0}, {"horizon": -1}, {"num_samples": 0}, {"num_samples": -2},
    ], ids=["horizon0", "horizon-1", "samples0", "samples-2"])
    def test_nonpositive_horizon_or_samples_rejected(self, kwargs):
        adjusted, panel = random_training_data()
        model = _identity_scaled(ForecastModel(small_config()), panel.n)
        with pytest.raises(InputValidationError, match="must be positive"):
            model.forecast(adjusted.z, panel.y, **kwargs)

    def test_seeded_determinism_single_sample(self):
        model, adjusted, panel = self._fitted()
        a = model.forecast(adjusted.z, panel.y, num_samples=1, seed=99)
        b = model.forecast(adjusted.z, panel.y, num_samples=1, seed=99)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        model, adjusted, panel = self._fitted()
        a = model.forecast(adjusted.z, panel.y, num_samples=1, seed=1)
        b = model.forecast(adjusted.z, panel.y, num_samples=1, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_degenerate_head_all_samples_near_zero(self):
        model, adjusted, panel = self._fitted()
        # Force the head to mu=0 and sigma at the link floor; neutralize
        # the transforms so outputs stay on the standardized scale.
        model.params["head.W"][:] = 0.0
        model.params["head.b"][:] = np.array([0.0, -30.0])
        _identity_scaled(model, panel.n)
        dist = model.forecast(adjusted.z, panel.y, num_samples=50, seed=3)
        assert np.max(np.abs(dist.samples)) < 1e-3

    def test_frozen_gaussian_head_moments(self):
        model, adjusted, panel = self._fitted()
        mu_target, sigma_target = 0.8, 0.6
        raw_sigma = np.log(np.expm1(sigma_target - 1e-6))
        model.params["head.W"][:] = 0.0
        model.params["head.b"][:] = np.array([mu_target, raw_sigma])
        _identity_scaled(model, panel.n)
        draws = model.forecast(adjusted.z[:, -10:], panel.y[:, -10:], horizon=1,
                               num_samples=100_000, seed=4).samples[0, 0]
        se_mean = sigma_target / np.sqrt(draws.size)
        se_var = sigma_target**2 * np.sqrt(2.0 / (draws.size - 1))
        assert draws.mean() == pytest.approx(mu_target, abs=3 * se_mean)
        assert draws.var() == pytest.approx(sigma_target**2, abs=3 * se_var)

    def test_history_too_short(self):
        model, adjusted, panel = self._fitted()
        with pytest.raises(InsufficientDataError):
            model.forecast(adjusted.z[:, :5], panel.y[:, :5])

    def test_forecast_rejects_wrong_region_count(self):
        model, adjusted, panel = self._fitted()
        assert panel.n == 3
        with pytest.raises(InputValidationError, match="fitted on 3 regions"):
            model.forecast(adjusted.z[:2], panel.y[:2])

    def test_sampling_feedback_changes_params(self, monkeypatch):
        model, adjusted, panel = self._fitted()
        m = 4
        _, ys = _scaled(model, adjusted, panel)
        base = np.tile(ys[:, -1:], (1, m))     # standardized forced draws
        bumped = base.copy()
        bumped[:, 1] += 5.0
        project_raw = heads.project_raw

        def rollout(forced):
            """Forecast one sample path whose draws are forced; returns
            the projected parameters at every step."""
            projected, steps = [], iter(forced.T)

            def recording_project(raw, family):
                projected.append(project_raw(raw, family))
                return projected[-1]

            monkeypatch.setattr(heads, "project_raw", recording_project)
            monkeypatch.setattr(heads, "sample",
                                lambda params, rng: next(steps).copy())
            dist = model.forecast(adjusted.z, panel.y, horizon=m,
                                  num_samples=1)
            assert np.allclose(model.y_transform.apply(dist.samples[:, :, 0]),
                               forced)
            return projected

        params_a, params_b = rollout(base), rollout(bumped)
        assert len(params_a) == len(params_b) == m
        # Step 1 projects before the intervened draw is consumed.
        assert np.array_equal(params_a[1].mu, params_b[1].mu)
        assert not np.allclose(params_a[2].mu, params_b[2].mu)
        assert not np.allclose(params_a[3].mu, params_b[3].mu)

    def test_samples_finite_enforced(self):
        with pytest.raises(PropagationError):
            ForecastDistribution(samples=np.full((1, 1, 2), np.inf))

    @pytest.mark.parametrize("family, num_samples", [
        pytest.param("gaussian", 30, id="gaussian"),
        pytest.param("laplace", 30, id="laplace"),
        pytest.param("student_t", 30, id="student_t"),
        pytest.param("gaussian", 1, id="gaussian-1"),
        pytest.param("gaussian", 3, id="gaussian-3"),
        pytest.param("gaussian", 100, id="gaussian-100"),
    ])
    def test_samples_match_per_copy_sampler(self, family, num_samples):
        model, adjusted, panel = self._fitted(family=family)
        horizon, seed = 4, 17
        dist = model.forecast(adjusted.z, panel.y, horizon=horizon,
                              num_samples=num_samples, seed=seed)

        zs, ys = _scaled(model, adjusted, panel)
        hidden, z_last = _encode_every_copy(model, zs, ys, num_samples)
        draws = model._decode(hidden, z_last, horizon,
                              np.random.default_rng(seed))
        cube = draws.reshape(panel.n, num_samples, horizon).transpose(0, 2, 1)
        assert np.array_equal(dist.samples, model.y_transform.invert(cube))

    def test_gru_rows_per_step(self):
        model, adjusted, panel = self._fitted()
        n, t_hist = panel.y.shape
        num_samples, horizon = 7, 5
        batch_sizes = []
        step = model.gru.step

        def recording_step(x, hidden):
            batch_sizes.append(x.shape[0])
            return step(x, hidden)

        model.gru.step = recording_step
        model.forecast(adjusted.z, panel.y, horizon=horizon,
                       num_samples=num_samples, seed=1)
        assert batch_sizes == [n] * t_hist + [n * num_samples] * (horizon - 1)
        assert sum(batch_sizes) == n * t_hist + n * num_samples * (horizon - 1)

    def test_gru_rows_per_step_multi_block(self, monkeypatch):
        model, adjusted, panel = self._fitted()
        n, t_hist = panel.y.shape
        num_samples, horizon = DECODE_BLOCK_ROWS + 76, 4
        rows = n * num_samples
        assert rows > 3 * DECODE_BLOCK_ROWS and rows % DECODE_BLOCK_ROWS
        calls = []                      # GRU batch sizes; None marks a draw
        step, sample = model.gru.step, heads.sample

        def recording_step(x, hidden):
            calls.append(x.shape[0])
            return step(x, hidden)

        def recording_sample(params, rng):
            calls.append(None)
            return sample(params, rng)

        model.gru.step = recording_step
        monkeypatch.setattr(heads, "sample", recording_sample)
        model.forecast(adjusted.z, panel.y, horizon=horizon,
                       num_samples=num_samples, seed=1)
        assert calls[:t_hist] == [n] * t_hist
        assert calls[t_hist] is None
        decode_steps, current = [], []
        for size in calls[t_hist + 1:]:
            if size is None:
                decode_steps.append(current)
                current = []
            else:
                current.append(size)
        assert current == []            # the last draw feeds no step
        assert len(decode_steps) == horizon - 1
        for sizes in decode_steps:
            assert len(sizes) > 3
            assert max(sizes) <= DECODE_BLOCK_ROWS
            assert sum(sizes) == rows

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "student_t"])
    def test_multi_block_samples_match_one_step_over_all_rows(self, family):
        model, adjusted, panel = self._fitted(family=family)
        num_samples, horizon, seed = DECODE_BLOCK_ROWS + 76, 4, 23
        assert panel.n * num_samples > 3 * DECODE_BLOCK_ROWS
        assert panel.n * num_samples % DECODE_BLOCK_ROWS
        dist = model.forecast(adjusted.z, panel.y, horizon=horizon,
                              num_samples=num_samples, seed=seed)

        zs, ys = _scaled(model, adjusted, panel)
        hidden, z_last = _encode_every_copy(model, zs, ys, num_samples)
        rng = np.random.default_rng(seed)
        draws, _ = _decode_all_rows(model, hidden, z_last, horizon,
                                    lambda params, _k: heads.sample(params, rng))
        cube = draws.reshape(panel.n, num_samples, horizon).transpose(0, 2, 1)
        assert np.array_equal(dist.samples, model.y_transform.invert(cube))

    @pytest.mark.parametrize("rows", [
        1, 2, DECODE_BLOCK_ROWS - 1, DECODE_BLOCK_ROWS, DECODE_BLOCK_ROWS + 1,
        2 * DECODE_BLOCK_ROWS + 1, 3 * DECODE_BLOCK_ROWS + 228,
    ])
    def test_blocked_step_matches_one_step_over_all_rows(self, rows):
        model = ForecastModel(small_config())
        rng = np.random.default_rng(rows)
        hidden = [rng.normal(size=(rows, model.config.hidden_size))
                  for _ in range(model.config.num_layers)]
        z, y = rng.normal(size=(2, rows))
        expected, _ = model.gru.step(np.column_stack([z, y]), hidden)
        model._step_in_blocks(hidden, z, y)
        for h, ref in zip(hidden, expected):
            assert np.array_equal(h, ref)

    def test_encode_steps_in_blocks(self):
        """The history encode goes through the decode's block stepper: no
        GRU step sees more than DECODE_BLOCK_ROWS rows, and the samples
        equal one step over every (region, copy) row."""
        n, num_samples, horizon, seed = DECODE_BLOCK_ROWS + 1, 2, 3, 5
        model = _identity_scaled(ForecastModel(small_config()), n)
        rng = np.random.default_rng(4)
        z, y = rng.normal(size=(2, n, model.config.context_len))
        sizes, step = [], model.gru.step

        def recording_step(x, hidden):
            sizes.append(x.shape[0])
            return step(x, hidden)

        model.gru.step = recording_step
        dist = model.forecast(z, y, horizon=horizon, num_samples=num_samples,
                              seed=seed)
        assert max(sizes) <= DECODE_BLOCK_ROWS
        assert sum(sizes) == (n * z.shape[1]
                              + n * num_samples * (horizon - 1))

        hidden, z_last = _encode_every_copy(model, z, y, num_samples)
        draw_rng = np.random.default_rng(seed)
        draws, _ = _decode_all_rows(
            model, hidden, z_last, horizon,
            lambda params, _k: heads.sample(params, draw_rng))
        cube = draws.reshape(n, num_samples, horizon).transpose(0, 2, 1)
        assert np.array_equal(dist.samples, cube)

    def test_forecast_peak_allocation_is_one_state_plus_a_block(self):
        """The decode keeps no temporaries the size of all sample rows:
        the traced peak stays within a small multiple of one hidden-state
        set (the parent's unblocked decode peaked near 11 sets)."""
        n, num_samples, horizon = 200, 100, 5
        model = _identity_scaled(ForecastModel(
            small_config(hidden_size=32, num_samples=num_samples,
                         horizon=horizon)), n)
        rows = n * num_samples
        state_bytes = rows * model.config.hidden_size \
            * model.config.num_layers * 8
        rng = np.random.default_rng(9)
        z, y = rng.normal(size=(2, n, 12))
        tracemalloc.start()
        try:
            model.forecast(z, y, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * state_bytes, peak / state_bytes


def _windowed_panel(family="gaussian"):
    """An N=5, T=43 panel and a context-30 config: 65 windows, so the
    last batch of 64 holds one window."""
    adjusted, panel = random_training_data(0, n=5, t=43)
    cfg = small_config(distribution=family, hidden_size=32, context_len=30,
                       horizon=6, batch_size=64, epochs=3)
    return adjusted, panel, cfg


class TestStackedTrainingStep:
    """The gate-stacked backward and the once-per-batch head reproduce the
    per-gate, per-step training step bit for bit."""

    @pytest.mark.parametrize("family", heads.FAMILIES)
    @pytest.mark.parametrize("batch", [1, 2, 6, 20, 64])
    @pytest.mark.parametrize("context_len", [1, 25])
    def test_batch_matches_per_gate_reference(self, family, batch,
                                              context_len):
        model = ForecastModel(small_config(
            distribution=family, hidden_size=32, context_len=context_len,
            seed=batch))
        rng = np.random.default_rng(100 + batch + context_len)
        batch_in = rng.normal(size=(batch, context_len, 2))
        batch_tgt = rng.normal(size=(batch, context_len))
        nll, grads = model._batch_forward_backward(batch_in, batch_tgt)
        ref_nll, ref_grads = _reference_batch_forward_backward(
            model, batch_in, batch_tgt)
        assert nll == ref_nll
        assert list(grads) == list(ref_grads) == list(model.params)
        for key, ref in ref_grads.items():
            assert np.array_equal(grads[key], ref), key

    @pytest.mark.parametrize("family", heads.FAMILIES)
    def test_fit_matches_per_gate_reference(self, family):
        adjusted, panel, cfg = _windowed_panel(family)
        assert panel.n * (panel.t - cfg.context_len) % cfg.batch_size == 1
        model, ref = ForecastModel(cfg), ForecastModel(cfg)
        ref._batch_forward_backward = (
            lambda batch_in, batch_tgt: _reference_batch_forward_backward(
                ref, batch_in, batch_tgt))
        trace = model.fit(adjusted, panel)
        ref_trace = ref.fit(adjusted, panel)
        assert trace == ref_trace
        assert list(model.params) == list(ref.params)
        for key, value in ref.params.items():
            assert np.array_equal(model.params[key], value), key

    @pytest.mark.parametrize("grad_clip", [0.05, float("inf")])
    def test_update_matches_per_gate_reference(self, grad_clip):
        # grad_clip=0.05 clips every batch, so the norm's float sum order
        # reaches the weights.
        adjusted, panel, cfg = _windowed_panel()
        cfg = replace(cfg, grad_clip=grad_clip)
        model, ref = ForecastModel(cfg), ForecastModel(cfg)
        ref._sgd_update = lambda grads, velocity: _reference_sgd_update(
            ref, grads, velocity)
        assert model.fit(adjusted, panel) == ref.fit(adjusted, panel)
        for key, value in ref.params.items():
            assert np.array_equal(model.params[key], value), key

    def test_head_nll_once_per_batch(self, monkeypatch):
        adjusted, panel, cfg = _windowed_panel()
        calls = []
        nll_and_raw_grad = heads.nll_and_raw_grad

        def recording(raw, y, family):
            calls.append(raw.shape)
            return nll_and_raw_grad(raw, y, family)

        monkeypatch.setattr(heads, "nll_and_raw_grad", recording)
        ForecastModel(cfg).fit(adjusted, panel)
        per_epoch = [(cfg.context_len, 64, 2), (cfg.context_len, 1, 2)]
        assert calls == per_epoch * cfg.epochs

    def test_training_step_rows_unchanged(self):
        adjusted, panel, cfg = _windowed_panel()
        model = ForecastModel(cfg)
        rows = []
        step = model.gru.step

        def recording_step(x, hidden):
            rows.append(x.shape[0])
            return step(x, hidden)

        model.gru.step = recording_step
        model.fit(adjusted, panel)
        per_epoch = [64] * cfg.context_len + [1] * cfg.context_len
        assert rows == per_epoch * cfg.epochs


class TestParameterBlocks:
    def test_one_dict_from_init_to_stack(self):
        model = ForecastModel(small_config())
        assert model.gru.params is model.params
        assert list(model.params) == ["l0.W", "l0.U", "l0.b", "l1.W", "l1.U",
                                      "l1.b", "head.W", "head.b"]

    def test_loaded_model_trains_its_own_blocks(self, tmp_path):
        adjusted, panel = random_training_data(12)
        model = ForecastModel(small_config(epochs=1))
        model.fit(adjusted, panel)
        model.save(tmp_path / "model.npz")
        clone = ForecastModel.load(tmp_path / "model.npz")
        assert list(clone.params) == list(model.params)
        assert clone.gru.params is clone.params
        clone.fit(adjusted, panel)
        model.fit(adjusted, panel)
        for key in model.params:
            assert np.array_equal(model.params[key], clone.params[key])


class TestCheckpoint:
    @pytest.mark.parametrize("family", ["gaussian", "laplace", "student_t"])
    def test_round_trip_bit_exact_forecasts(self, tmp_path, family):
        adjusted, panel = random_training_data(11)
        model = ForecastModel(small_config(distribution=family, epochs=3))
        model.fit(adjusted, panel)
        path = tmp_path / "model.npz"
        model.save(path)
        clone = ForecastModel.load(path)
        for key in model.params:
            assert np.array_equal(model.params[key], clone.params[key])
        a = model.forecast(adjusted.z, panel.y, seed=42)
        b = clone.forecast(adjusted.z, panel.y, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_checkpoint_members_and_scaler_bits(self, tmp_path):
        """model.npz holds the parameters in model.params order, then the
        y and z standardization statistics, then the metadata; the saved
        statistics are the ``standardize`` transforms of z and y."""
        adjusted, panel = random_training_data(13)
        model = ForecastModel(small_config(epochs=1))
        model.fit(adjusted, panel)
        model.save(tmp_path / "model.npz")
        stats = {"y": fit_target_transform(panel.y, "standardize"),
                 "z": fit_target_transform(adjusted.z, "standardize")}
        with np.load(tmp_path / "model.npz", allow_pickle=False) as data:
            assert data.files == (
                [f"param.{k}" for k in model.params]
                + ["scaler.y_mean", "scaler.y_std", "scaler.z_mean",
                   "scaler.z_std", "meta.config", "meta.region_ids"])
            for name, tf in stats.items():
                for kind in ("mean", "std"):
                    saved = data[f"scaler.{name}_{kind}"]
                    expected = getattr(tf, kind)
                    assert saved.dtype == expected.dtype
                    assert saved.tobytes() == expected.tobytes()

    def test_unfitted_save_rejected(self, tmp_path):
        model = ForecastModel(small_config())
        with pytest.raises(InputValidationError):
            model.save(tmp_path / "m.npz")

    def test_parameter_count_consistency(self):
        cfg = small_config(hidden_size=4, num_layers=1)
        model = ForecastModel(cfg)
        # 3 gates x (W 2x4 + U 4x4 + b 4) for one layer, head 4x2 + 2.
        expected = 3 * (8 + 16 + 4) + 8 + 2
        assert sum(v.size for v in model.params.values()) == expected


# numpy's vectorised exp in the GRU gates and the sigma/nu link derivative
# in place of scipy's expit (libm's scalar exp) moves a trained model's
# parameters and samples by at most this much.
SIGMOID_ATOL = 1e-10


class TestSigmoidKernel:
    @pytest.mark.parametrize("family, epochs", [
        ("gaussian", 50), ("student_t", 10), ("laplace", 10)])
    def test_fit_and_forecast_within_tolerance_of_expit(
            self, monkeypatch, family, epochs):
        spec = GeneratorSpec(seed=1)                    # N=6, T=300
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        adjusted = adjust_panel(panel, fit_did(panel, S), S)

        def fit_and_forecast():
            model = ForecastModel(ModelConfig(distribution=family,
                                              epochs=epochs))
            model.fit(adjusted, panel)
            samples = model.forecast(adjusted.z, panel.y).samples
            return model.params, samples

        params, samples = fit_and_forecast()
        monkeypatch.setattr(gru, "sigmoid", expit)     # a ufunc: takes out=
        monkeypatch.setattr(heads, "sigmoid", expit)
        ref_params, ref_samples = fit_and_forecast()
        assert np.all(np.isfinite(samples))
        assert np.max(np.abs(samples - ref_samples)) <= SIGMOID_ATOL
        for key, ref in ref_params.items():
            assert np.max(np.abs(params[key] - ref)) <= SIGMOID_ATOL, key
