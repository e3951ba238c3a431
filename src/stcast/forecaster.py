"""Recurrent probabilistic forecaster.

The encoder consumes per-region pairs (adjusted input z, target y), all
regions sharing one parameter set; an affine head maps the top hidden
state to the output distribution's raw parameters.  Training slides
fixed-length windows over each region's history and minimizes the exact
next-step negative log-likelihood by momentum SGD with hand-derived
backpropagation (no autodiff).  Each batch projects the top hidden state
per step, then forms the head NLL and its gradient once per batch over
all steps.  ``params`` is one name -> array dict, the encoder's
gate-stacked blocks (see ``gru``) then ``head.W`` and ``head.b``: the GRU
stack computes with it, SGD updates it in place, and ``model.npz`` saves
it as ``param.<name>``.  Forecasting encodes each region's history once,
from a zero state over every history step, shares the final state across
its sample paths, then draws each future value from the projected
distribution and feeds it back as the next input; z is held at its last
observed value over the horizon.  Per-region standardisation is
``TargetTransform``'s: ``fit`` fits one ``standardize`` transform to z
and one to y, applies them to the inputs and the target, and
``forecast`` inverts the y transform on its samples.  Outside training
one stepper advances the GRU, for the N-row encode and the
N x num_samples-row decode alike: it steps blocks of DECODE_BLOCK_ROWS
rows, writing each back in place, so its temporaries stay one block in
size; GEMM rows are independent, so the states are bit-identical to one
step over all rows.  ``fit`` and ``forecast`` run on one thread of each
OpenBLAS pool (``_blas.one_thread``), so their bits do not depend on the
pools' counts, and the blocks leave a lower memory peak.
"""

from __future__ import annotations

import json
import warnings
import zipfile
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import heads
from ._blas import one_thread
from .causal import AdjustedPanel, Panel
from .dataio import replacing
from .errors import (
    DivergenceError,
    IngestionError,
    InputValidationError,
    InsufficientDataError,
    PropagationError,
    check_distinct,
    check_settings,
    setting,
)
from .gru import GRUStack, init_gru_params, param_shapes
from .transforms import TargetTransform, fit_target_transform

INPUT_SIZE = 2          # features per step: (z, y)
DECODE_BLOCK_ROWS = 1024  # rows per GRU step when encoding or decoding
MOMENTUM = 0.9


@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int = setting(32, least=1)
    num_layers: int = setting(2, least=1)
    distribution: str = setting("gaussian", choices=heads.FAMILIES)
    context_len: int = setting(25, least=1)
    horizon: int = setting(5, least=1)
    learning_rate: float = setting(0.01, interval="[0, inf)")
    epochs: int = setting(50, least=1)
    grad_clip: float = setting(5.0, interval="(0, inf]")   # inf: no clipping
    num_samples: int = setting(100, least=1)
    seed: int = setting(0, least=0)
    batch_size: int = setting(64, least=1)

    def __post_init__(self):
        check_settings(self)
        if self.context_len != 5 * self.horizon:
            warnings.warn(
                f"context_len:horizon is {self.context_len}:{self.horizon}; "
                "the recommended ratio is 5:1",
                RuntimeWarning,
            )


@dataclass(frozen=True)
class ForecastDistribution:
    """Per-region, per-horizon forecast sample ensemble (N, m, num_samples)."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        s.setflags(write=False)
        if s.ndim != 3:
            raise InputValidationError(f"expected (N, m, s) samples, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise PropagationError("forecast produced non-finite samples")


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every model parameter, in ``params`` order."""
    arity = heads.PARAM_ARITY[config.distribution]
    return {**param_shapes(INPUT_SIZE, config.hidden_size, config.num_layers),
            "head.W": (config.hidden_size, arity), "head.b": (arity,)}


class ForecastModel:
    """Shared-parameter recurrent forecaster over a fixed region set."""

    def __init__(self, config: ModelConfig,
                 params: dict[str, np.ndarray] | None = None,
                 z_transform: TargetTransform | None = None,
                 y_transform: TargetTransform | None = None,
                 region_ids: tuple[str, ...] | None = None):
        self.config = config
        if params is None:
            rng = np.random.default_rng(config.seed)
            params = init_gru_params(INPUT_SIZE, config.hidden_size,
                                     config.num_layers, rng)
            shape = _param_shapes(config)["head.W"]
            bound = 1.0 / np.sqrt(config.hidden_size)
            params["head.W"] = rng.uniform(-bound, bound, shape)
            params["head.b"] = np.zeros(shape[1])
        self.params = params    # the stack's own dict, which SGD updates in place
        self.gru = GRUStack(params)
        self.z_transform = z_transform
        self.y_transform = y_transform
        self.region_ids = region_ids

    @property
    def fitted(self) -> bool:
        return self.y_transform is not None

    # -- training -----------------------------------------------------------

    @one_thread()
    def fit(self, adjusted: AdjustedPanel, panel: Panel) -> list[float]:
        """Train on the panel; returns the per-epoch mean NLL trace.

        Inputs per step are (z[i,t], y[i,t]); the prediction target for
        step t is the adjusted next value y_tilde[i,t+1].  The target
        shares the y transform so sampled values can feed straight back in
        during forecasting.
        """
        cfg = self.config
        z, y, y_tilde = adjusted.z, panel.y, adjusted.y_tilde
        n, t = y.shape
        if t < cfg.context_len + cfg.horizon:
            raise InsufficientDataError(
                f"need T >= context_len + horizon = "
                f"{cfg.context_len + cfg.horizon}, got {t}"
            )
        self.z_transform = fit_target_transform(z, "standardize")
        self.y_transform = fit_target_transform(y, "standardize")
        self.region_ids = tuple(panel.region_ids)
        inputs, targets = self._build_windows(
            self.z_transform.apply(z), self.y_transform.apply(y),
            self.y_transform.apply(y_tilde))
        n_windows = inputs.shape[0]
        rng = np.random.default_rng(cfg.seed)
        velocity = {k: np.zeros_like(v) for k, v in self.params.items()}

        trace = []
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_windows)
            nll_sum = 0.0
            for start in range(0, n_windows, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                batch_nll, grads = self._batch_forward_backward(
                    inputs[idx], targets[idx]
                )
                if not np.isfinite(batch_nll):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch} "
                        f"(learning_rate={cfg.learning_rate})"
                    )
                nll_sum += batch_nll
                self._sgd_update(grads, velocity)
            trace.append(nll_sum / (n_windows * cfg.context_len))
        return trace

    def _build_windows(self, zs, ys, ts):
        """(num_windows, L, 2) inputs and (num_windows, L) next-step targets."""
        t0 = self.config.context_len
        feats = np.stack([zs, ys], axis=-1)               # (N, T, 2)
        t = feats.shape[1]
        n_win = t - t0                                    # starts 0 .. T-t0-1
        wins = sliding_window_view(feats, t0, axis=1)     # (N, T-t0+1, 2, t0)
        inputs = np.ascontiguousarray(
            np.moveaxis(wins[:, :n_win], -1, 2)           # (N, n_win, t0, 2)
        ).reshape(-1, t0, INPUT_SIZE)
        tgt = sliding_window_view(ts[:, 1:], t0, axis=1)  # (N, T-t0, t0)
        targets = np.ascontiguousarray(tgt[:, :n_win]).reshape(-1, t0)
        return inputs, targets

    def _batch_forward_backward(self, batch_in, batch_tgt):
        """Sum of per-step NLLs and the parameter gradients of the mean.

        The head projection runs per step into one (L, B, arity) buffer;
        the NLL and its raw-output gradient are then formed once for the
        whole batch.  Per-step NLL sums, head products and gradient sums
        keep their per-step order, so the results are bit-identical to a
        per-step head.  Each step's cache is dropped once its backward has
        run, so the backward's buffers reuse that memory.
        """
        cfg = self.config
        b, t0, _ = batch_in.shape
        head_w, head_b = self.params["head.W"], self.params["head.b"]
        hidden = self.gru.init_hidden(b)
        caches, tops = [], []
        raw = np.empty((t0, b, head_b.shape[0]))
        for k in range(t0):
            hidden, cache = self.gru.step(batch_in[:, k, :], hidden)
            np.matmul(hidden[-1], head_w, out=raw[k])
            raw[k] += head_b
            caches.append(cache)
            tops.append(hidden[-1])
        values, d_raw = heads.nll_and_raw_grad(
            raw, np.ascontiguousarray(batch_tgt.T), cfg.distribution)
        nll_total = 0.0
        for step_values in values:
            nll_total += float(step_values.sum())
        d_raw *= 1.0 / (b * t0)

        grads = self.gru.zero_grads()
        g_head_w, g_head_b = grads["head.W"], grads["head.b"]
        head_w_t = head_w.T
        d_hidden = self.gru.init_hidden(b)
        for k in range(t0 - 1, -1, -1):
            g_head_w += tops[k].T @ d_raw[k]
            g_head_b += d_raw[k].sum(axis=0)
            d_hidden[-1] += d_raw[k] @ head_w_t
            d_hidden = self.gru.step_backward(caches.pop(), d_hidden, grads)
        return nll_total, grads

    def _sgd_update(self, grads, velocity):
        """Clip the global gradient norm, summed per gate slab then over the
        head (its float sum keeps that order); take a momentum step."""
        cfg = self.config
        slabs = [*self.gru.gate_slabs(grads), grads["head.W"], grads["head.b"]]
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in slabs))
        if norm > cfg.grad_clip:
            factor = cfg.grad_clip / norm
            for g in grads.values():
                g *= factor
        for key, p in self.params.items():
            v = velocity[key]
            v *= MOMENTUM
            v -= cfg.learning_rate * grads[key]
            p += v

    # -- forecasting ----------------------------------------------------------

    def _decode(self, hidden, z_last, steps: int, rng) -> np.ndarray:
        """Project, draw and feed each draw back; returns the standardized
        draws (batch, steps).  ``hidden`` is advanced in place."""
        draws = np.empty((z_last.shape[0], steps))
        for k in range(steps):
            raw = hidden[-1] @ self.params["head.W"] + self.params["head.b"]
            params = heads.project_raw(raw, self.config.distribution)
            draws[:, k] = heads.sample(params, rng)
            if k + 1 < steps:
                self._step_in_blocks(hidden, z_last, draws[:, k])
        return draws

    def _step_in_blocks(self, hidden, z, y):
        """Advance ``hidden`` one step on inputs (z, y), in place, one
        block of DECODE_BLOCK_ROWS rows at a time.  A block's new state
        depends only on its own old rows, and ``step`` returns every layer
        before the write-back.  numpy sends a one-row product to gemv,
        whose bits differ from gemm's, so a one-row last block takes a
        row from the block before it."""
        n = z.shape[0]
        bounds = list(range(0, n, DECODE_BLOCK_ROWS)) + [n]
        if len(bounds) > 2 and n - bounds[-2] == 1:
            bounds[-2] -= 1
        for start, stop in zip(bounds[:-1], bounds[1:]):
            rows = slice(start, stop)
            x = np.column_stack([z[rows], y[rows]])
            new, _ = self.gru.step(x, [h[rows] for h in hidden])
            for h, h_new in zip(hidden, new):
                h[rows] = h_new

    def _scaled_history(self, z_history, y_history):
        """Standardized (z, y) histories, once checked against the model;
        a non-finite scaled value is named by its first (region, time)."""
        if not self.fitted:
            raise InputValidationError("model is not fitted")
        z_history = np.asarray(z_history, dtype=float)
        y_history = np.asarray(y_history, dtype=float)
        if y_history.ndim != 2 or z_history.shape != y_history.shape:
            raise InputValidationError(
                f"histories must share an (N, T) shape; got "
                f"{z_history.shape} and {y_history.shape}"
            )
        n, t_hist = y_history.shape
        fitted_n = self.y_transform.mean.shape[0]
        if fitted_n != n:
            raise InputValidationError(
                f"model was fitted on {fitted_n} regions, history has {n}"
            )
        if t_hist < self.config.context_len:
            raise InsufficientDataError(
                f"history length {t_hist} < context_len {self.config.context_len}"
            )
        zs, ys = self.z_transform.apply(z_history), self.y_transform.apply(y_history)
        bad = np.argwhere(~(np.isfinite(zs) & np.isfinite(ys)))
        if bad.size:
            i, t = bad[0]
            raise PropagationError(
                f"non-finite encoder input for region index {i} at time {t}"
            )
        return zs, ys

    @one_thread()
    def forecast(self, z_history: np.ndarray, y_history: np.ndarray,
                 horizon: int | None = None, num_samples: int | None = None,
                 seed: int | None = None) -> ForecastDistribution:
        """Ancestral-sampling forecast from the end of the given history.

        Sample values are returned on the scale of the training inputs
        (the per-region standardization is inverted).  The model itself
        is immutable here; parallel callers should pass distinct seeds
        (e.g. run_seed + stream_index) to own independent sample streams.
        """
        zs, ys = self._scaled_history(z_history, y_history)
        cfg = self.config
        horizon = cfg.horizon if horizon is None else int(horizon)
        num_samples = cfg.num_samples if num_samples is None else int(num_samples)
        if horizon <= 0 or num_samples <= 0:
            raise InputValidationError(f"horizon ({horizon}) and num_samples "
                                       f"({num_samples}) must be positive")
        rng = np.random.default_rng(cfg.seed if seed is None else seed)

        hidden = self.gru.init_hidden(zs.shape[0])
        for t in range(zs.shape[1]):
            self._step_in_blocks(hidden, zs[:, t], ys[:, t])
        hidden = [np.repeat(h, num_samples, axis=0) for h in hidden]
        z_last = np.repeat(zs[:, -1], num_samples)
        draws = self._decode(hidden, z_last, horizon, rng)
        cube = draws.reshape(-1, num_samples, horizon).transpose(0, 2, 1)
        return ForecastDistribution(samples=self.y_transform.invert(cube))

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Single-file checkpoint; write/read round-trips bit-exactly."""
        if not self.fitted:
            raise InputValidationError("refusing to save an unfitted model")
        arrays = {f"param.{k}": v for k, v in self.params.items()}
        for name, tf in (("y", self.y_transform), ("z", self.z_transform)):
            arrays[f"scaler.{name}_mean"] = tf.mean
            arrays[f"scaler.{name}_std"] = tf.std
        config = {f.name: getattr(self.config, f.name) for f in fields(ModelConfig)}
        arrays["meta.config"] = np.array(json.dumps(config))
        arrays["meta.region_ids"] = np.array(list(self.region_ids))
        with replacing(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "ForecastModel":
        """Read a ``save`` checkpoint.  ``IngestionError`` names the defect: not
        an .npz archive, a bad ``meta.config``, ``meta.region_ids`` that is
        not 1-d or repeats an id, or a member that is missing, undeclared,
        not float64 of its shape, non-finite, or a std <= 0."""
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = dict(data.items())
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as err:
            raise IngestionError(f"{path}: not an .npz checkpoint ({err})") from None

        def member(name):
            if name not in arrays:
                raise IngestionError(f"{path}: missing member '{name}'")
            return arrays[name]

        try:
            config = ModelConfig(**json.loads(str(member("meta.config"))))
        except (TypeError, json.JSONDecodeError, InputValidationError) as err:
            raise IngestionError(f"{path}: bad meta.config ({err})") from None
        ids = member("meta.region_ids")
        if ids.ndim != 1:
            raise IngestionError(f"{path}: member 'meta.region_ids' is {ids.shape}, "
                                 "expected one id per region")
        region_ids = tuple(map(str, ids))
        check_distinct(region_ids, IngestionError,
                       f"{path}: member 'meta.region_ids' has ")
        layout = _param_shapes(config)
        shapes = {f"param.{k}": v for k, v in layout.items()}
        for name in ("y_mean", "y_std", "z_mean", "z_std"):
            shapes[f"scaler.{name}"] = (len(region_ids),)
        for name, shape in shapes.items():
            value = member(name)
            if value.dtype != np.float64 or value.shape != shape:
                raise IngestionError(f"{path}: member '{name}' is {value.dtype} "
                                     f"{value.shape}, expected float64 {shape}")
            if not np.all(np.isfinite(value)):
                raise IngestionError(f"{path}: member '{name}' is non-finite")
            if name.endswith("_std") and not np.all(value > 0):
                raise IngestionError(f"{path}: member '{name}' is not positive")
        for name in arrays:
            if name.startswith("param.") and name not in shapes:
                raise IngestionError(f"{path}: member '{name}' is not declared "
                                     "by meta.config")
        z_tf, y_tf = (TargetTransform("standardize", arrays[f"scaler.{v}_mean"],
                                      arrays[f"scaler.{v}_std"]) for v in "zy")
        params = {k: arrays[f"param.{k}"] for k in layout}
        return cls(config, params=params, z_transform=z_tf, y_transform=y_tf,
                   region_ids=region_ids)
