"""Synthetic spatial-temporal panels with known ground truth.

The generator simulates the estimation equation forward: each region's
target is driven by the spatially lagged targets of the previous period,
treatment/post indicators, AR(1) covariates, and Gaussian (optionally
Student-t) noise.  A burn-in prefix washes out initial conditions so the
retained window starts near the stationary regime.  Because the
parameters are known exactly, generated panels serve as recovery oracles
for the estimator and end-to-end tests.

Only the two true recursions step through time, each over a time-major
array so that a step touches contiguous rows: the covariate AR(1)
``c(s) = phi * c(s-1) + shock(s)`` and the target
``y(s) = rho * (W @ y(s-1)) + drift(s)``.  The drift holds every term
that does not depend on an earlier y (intercept, group, period and
treatment terms, covariates and noise) as one (N, BURN_IN + T) array
built before the target recursion; the stability bound is checked once,
after it.  Every value is bit-identical to stepping the equation one
period at a time.

The panel holds C-contiguous copies of the retained window only, so a
held panel keeps the N * T * (D + 1) floats of y and c and none of the
burn-in.  Its
``times`` come from ``_calendar``: panels with the same start date and
length share one immutable tuple of dates.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .causal import DidEstimate, Panel, coefficient_names
from .errors import GeneratorInstabilityError, InputValidationError
from .spatial import Region, RegionSet, build_spatial_matrix

BURN_IN = 50

# Dynamics are declared explosive past this magnitude.
_STABILITY_BOUND = 1e9


@dataclass(frozen=True)
class GeneratorSpec:
    n_regions: int = 6
    t_steps: int = 300
    coordinates: tuple[tuple[float, float], ...] | None = None
    alpha: float = 1.0
    true_rho: float = 0.4
    true_delta: float = -2.0
    true_gamma: tuple[float, ...] = (1.0, -0.5, -1.0, 0.3)
    true_beta0: float = 1.0
    true_beta1: float = 0.5
    true_beta2: float = -0.3
    treated_fraction: float = 0.5
    post_onset_index: int = 150
    cov_persistence: float = 0.9
    cov_noise_scale: float = 0.5
    noise_sigma: float = 0.1
    noise_family: str = "gaussian"   # "gaussian" | "student_t"
    noise_df: float = 5.0
    # Level shift added to the first covariate on treated post-period
    # cells (a policy-response covariate that co-moves with the
    # intervention).  Zero keeps covariates independent of treatment.
    cov_shift_treated_post: float = 0.0
    seed: int = 0
    start_date: dt.date = field(default_factory=lambda: dt.date(2020, 6, 1))

    def __post_init__(self):
        if self.n_regions < 2:
            raise InputValidationError("need at least 2 regions")
        if abs(self.true_rho) >= 1.0:
            raise InputValidationError(f"|true_rho| must be < 1, got {self.true_rho}")
        if not 1 <= self.post_onset_index <= self.t_steps - 1:
            raise InputValidationError(
                "post_onset_index must leave at least one pre and one post "
                f"period, got {self.post_onset_index} for T={self.t_steps}"
            )
        if not 0.0 < self.treated_fraction < 1.0:
            raise InputValidationError("treated_fraction must be in (0, 1)")
        if self.coordinates is not None and len(self.coordinates) != self.n_regions:
            raise InputValidationError(
                f"{len(self.coordinates)} coordinate pairs for "
                f"{self.n_regions} regions"
            )
        if self.noise_family not in ("gaussian", "student_t"):
            raise InputValidationError(
                f"unknown noise family {self.noise_family!r}"
            )
        if not 0.0 <= self.cov_persistence < 1.0:
            raise InputValidationError("cov_persistence must be in [0, 1)")

    @property
    def d(self) -> int:
        return len(self.true_gamma)


def _draw_noise(rng: np.random.Generator, spec: GeneratorSpec, size) -> np.ndarray:
    if spec.noise_family == "gaussian":
        return rng.normal(0.0, spec.noise_sigma, size)
    # Student-t rescaled to the requested standard deviation.
    df = spec.noise_df
    scale = spec.noise_sigma * np.sqrt((df - 2.0) / df) if df > 2 else spec.noise_sigma
    return scale * rng.standard_t(df, size)


@lru_cache(maxsize=8)
def _calendar(start_date: dt.date, t_steps: int) -> tuple[dt.date, ...]:
    """The ``t_steps`` daily dates from ``start_date``, one shared tuple
    per (start, length)."""
    return tuple(start_date + dt.timedelta(days=k) for k in range(t_steps))


def generate(spec: GeneratorSpec) -> tuple[RegionSet, Panel, DidEstimate]:
    """Simulate a panel; returns (regions, panel, ground_truth).

    The panel's y, c and post are compact copies of the retained window
    (the burn-in is dropped, not kept behind views), and its times are
    the calendar shared by every panel with the same start and length.
    """
    rng = np.random.default_rng(spec.seed)
    n, t, d = spec.n_regions, spec.t_steps, spec.d

    if spec.coordinates is None:
        lats = rng.uniform(-60.0, 60.0, n)
        lons = rng.uniform(-179.0, 179.0, n)
        coords = list(zip(lats, lons))
    else:
        coords = [(float(a), float(b)) for a, b in spec.coordinates]
    regions = RegionSet(tuple(
        Region(f"R{i:02d}", lat, lon) for i, (lat, lon) in enumerate(coords)
    ))
    S = build_spatial_matrix(regions, spec.alpha)

    n_treated = int(np.clip(round(spec.treated_fraction * n), 1, n - 1))
    treated = np.zeros(n)
    treated[rng.permutation(n)[:n_treated]] = 1.0

    total = BURN_IN + t
    phi = spec.cov_persistence
    stat_sd = spec.cov_noise_scale / np.sqrt(max(1.0 - phi * phi, 1e-12))
    # Time-major (total, N, D), so each step reads and writes contiguous
    # rows; c(s) = shock(s) + phi * c(s-1) adds in either order bit for bit.
    c_tm = np.empty((total, n, d))
    c_tm[0] = rng.normal(0.0, stat_sd, (n, d))
    shocks = rng.normal(0.0, spec.cov_noise_scale, (n, total - 1, d))
    c_tm[1:] = shocks.transpose(1, 0, 2)
    carry = np.empty((n, d))
    for prev, row in zip(c_tm, c_tm[1:]):
        row += np.multiply(phi, prev, out=carry)
    c = c_tm.transpose(1, 0, 2).copy()

    post = np.zeros(total)
    post[BURN_IN + spec.post_onset_index:] = 1.0

    if spec.cov_shift_treated_post != 0.0:
        c[:, :, 0] += spec.cov_shift_treated_post * np.outer(treated, post)

    gamma = np.asarray(spec.true_gamma, dtype=float)
    eps = _draw_noise(rng, spec, (n, total))
    # Every non-recursive term of every step at once, summed in the order
    # the per-step equation writes them.  The period terms of step 0 are
    # zeros (post starts after the burn-in), which change no value.
    drift = ((spec.true_beta0 + spec.true_beta1 * treated)[:, None]
             + spec.true_beta2 * post
             + (spec.true_delta * treated)[:, None] * post
             + c @ gamma + eps)

    # y(s) = rho * (W @ y(s-1)) + drift(s), time-major like c.  Overflow
    # past the stability bound is reported once, after the loop.
    y_tm = drift.T.copy()
    lag = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, row in zip(y_tm, y_tm[1:]):
            np.matmul(S.weights, prev, out=lag)
            row += np.multiply(spec.true_rho, lag, out=lag)
        exploded = np.flatnonzero((np.abs(y_tm[1:]) > _STABILITY_BOUND).any(axis=1))
    if exploded.size:
        raise GeneratorInstabilityError(
            f"dynamics exploded at step {exploded[0] + 1} (|y| > {_STABILITY_BOUND:g})"
        )

    panel = Panel(
        region_ids=tuple(regions.region_ids),
        times=_calendar(spec.start_date, t),
        y=y_tm[BURN_IN:].T.copy(),
        c=c[:, BURN_IN:, :].copy(),
        treated=treated,
        post=post[BURN_IN:].copy(),
    )
    values = (spec.true_rho, spec.true_beta0, spec.true_beta1, spec.true_beta2,
              spec.true_delta, *spec.true_gamma)
    truth = DidEstimate({name: (value, None) for name, value
                         in zip(coefficient_names(d), values)},
                        spec.noise_sigma**2)
    return regions, panel, truth
