"""Spatially-augmented difference-in-differences estimation and adjustment.

The regression is

    y[i,t] = rho * sum_j S[i,j] y[j,t-1]
             + beta0 + beta1*treated[i] + beta2*post[t]
             + delta*(treated[i]*post[t]) + gamma . c[i,t] + eps[i,t]

fitted in two stages: the coefficient on the (endogenous) spatial lag is
estimated first by two-stage least squares, then the remaining
coefficients by ordinary least squares with the spatial-lag contribution
moved to the left-hand side.  ``treatment`` is the one treated x post
indicator: the delta column, and the effect that ``adjust_panel`` removes
before it folds the spatial spillover back in to produce the
forecaster's conditioning series.  ``fit_did`` and ``adjust_panel`` run
on one thread of each OpenBLAS pool (``_blas.one_thread``), so their
bits do not depend on either pool's count.

The fit is a ``DidEstimate``: one ordered table of (estimate, standard
error) rows named by ``coefficient_names(D)``, plus the residual
variance.  The CSV writers and reader and ``parameter_report`` all
iterate that table; no other code lists the coefficient names.

Each ablation is a property of the inputs, not a flag: a spatial matrix
of ``None`` drops the lag term (no IV stage, rho = 0, z = y_tilde), and a
panel with D = 0 covariate columns drops the gamma term.
"""

from __future__ import annotations

import datetime as dt
import itertools
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr, dtrtrs

from ._blas import one_thread
from .errors import (
    EstimationError,
    InputValidationError,
    InsufficientDataError,
    NonstationarityError,
    check_distinct,
)
from .spatial import SpatialMatrix, spatial_lag

# Ridge added to the normal equations when the design is numerically
# near-singular (condition number above _COND_LIMIT) but not exactly
# rank-deficient.
_RIDGE = 1e-10
_COND_LIMIT = 1e12

# Interpretation thresholds for the fitted coefficients.
STRONG_SPILLOVER = 0.3
EFFECTIVE_TREATMENT = -0.1


# ---------------------------------------------------------------------------
# Panel containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Panel:
    """Aligned per-region series: targets, covariates, treatment design.

    y is (N, T), c is (N, T, D) with D possibly 0, treated is a binary
    (N,) vector and post a binary (T,) step vector (zeros then ones).
    Region ids must be distinct, times strictly increasing and evenly
    spaced; missing values are rejected.
    """

    region_ids: tuple[str, ...]
    times: tuple[dt.date, ...]
    y: np.ndarray
    c: np.ndarray
    treated: np.ndarray
    post: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        c = np.asarray(self.c, dtype=float)
        treated = np.asarray(self.treated, dtype=float)
        post = np.asarray(self.post, dtype=float)
        for name, arr in (("y", y), ("c", c), ("treated", treated), ("post", post)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

        check_distinct(self.region_ids)
        n, t = len(self.region_ids), len(self.times)
        if y.shape != (n, t):
            raise InputValidationError(f"y has shape {y.shape}, expected {(n, t)}")
        if c.ndim != 3 or c.shape[:2] != (n, t):
            raise InputValidationError(
                f"c has shape {c.shape}, expected ({n}, {t}, D)"
            )
        if treated.shape != (n,) or not set(np.unique(treated)) <= {0.0, 1.0}:
            raise InputValidationError("treated must be a binary length-N vector")
        if post.shape != (t,) or not set(np.unique(post)) <= {0.0, 1.0}:
            raise InputValidationError("post must be a binary length-T vector")
        if np.any(np.diff(post) < 0):
            raise InputValidationError(
                "post must be a step function (zeros then ones)"
            )
        for name, arr in (("y", y), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise InputValidationError(f"{name} contains non-finite values")
        deltas = {(b - a).days for a, b in zip(self.times, self.times[1:])}
        if any(d <= 0 for d in deltas):
            raise InputValidationError("times must be strictly increasing")
        if len(deltas) > 1:
            raise InputValidationError(f"times must be evenly spaced, got gaps {sorted(deltas)}")

    @property
    def n(self) -> int:
        return len(self.region_ids)

    @property
    def t(self) -> int:
        return len(self.times)

    @property
    def d(self) -> int:
        return self.c.shape[2]

    def window(self, t_end: int) -> "Panel":
        """Panel restricted to the first ``t_end`` time steps."""
        return Panel(
            region_ids=self.region_ids,
            times=self.times[:t_end],
            y=self.y[:, :t_end],
            c=self.c[:, :t_end, :],
            treated=self.treated,
            post=self.post[:t_end],
        )


def invalid_rows(table: Mapping[str, tuple[float, float | None]],
                 residual_variance: float):
    """(name, error) for each row an estimate cannot hold: a negative
    residual variance, a rho with |rho| >= 1, or a non-positive standard
    error when the residual variance is positive."""
    if not residual_variance >= 0:
        yield "residual_variance", InputValidationError(
            f"residual variance must be non-negative, got {residual_variance!r}")
    rho = abs(table["rho"][0])
    if rho >= 1.0:
        yield "rho", NonstationarityError(
            f"|rho| = {rho:.4f} >= 1: spatial autoregression is nonstationary")
    for name, (_, se) in table.items():
        if residual_variance > 0 and se is not None and not se > 0:
            yield name, InputValidationError(
                f"standard error of '{name}' must be positive, got {se!r}")


@dataclass(frozen=True)
class DidEstimate:
    """The fitted regression: a read-only table mapping each name of
    ``coefficient_names(D)``, in that order, to (estimate, std_error or
    None), plus the residual variance.  A fit without a spatial matrix has
    rho = 0.0 with no standard error; a ground truth has none at all.
    """

    table: Mapping[str, tuple[float, float | None]]
    residual_variance: float

    def __post_init__(self):
        table = {name: (float(value), None if se is None else float(se))
                 for name, (value, se) in self.table.items()}
        object.__setattr__(self, "table", MappingProxyType(table))
        expected = coefficient_names(max(len(table) - 5, 0))
        if list(table) != expected:
            raise InputValidationError(
                f"coefficients are {list(table)}, expected {expected}")
        for _, err in invalid_rows(table, self.residual_variance):
            raise err

    def __reduce__(self):               # a mappingproxy does not pickle
        return DidEstimate, (dict(self.table), self.residual_variance)

    @property
    def rho(self) -> float:
        return self.table["rho"][0]

    @property
    def delta(self) -> float:
        return self.table["delta"][0]

    @property
    def standard_errors(self) -> dict[str, float]:
        """A new name -> standard error dict of the rows that have one."""
        return {name: se for name, (_, se) in self.table.items()
                if se is not None}

    def coefficient_names(self) -> list[str]:
        return list(self.table)

    def coefficient_values(self) -> list[float]:
        return [value for value, _ in self.table.values()]


@dataclass(frozen=True)
class AdjustedPanel:
    """Treatment-effect-free targets and the spatially adjusted input."""

    y_tilde: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        yt = np.asarray(self.y_tilde, dtype=float)
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "y_tilde", yt)
        object.__setattr__(self, "z", z)
        yt.setflags(write=False)
        z.setflags(write=False)
        if yt.shape != z.shape:
            raise InputValidationError(
                f"y_tilde {yt.shape} and z {z.shape} shapes differ"
            )


# ---------------------------------------------------------------------------
# Design matrix
# ---------------------------------------------------------------------------

def treatment(treated: np.ndarray, post: np.ndarray) -> np.ndarray:
    """The (N, T) indicator treated[i] * post[t] of treated post cells."""
    return np.outer(treated, post)


def coefficient_names(d: int) -> list[str]:
    """A ``DidEstimate``'s row names in order: rho for the spatial lag,
    then one per exogenous design column."""
    return (["rho", "beta0", "beta1", "beta2", "delta"]
            + [f"gamma{k + 1}" for k in range(d)])


def design_column_labels(d: int) -> list[str]:
    """Labels of the full design's columns; without a spatial matrix the
    design lacks the first."""
    return (["spatial_lag", "const", "treated", "post", "treated_post"]
            + [f"c{k + 1}" for k in range(d)])


def _check_matrix(p: Panel, S: SpatialMatrix) -> None:
    """Refuse a spatial matrix sized for another panel, or one whose region
    ids, when it carries any, are not the panel's in the panel's order."""
    if S.n != p.n:
        raise InputValidationError(
            f"matrix is {S.n}x{S.n} but panel has {p.n} regions"
        )
    if S.region_ids and S.region_ids != p.region_ids:
        i, (ours, theirs) = next(
            (i, pair) for i, pair in enumerate(
                itertools.zip_longest(S.region_ids, p.region_ids))
            if pair[0] != pair[1])
        raise InputValidationError(
            f"matrix region {i} is {ours!r} but panel region {i} is "
            f"{theirs!r}; the matrix must list the panel's regions in order"
        )


def build_design_matrix(p: Panel, S: SpatialMatrix | None):
    """Stack one regression row per (region, time) cell with t >= 1.

    Columns: [spatial_lag(t-1), 1, treated, post, treated*post,
    covariates(t)], without the lag when ``S`` is None.  Returns
    (X, targets); row order is region-major (all of region 0's usable
    periods, then region 1's, ...), so ``X.reshape(N, T - 1, k)`` is the
    (region, period, column) view the IV stage slices.
    """
    if p.t < 2:
        raise InsufficientDataError(f"need T >= 2 time steps, got {p.t}")
    if S is not None:
        _check_matrix(p, S)

    n, t, d = p.n, p.t, p.d
    lagged = int(S is not None)
    X = np.empty((n, t - 1, lagged + 4 + d))
    if S is not None:
        X[:, :, 0] = spatial_lag(S, p.y)[:, : t - 1]    # lag[:, s] = S @ y[:, s]
    exog = X[:, :, lagged:]
    exog[:, :, 0] = 1.0
    exog[:, :, 1] = p.treated[:, None]
    exog[:, :, 2] = p.post[1:]
    exog[:, :, 3] = treatment(p.treated, p.post[1:])
    exog[:, :, 4:] = p.c[:, 1:]
    return X.reshape(n * (t - 1), -1), p.y[:, 1:].reshape(-1)


# ---------------------------------------------------------------------------
# Least-squares core
# ---------------------------------------------------------------------------

_COLLINEAR = ("singular normal equations; collinear columns: {} "
              "(constant treatment or post indicator?)")


def _with_workspace(routine, *args, **kwargs):
    """Call a LAPACK ``routine`` with the workspace its ``lwork=-1`` query
    asks for (the blocking depends on it); its outputs before work and
    info."""
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out


def _least_squares(X: np.ndarray, y: np.ndarray, labels: list[str],
                   rank_error: str = _COLLINEAR
                   ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Least squares of ``y`` on ``X`` from one pivoted QR:
    (beta, (R', piv)), the factor ``_bread`` turns into inv(X'X).

    LAPACK ``dgeqp3`` factors X[:, piv] = QR, ``dorgqr`` forms the
    economic Q and ``dtrtrs`` solves R beta = Q'y.  These are the calls
    ``scipy.linalg.qr(mode="economic", pivoting=True)`` and
    ``solve_triangular`` make, with the same queried workspace and the
    same transposed solve of their C-ordered R (R' lower, trans=1), so
    the bits are theirs without their wrappers' cost.  A non-finite
    input raises ``ValueError``.  An exactly rank-deficient ``X`` raises
    ``EstimationError`` with ``rank_error`` filled in with the dependent
    columns' ``labels``, before Q is formed; a near-singular one solves
    for beta with a tiny ridge on the normal equations, with a warning.
    ``TestWrappedScipyOracle`` pins the bits against scipy's wrappers.
    """
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("array must not contain infs or NaNs")
    qr, piv, tau = _with_workspace(dgeqp3, np.array(X, order="F"),
                                   overwrite_a=1)
    piv -= 1                            # LAPACK pivots are 1-based
    k = X.shape[1]
    diag = np.abs(np.diag(qr))
    rank = int(np.sum(diag > diag.max() * max(X.shape) * np.finfo(float).eps))
    if rank < k:
        bad = sorted(labels[j] for j in piv[rank:])
        raise EstimationError(rank_error.format(bad))
    factor = (np.triu(qr[:k]).T, piv)
    if diag.max() / diag.min() > _COND_LIMIT:
        warnings.warn(
            "design matrix nearly singular; solving with ridge "
            f"{_RIDGE:g} on the normal equations",
            RuntimeWarning,
        )
        return np.linalg.solve(X.T @ X + _RIDGE * np.eye(k), X.T @ y), factor
    q, = _with_workspace(dorgqr, qr, tau, overwrite_a=1)
    beta = np.empty(k)
    beta[piv] = _solve_r(factor[0], q.T @ y)
    return beta, factor


def _solve_r(rt: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b given R' (lower triangular)."""
    x, info = dtrtrs(rt, b, lower=1, trans=1)
    if info != 0:
        raise EstimationError(f"triangular solve failed (dtrtrs info {info})")
    return x


def _bread(factor) -> np.ndarray:
    """inv(X'X) in column order from ``_least_squares``'s factor: R^-1 R^-T
    un-permuted, so X'X is never formed or inverted."""
    rt, piv = factor
    k = len(piv)
    r_inv = _solve_r(rt, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return xtx_inv


# ---------------------------------------------------------------------------
# Two-stage estimation
# ---------------------------------------------------------------------------

def estimate_rho_iv(X: np.ndarray, targets: np.ndarray, S: SpatialMatrix,
                    p: Panel) -> tuple[float, float]:
    """Two-stage least-squares estimate of the spatial-lag coefficient.

    Instruments are the spatially lagged covariates S c[:, t-1] (none
    when D = 0) and the second-order spatial lag S^2 y[:, t-2]; both need
    two periods of history, so the IV stages run on the t >= 2 sub-rows
    of the design, sliced from its (region, period, column) view.  Stage
    1 only fits the lag; stage 2's bread gives the classical SE.

    Returns (rho_hat, rho_std_error).
    """
    if p.t < 3:
        raise InsufficientDataError(
            f"IV estimation needs T >= 3 time steps, got {p.t}"
        )
    n, t, d = p.n, p.t, p.d
    labels = design_column_labels(d)
    k = len(labels)
    if X.shape[1] != k:
        raise InputValidationError(
            f"design matrix has {X.shape[1]} columns, expected {k}"
        )

    sub = X.reshape(n, t - 1, k)[:, 1:]     # the s >= 2 cells
    rows = n * (t - 2)
    w = sub[:, :, 0].reshape(rows)      # endogenous spatial lag
    y_sub = targets.reshape(n, t - 1)[:, 1:].reshape(rows)

    # Instruments: the exogenous columns, S c(t-1) and S^2 y(t-2).
    h = np.empty((n, t - 2, k + d))
    h[:, :, : k - 1] = sub[:, :, 1:]
    for j in range(d):
        h[:, :, k - 1 + j] = spatial_lag(S, p.c[:, :, j])[:, 1 : t - 1]
    h[:, :, -1] = spatial_lag(S, spatial_lag(S, p.y))[:, : t - 2]
    h = h.reshape(rows, k + d)
    iv_labels = [f"S.c{j + 1}(t-1)" for j in range(d)] + ["S^2.y(t-2)"]

    # Stage 1: project the lag on the instruments.
    gamma1, _ = _least_squares(
        h, w, labels[1:] + iv_labels,
        "rank-deficient instrument matrix; columns: {}")

    # Stage 2: regress the target on the fitted lag plus exogenous columns.
    z_hat = np.empty((n, t - 2, k))
    z_hat[:, :, 0] = (h @ gamma1).reshape(n, t - 2)
    z_hat[:, :, 1:] = sub[:, :, 1:]
    z_hat = z_hat.reshape(rows, k)
    beta2sls, factor = _least_squares(z_hat, y_sub, labels)
    rho_hat = float(beta2sls[0])

    # Classical 2SLS covariance: residuals from the *actual* regressors.
    residuals = y_sub - sub.reshape(rows, k) @ beta2sls
    sigma2 = float(residuals @ residuals) / max(rows - k, 1)
    rho_se = float(np.sqrt(sigma2 * _bread(factor)[0, 0]))

    if abs(rho_hat) >= 1.0:
        raise NonstationarityError(
            f"IV stage produced |rho| = {abs(rho_hat):.4f} >= 1"
        )
    return rho_hat, rho_se


def _ols_estimate(X: np.ndarray, targets: np.ndarray, d: int, rho: float,
                  rho_se: float | None = None) -> DidEstimate:
    """OLS of ``targets`` on the exogenous design columns ``X`` (const on)
    with classical standard errors, tabled after the given lag
    coefficient and, when known, its standard error."""
    beta, factor = _least_squares(X, targets, design_column_labels(d)[1:])
    residuals = targets - X @ beta
    sigma2 = float(residuals @ residuals) / max(len(targets) - X.shape[1], 1)
    ses = np.sqrt(sigma2 * np.diag(_bread(factor)))
    rows = [(rho, rho_se), *zip(beta, ses)]
    return DidEstimate(dict(zip(coefficient_names(d), rows)), sigma2)


def estimate_ols_given_rho(X: np.ndarray, targets: np.ndarray, rho_hat: float,
                           d: int, rho_se: float | None = None) -> DidEstimate:
    """OLS for the remaining coefficients after fixing the lag coefficient.

    The spatial-lag contribution is moved to the left-hand side and the
    offset target regressed on [1, treated, post, treated*post, c].
    """
    labels = design_column_labels(d)
    if X.shape[1] != len(labels):
        raise InputValidationError(
            f"design matrix has {X.shape[1]} columns, expected {len(labels)}"
        )
    offset_targets = targets - rho_hat * X[:, 0]
    return _ols_estimate(X[:, 1:], offset_targets, d, rho_hat, rho_se)


@one_thread()
def fit_did(p: Panel, S: SpatialMatrix | None) -> DidEstimate:
    """Full estimation: design matrix, IV stage for the lag, then OLS.

    With ``S`` None there is no lag column and no IV stage (rho is fixed
    at 0); a panel with D = 0 has no covariate columns or instruments.
    """
    X, targets = build_design_matrix(p, S)
    if S is None:
        return _ols_estimate(X, targets, p.d, 0.0)
    rho_hat, rho_se = estimate_rho_iv(X, targets, S, p)
    return estimate_ols_given_rho(X, targets, rho_hat, p.d, rho_se=rho_se)


# ---------------------------------------------------------------------------
# Adjustment
# ---------------------------------------------------------------------------

@one_thread()
def adjust_panel(p: Panel, est: DidEstimate,
                 S: SpatialMatrix | None) -> AdjustedPanel:
    """Remove the estimated effect from treated post-period cells,
    y_tilde = y - delta_hat * treatment, then fold the contemporaneous
    spillover in, z = y_tilde + rho_hat * S y_tilde; with ``S`` None, z
    equals y_tilde (rho treated as 0)."""
    if S is not None:
        _check_matrix(p, S)
    y_tilde = p.y - est.delta * treatment(p.treated, p.post)
    z = y_tilde.copy() if S is None else y_tilde + est.rho * spatial_lag(S, y_tilde)
    return AdjustedPanel(y_tilde=y_tilde, z=z)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _spillover_flag(rho: float) -> str:
    if rho > STRONG_SPILLOVER:
        return "strong positive spatial correlation"
    if rho > 0.1:
        return "moderate positive spatial correlation"
    if rho >= -0.1:
        return "negligible spatial correlation"
    return "negative spatial correlation"


def _intervention_flag(delta: float) -> str:
    if delta < EFFECTIVE_TREATMENT:
        return "effective"
    if delta <= -EFFECTIVE_TREATMENT:
        return "limited effectiveness"
    return "adverse (positive effect estimate)"


def parameter_report(est: DidEstimate) -> str:
    """The text of parameter_report.txt: one line per table row with its
    standard error, the two qualitative flags and the residual variance."""
    lines = ["fitted causal parameters", "-" * 38]
    for name, (value, se) in est.table.items():
        se_txt = "" if se is None else f" (se {se:.6g})"
        lines.append(f"{name:>12s}: {value: .6g}{se_txt}")
    lines.append(f"{'spillover':>12s}: {_spillover_flag(est.rho)}")
    lines.append(f"{'intervention':>12s}: {_intervention_flag(est.delta)}")
    lines.append(f"{'residual var':>12s}: {est.residual_variance:.6g}")
    return "\n".join(lines) + "\n"
