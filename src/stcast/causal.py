"""Spatially-augmented difference-in-differences estimation and adjustment.

The regression is

    y[i,t] = rho * sum_j S[i,j] y[j,t-1]
             + beta0 + beta1*treated[i] + beta2*post[t]
             + delta*(treated[i]*post[t]) + gamma . c[i,t] + eps[i,t]

fitted in two stages: the coefficient on the (endogenous) spatial lag is
estimated first by two-stage least squares, then the remaining
coefficients by ordinary least squares with the spatial-lag contribution
moved to the left-hand side.  ``causal_adjust`` removes the estimated
treatment effect from treated post-period cells and
``build_adjusted_input`` folds the spatial spillover back in to produce
the forecaster's conditioning series.

Each ablation is a property of the inputs, not a flag: a spatial matrix
of ``None`` drops the lag term (no IV stage, rho = 0, z = y_tilde), and a
panel with D = 0 covariate columns drops the gamma term.
"""

from __future__ import annotations

import datetime as dt
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    EstimationError,
    InputValidationError,
    InsufficientDataError,
    NonstationarityError,
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
    Times must be strictly increasing and evenly spaced; missing values
    are rejected.
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


@dataclass(frozen=True)
class DidEstimate:
    """Fitted regression coefficients with classical standard errors.

    ``standard_errors`` maps coefficient names (rho, beta0, beta1, beta2,
    delta, gamma1..gammaD) to their standard errors; rho is absent when
    the fit had no spatial matrix.
    """

    rho: float
    beta0: float
    beta1: float
    beta2: float
    delta: float
    gamma: np.ndarray
    residual_variance: float
    standard_errors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", g)
        g.setflags(write=False)
        if abs(self.rho) >= 1.0:
            raise NonstationarityError(
                f"|rho| = {abs(self.rho):.4f} >= 1: spatial autoregression "
                "is nonstationary"
            )
        if self.residual_variance > 0:
            bad = [k for k, v in self.standard_errors.items() if not v > 0]
            if bad:
                raise InputValidationError(
                    f"standard errors must be positive, offending: {bad}"
                )

    def coefficient_names(self) -> list[str]:
        return ["rho", "beta0", "beta1", "beta2", "delta"] + [
            f"gamma{k + 1}" for k in range(len(self.gamma))
        ]

    def coefficient_values(self) -> list[float]:
        return [self.rho, self.beta0, self.beta1, self.beta2, self.delta] + [
            float(g) for g in self.gamma
        ]


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

# Design column label -> DidEstimate coefficient name; the covariate
# columns c1..cD map to gamma1..gammaD.
_COEFFICIENT_NAMES = {"const": "beta0", "treated": "beta1", "post": "beta2",
                      "treated_post": "delta"}


def design_column_labels(d: int) -> list[str]:
    """Labels of the full design's columns; without a spatial matrix the
    design lacks the first."""
    return (["spatial_lag", "const", "treated", "post", "treated_post"]
            + [f"c{k + 1}" for k in range(d)])


def build_design_matrix(p: Panel, S: SpatialMatrix | None):
    """Stack one regression row per (region, time) cell with t >= 1.

    Columns: [spatial_lag(t-1), 1, treated, post, treated*post,
    covariates(t)], without the lag when ``S`` is None.  Returns
    (X, targets); row order is region-major (all of region 0's usable
    periods, then region 1's, ...).
    """
    if p.t < 2:
        raise InsufficientDataError(f"need T >= 2 time steps, got {p.t}")
    if S is not None and S.n != p.n:
        raise InputValidationError(
            f"matrix is {S.n}x{S.n} but panel has {p.n} regions"
        )

    n, t, d = p.n, p.t, p.d
    rows = n * (t - 1)
    cols = []
    if S is not None:
        lag = spatial_lag(S, p.y)           # lag[:, s] = S @ y[:, s]
        cols.append(lag[:, : t - 1].reshape(rows))
    cols.append(np.ones(rows))
    cols.append(np.repeat(p.treated, t - 1))
    cols.append(np.tile(p.post[1:], n))
    cols.append(np.repeat(p.treated, t - 1) * np.tile(p.post[1:], n))
    cols += [p.c[:, 1:, k].reshape(rows) for k in range(d)]
    X = np.column_stack(cols)
    targets = p.y[:, 1:].reshape(rows)
    return X, targets


# ---------------------------------------------------------------------------
# Least-squares core
# ---------------------------------------------------------------------------

_COLLINEAR = ("singular normal equations; collinear columns: {} "
              "(constant treatment or post indicator?)")


def _least_squares(X: np.ndarray, y: np.ndarray, labels: list[str],
                   rank_error: str = _COLLINEAR) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of ``y`` on ``X`` from one pivoted QR: (beta, inv(X'X)).

    With X[:, piv] = QR, beta solves R beta = Q'y and inv(X'X) is
    R^-1 R^-T un-permuted, so X'X is never formed or inverted.  An exactly
    rank-deficient ``X`` raises ``EstimationError`` with ``rank_error``
    filled in with the dependent columns' ``labels``; a near-singular one
    solves for beta with a tiny ridge on the normal equations, with a
    warning.
    """
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    k = X.shape[1]
    rank = int(np.sum(diag > diag.max() * max(X.shape) * np.finfo(float).eps))
    if rank < k:
        bad = sorted(labels[j] for j in piv[rank:])
        raise EstimationError(rank_error.format(bad))
    r_inv = scipy.linalg.solve_triangular(r, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    if diag.max() / diag.min() > _COND_LIMIT:
        warnings.warn(
            "design matrix nearly singular; solving with ridge "
            f"{_RIDGE:g} on the normal equations",
            RuntimeWarning,
        )
        return np.linalg.solve(X.T @ X + _RIDGE * np.eye(k), X.T @ y), xtx_inv
    beta = np.empty(k)
    beta[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
    return beta, xtx_inv


# ---------------------------------------------------------------------------
# Two-stage estimation
# ---------------------------------------------------------------------------

def estimate_rho_iv(X: np.ndarray, targets: np.ndarray, S: SpatialMatrix,
                    p: Panel) -> tuple[float, float]:
    """Two-stage least-squares estimate of the spatial-lag coefficient.

    Instruments are the spatially lagged covariates S c[:, t-1] (none
    when D = 0) and the second-order spatial lag S^2 y[:, t-2]; both need
    two periods of history, so the IV stages run on the t >= 2 sub-rows
    of the design.

    Returns (rho_hat, rho_std_error).
    """
    if p.t < 3:
        raise InsufficientDataError(
            f"IV estimation needs T >= 3 time steps, got {p.t}"
        )
    n, t = p.n, p.t
    labels = design_column_labels(p.d)
    if X.shape[1] != len(labels):
        raise InputValidationError(
            f"design matrix has {X.shape[1]} columns, expected {len(labels)}"
        )

    # Row (i, s) of the t>=1 design sits at i*(t-1) + (s-1); keep s >= 2.
    keep = np.concatenate([
        i * (t - 1) + np.arange(1, t - 1) for i in range(n)
    ])
    w = X[keep, 0]                      # endogenous spatial lag
    exog = X[keep, 1:]
    y_sub = targets[keep]

    iv_cols = [spatial_lag(S, p.c[:, :, k])[:, 1 : t - 1].reshape(-1)
               for k in range(p.d)]
    iv_labels = [f"S.c{k + 1}(t-1)" for k in range(p.d)]
    lag2_y = spatial_lag(S, spatial_lag(S, p.y))
    iv_cols.append(lag2_y[:, : t - 2].reshape(-1))
    iv_labels.append("S^2.y(t-2)")

    exog_labels = labels[1:]
    h = np.column_stack([exog] + iv_cols)

    # Stage 1: project the lag on the instruments.
    gamma1, _ = _least_squares(
        h, w, exog_labels + iv_labels,
        "rank-deficient instrument matrix; columns: {}")
    w_hat = h @ gamma1

    # Stage 2: regress the target on the fitted lag plus exogenous columns.
    z_hat = np.column_stack([w_hat, exog])
    beta2sls, xtx_inv = _least_squares(z_hat, y_sub,
                                       ["spatial_lag"] + exog_labels)
    rho_hat = float(beta2sls[0])

    # Classical 2SLS covariance: residuals from the *actual* regressors.
    z_actual = np.column_stack([w, exog])
    residuals = y_sub - z_actual @ beta2sls
    sigma2 = float(residuals @ residuals) / max(len(y_sub) - z_hat.shape[1], 1)
    rho_se = float(np.sqrt(sigma2 * xtx_inv[0, 0]))

    if abs(rho_hat) >= 1.0:
        raise NonstationarityError(
            f"IV stage produced |rho| = {abs(rho_hat):.4f} >= 1"
        )
    return rho_hat, rho_se


def _ols_estimate(X: np.ndarray, targets: np.ndarray, labels: list[str],
                  rho: float, rho_se: float | None = None) -> DidEstimate:
    """OLS of ``targets`` on the exogenous columns ``X`` (``labels``, from
    const on) with classical standard errors, packed with the given lag
    coefficient and, when known, its standard error."""
    beta, xtx_inv = _least_squares(X, targets, labels)
    residuals = targets - X @ beta
    sigma2 = float(residuals @ residuals) / max(len(targets) - X.shape[1], 1)
    ses = np.sqrt(sigma2 * np.diag(xtx_inv))
    standard_errors = {
        _COEFFICIENT_NAMES.get(label, "gamma" + label[1:]): float(se)
        for label, se in zip(labels, ses)
    }
    if rho_se is not None:
        standard_errors["rho"] = float(rho_se)
    return DidEstimate(
        rho=float(rho),
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        beta2=float(beta[2]),
        delta=float(beta[3]),
        gamma=beta[4:],
        residual_variance=sigma2,
        standard_errors=standard_errors,
    )


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
    return _ols_estimate(X[:, 1:], offset_targets, labels[1:], rho_hat, rho_se)


def fit_did(p: Panel, S: SpatialMatrix | None) -> DidEstimate:
    """Full estimation: design matrix, IV stage for the lag, then OLS.

    With ``S`` None there is no lag column and no IV stage (rho is fixed
    at 0); a panel with D = 0 has no covariate columns or instruments.
    """
    X, targets = build_design_matrix(p, S)
    if S is None:
        return _ols_estimate(X, targets, design_column_labels(p.d)[1:], 0.0)
    rho_hat, rho_se = estimate_rho_iv(X, targets, S, p)
    return estimate_ols_given_rho(X, targets, rho_hat, p.d, rho_se=rho_se)


# ---------------------------------------------------------------------------
# Adjustment
# ---------------------------------------------------------------------------

def causal_adjust(p: Panel, est: DidEstimate) -> np.ndarray:
    """Remove the estimated treatment effect from treated post-period cells:
    y_tilde[i,t] = y[i,t] - delta_hat * treated[i] * post[t]."""
    return p.y - est.delta * np.outer(p.treated, p.post)


def build_adjusted_input(y_tilde: np.ndarray, S: SpatialMatrix,
                         rho_hat: float) -> np.ndarray:
    """Contemporaneous spillover fold-in:
    z[i,t] = y_tilde[i,t] + rho_hat * sum_j S[i,j] y_tilde[j,t]."""
    y_tilde = np.asarray(y_tilde, dtype=float)
    return y_tilde + rho_hat * spatial_lag(S, y_tilde)


def adjust_panel(p: Panel, est: DidEstimate,
                 S: SpatialMatrix | None) -> AdjustedPanel:
    """Both adjustment steps; with ``S`` None the input equals the
    adjusted target (rho treated as 0)."""
    y_tilde = causal_adjust(p, est)
    z = y_tilde.copy() if S is None else build_adjusted_input(y_tilde, S, est.rho)
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


@dataclass(frozen=True)
class ParameterReport:
    """Interpretable summary of a fitted estimate."""

    estimate: DidEstimate
    spillover_flag: str
    intervention_flag: str

    def rows(self) -> list[tuple[str, float, float | None]]:
        """(coefficient, estimate, std_error|None) rows for CSV export."""
        out = []
        for name, value in zip(self.estimate.coefficient_names(),
                               self.estimate.coefficient_values()):
            out.append((name, value, self.estimate.standard_errors.get(name)))
        return out

    def text(self) -> str:
        lines = ["fitted causal parameters", "-" * 38]
        for name, value, se in self.rows():
            se_txt = f" (se {se:.6g})" if se is not None else ""
            lines.append(f"{name:>12s}: {value: .6g}{se_txt}")
        lines.append(f"{'spillover':>12s}: {self.spillover_flag}")
        lines.append(f"{'intervention':>12s}: {self.intervention_flag}")
        lines.append(
            f"{'residual var':>12s}: {self.estimate.residual_variance:.6g}"
        )
        return "\n".join(lines) + "\n"


def report_parameters(est: DidEstimate) -> ParameterReport:
    """Qualitative flags plus per-coefficient estimates/standard errors."""
    return ParameterReport(
        estimate=est,
        spillover_flag=_spillover_flag(est.rho),
        intervention_flag=_intervention_flag(est.delta),
    )
