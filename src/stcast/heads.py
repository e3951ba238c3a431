"""Output distribution heads: link functions, log-likelihoods, gradients.

Raw head outputs map to valid parameters through smooth links (softplus
keeps the scale positive with a small floor; degrees of freedom sit at
2 + softplus, floored at the next float above 2, so the variance always
exists).  Each family's exact negative log-density and its gradient
w.r.t. (mu, sigma[, nu]) come from one pass over its shared terms; the
trainer's backward pass chains that gradient through the links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .errors import InputValidationError
from .gru import sigmoid

FAMILIES = ("gaussian", "laplace", "student_t")
PARAM_ARITY = {"gaussian": 2, "laplace": 2, "student_t": 3}

SIGMA_FLOOR = 1e-6
# 2 + softplus(raw) rounds to exactly 2.0 for raw below about -36.7.
NU_FLOOR = np.nextafter(2.0, 3.0)

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def softplus(x):
    return np.logaddexp(0.0, x)


@dataclass(frozen=True)
class DistributionParams:
    """Validated location/scale (and tail) parameters."""

    family: str
    mu: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputValidationError(f"unknown family {self.family!r}")
        if np.any(np.asarray(self.sigma) <= 0):
            raise InputValidationError("sigma must be strictly positive")
        if self.family == "student_t":
            if self.nu is None or np.any(np.asarray(self.nu) <= 2):
                raise InputValidationError("student_t needs nu > 2")


def project_raw(raw: np.ndarray, family: str) -> DistributionParams:
    """Map raw affine outputs (..., arity) to distribution parameters:
    mu = raw0, sigma = softplus(raw1) + floor,
    nu = max(2 + softplus(raw2), NU_FLOOR)."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-1] != PARAM_ARITY[family]:
        raise InputValidationError(
            f"{family} head expects {PARAM_ARITY[family]} raw outputs, "
            f"got {raw.shape[-1]}"
        )
    mu = raw[..., 0]
    sigma = softplus(raw[..., 1]) + SIGMA_FLOOR
    nu = (np.maximum(2.0 + softplus(raw[..., 2]), NU_FLOOR)
          if family == "student_t" else None)
    return DistributionParams(family=family, mu=mu, sigma=sigma, nu=nu)


# ---------------------------------------------------------------------------
# Negative log-likelihoods
# ---------------------------------------------------------------------------

def _nll_pass(params: DistributionParams, y):
    """Elementwise NLL and its gradients w.r.t. (mu, sigma[, nu]), as
    (values, dmu, dsigma, dnu); each family's shared terms formed once."""
    y = np.asarray(y, dtype=float)
    mu, sigma = params.mu, params.sigma
    if params.family == "laplace":
        r = np.abs(y - mu) / sigma
        return (np.log(2.0 * sigma) + r, -np.sign(y - mu) / sigma,
                (1.0 - r) / sigma, None)
    z = (y - mu) / sigma
    if params.family == "gaussian":
        return (_HALF_LOG_2PI + np.log(sigma) + 0.5 * z * z, -z / sigma,
                (1.0 - z * z) / sigma, None)
    nu = params.nu
    half_nu, half_nu1 = nu / 2.0, (nu + 1.0) / 2.0
    q = 1.0 + z * z / nu
    log_q = np.log(q)
    common = (nu + 1.0) * z / (nu * q)
    values = (-gammaln(half_nu1) + gammaln(half_nu)
              + 0.5 * np.log(np.pi * nu) + np.log(sigma) + half_nu1 * log_q)
    dnu = (0.5 * (digamma(half_nu) - digamma(half_nu1)) + 0.5 / nu
           + 0.5 * log_q - half_nu1 * z * z / (nu * nu * q))
    return values, -common / sigma, (1.0 - common * z) / sigma, dnu


def nll(params: DistributionParams, y) -> np.ndarray:
    """Elementwise negative log-density of y under the parameters."""
    return _nll_pass(params, y)[0]


def nll_and_raw_grad(raw: np.ndarray, y, family: str):
    """NLL plus its gradient w.r.t. the raw head outputs (chain through
    the links).  Returns (nll_values, d_raw)."""
    raw = np.asarray(raw, dtype=float)
    values, dmu, dsigma, dnu = _nll_pass(project_raw(raw, family), y)
    d_raw = np.empty_like(raw)
    d_raw[..., 0] = dmu
    d_raw[..., 1] = dsigma * sigmoid(raw[..., 1])   # d sigma / d raw1
    if family == "student_t":
        d_raw[..., 2] = dnu * sigmoid(raw[..., 2])  # d nu / d raw2
    return values, d_raw


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample(params: DistributionParams, rng: np.random.Generator) -> np.ndarray:
    """One draw per parameter element."""
    mu = np.asarray(params.mu, dtype=float)
    sigma = np.asarray(params.sigma, dtype=float)
    if params.family == "gaussian":
        return rng.normal(mu, sigma)
    if params.family == "laplace":
        return rng.laplace(mu, sigma)
    return mu + sigma * rng.standard_t(np.asarray(params.nu, dtype=float))
