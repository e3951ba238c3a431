import numpy as np
import pytest
from scipy import integrate
from scipy.special import digamma, gammaln

from stcast.errors import InputValidationError
from stcast.heads import (
    PARAM_ARITY,
    SIGMA_FLOOR,
    DistributionParams,
    nll,
    nll_and_raw_grad,
    project_raw,
    sample,
    softplus,
)

# Frozen from a 30-digit direct evaluation of the t log-density
# (log-Gamma terms included) before this module was written.
STUDENT_T_NLL_ORACLE = 1.8421474741728342   # nu=5, mu=0, sigma=1, y=1.3

HALF_LOG_2PI = 0.9189385332046728


def params_for(family, mu=0.0, sigma=1.0, nu=5.0):
    return DistributionParams(
        family=family,
        mu=np.asarray(mu, dtype=float),
        sigma=np.asarray(sigma, dtype=float),
        nu=np.asarray(nu, dtype=float) if family == "student_t" else None,
    )


class TestProjection:
    def test_zero_raw_gaussian(self):
        p = project_raw(np.zeros(2), "gaussian")
        assert p.mu == 0.0
        assert p.sigma == pytest.approx(np.log(2.0) + SIGMA_FLOOR, abs=1e-12)

    def test_links_enforce_ranges(self):
        rng = np.random.default_rng(0)
        for family in PARAM_ARITY:
            raw = rng.normal(0, 10, size=(100, PARAM_ARITY[family]))
            p = project_raw(raw, family)
            assert np.all(p.sigma > 0)
            if family == "student_t":
                assert np.all(p.nu > 2)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=3)
        p = project_raw(raw, "student_t")
        assert p.mu == pytest.approx(raw[0], abs=1e-12)
        assert p.sigma == pytest.approx(
            np.log1p(np.exp(raw[1])) + 1e-6, abs=1e-12)
        assert p.nu == pytest.approx(2.0 + np.log1p(np.exp(raw[2])), abs=1e-12)

    @pytest.mark.parametrize("raw_nu", [-40.0, -800.0])
    def test_very_negative_raw_nu_stays_valid(self, raw_nu):
        # 2 + softplus(raw) rounds to exactly 2.0 here; nu must stay > 2,
        # and the training gradient must be finite.
        raw = np.array([[0.0, 0.0, raw_nu]])
        p = project_raw(raw, "student_t")
        assert p.nu[0] == np.nextafter(2.0, 3.0)
        values, d_raw = nll_and_raw_grad(raw, np.array([0.5]), "student_t")
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(d_raw))

    def test_nu_above_two_keeps_its_bits(self):
        raw = np.array([-36.0, -30.0, -5.0, 0.0, 3.0, 40.0])
        nu = project_raw(np.stack([raw, raw, raw], axis=1), "student_t").nu
        assert np.array_equal(nu, 2.0 + softplus(raw))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InputValidationError):
            project_raw(np.zeros(2), "student_t")

    def test_invalid_params_rejected(self):
        with pytest.raises(InputValidationError):
            params_for("gaussian", sigma=0.0)
        with pytest.raises(InputValidationError):
            params_for("student_t", nu=2.0)


class TestNllValues:
    def test_gaussian_at_mode(self):
        value = nll(params_for("gaussian", mu=1.7, sigma=1.0), 1.7)
        assert value == pytest.approx(HALF_LOG_2PI, abs=1e-9)

    def test_laplace_at_mode_half_scale(self):
        # Density at the mode is 1/(2*0.5) = 1, so the NLL is 0.
        value = nll(params_for("laplace", mu=-0.3, sigma=0.5), -0.3)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_student_t_oracle_value(self):
        value = nll(params_for("student_t", nu=5.0), 1.3)
        assert value == pytest.approx(STUDENT_T_NLL_ORACLE, abs=1e-12)

    def test_student_t_gaussian_limit(self):
        rng = np.random.default_rng(2)
        for y in rng.normal(0, 2, size=20):
            t_val = nll(params_for("student_t", mu=0.4, sigma=1.3, nu=1e6), y)
            g_val = nll(params_for("gaussian", mu=0.4, sigma=1.3), y)
            assert abs(t_val - g_val) < 1e-3

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "student_t"])
    def test_density_normalization_by_quadrature(self, family):
        rng = np.random.default_rng(3)
        for _ in range(4):
            mu = float(rng.normal(0, 2))
            sigma = float(rng.uniform(0.3, 2.5))
            nu = float(rng.uniform(2.2, 20.0))
            p = params_for(family, mu=mu, sigma=sigma, nu=nu)

            def density(y):
                return float(np.exp(-nll(p, y)))

            left, _ = integrate.quad(density, -np.inf, mu, limit=200)
            right, _ = integrate.quad(density, mu, np.inf, limit=200)
            assert left + right == pytest.approx(1.0, abs=1e-4)


class TestNllGradients:
    @pytest.mark.parametrize("family", ["gaussian", "laplace", "student_t"])
    def test_raw_gradient_matches_finite_differences(self, family):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=PARAM_ARITY[family])
        y = float(rng.normal(0, 2))
        _, grad = nll_and_raw_grad(raw, y, family)
        for k in range(raw.size):
            step = np.zeros_like(raw)
            step[k] = 1e-6
            up, _ = nll_and_raw_grad(raw + step, y, family)
            dn, _ = nll_and_raw_grad(raw - step, y, family)
            fd = (up - dn) / 2e-6
            assert grad[k] == pytest.approx(float(fd), rel=1e-5, abs=1e-8)


def _frozen_nll_and_raw_grad(raw, y, family):
    """The head's NLL and raw gradient as first written: links, then the
    NLL and the parameter gradients as two separate passes, then the
    chain through the links, each expression in its original operand
    order.  Frozen here so a rewrite of the head must keep its bits."""
    raw = np.asarray(raw, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = raw[..., 0]
    sigma = np.logaddexp(0.0, raw[..., 1]) + 1e-6
    nu = (np.maximum(2.0 + np.logaddexp(0.0, raw[..., 2]),
                     np.nextafter(2.0, 3.0))
          if family == "student_t" else None)
    if family == "gaussian":
        z = (y - mu) / sigma
        values = 0.5 * np.log(2.0 * np.pi) + np.log(sigma) + 0.5 * z * z
        z = (y - mu) / sigma
        dmu = -z / sigma
        dsigma = (1.0 - z * z) / sigma
        dnu = None
    elif family == "laplace":
        values = np.log(2.0 * sigma) + np.abs(y - mu) / sigma
        sgn = np.sign(y - mu)
        dmu = -sgn / sigma
        dsigma = (1.0 - np.abs(y - mu) / sigma) / sigma
        dnu = None
    else:
        z = (y - mu) / sigma
        q = 1.0 + z * z / nu
        values = (-gammaln((nu + 1.0) / 2.0) + gammaln(nu / 2.0)
                  + 0.5 * np.log(np.pi * nu) + np.log(sigma)
                  + (nu + 1.0) / 2.0 * np.log(q))
        z = (y - mu) / sigma
        q = 1.0 + z * z / nu
        common = (nu + 1.0) * z / (nu * q)
        dmu = -common / sigma
        dsigma = (1.0 - common * z) / sigma
        dnu = (0.5 * (digamma(nu / 2.0) - digamma((nu + 1.0) / 2.0))
               + 0.5 / nu + 0.5 * np.log(q)
               - (nu + 1.0) / 2.0 * z * z / (nu * nu * q))

    def link_slope(x):   # sigmoid: negate, exp, add 1, reciprocal
        return np.reciprocal(np.exp(np.negative(x)) + 1.0)

    d_raw = np.empty_like(raw)
    d_raw[..., 0] = dmu
    d_raw[..., 1] = dsigma * link_slope(raw[..., 1])
    if family == "student_t":
        d_raw[..., 2] = dnu * link_slope(raw[..., 2])
    return values, d_raw


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNllBits:
    """nll and nll_and_raw_grad keep the bits of the frozen expressions."""

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "student_t"])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
    def test_batches_match_frozen_expressions(self, family, scale):
        rng = np.random.default_rng(int(scale * 10))
        raw = rng.normal(0.0, scale, size=(7, 11, PARAM_ARITY[family]))
        y = rng.normal(0.0, 3.0, size=(7, 11))
        y[0] = raw[0, :, 0] + 1e6 * scale     # far in the right tail
        y[1] = raw[1, :, 0] - 1e6 * scale     # far in the left tail
        y[2] = raw[2, :, 0]                   # at the location
        if family == "student_t":
            raw[3, :3, 2] = [-40.0, -800.0, 800.0]
        with np.errstate(all="ignore"):
            want_values, want_grad = _frozen_nll_and_raw_grad(raw, y, family)
            values, d_raw = nll_and_raw_grad(raw, y, family)
            direct = nll(project_raw(raw, family), y)
        assert _same_bits(values, want_values)
        assert _same_bits(d_raw, want_grad)
        assert _same_bits(direct, want_values)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "student_t"])
    @pytest.mark.parametrize("raw_value", [-800.0, -40.0, -0.1, 0.0, 1.0,
                                           37.0, 800.0])
    @pytest.mark.parametrize("y", [-1e8, -2.5, 0.0, 0.3, 1e8])
    def test_scalars_match_frozen_expressions(self, family, raw_value, y):
        raw = np.full(PARAM_ARITY[family], raw_value)
        raw[0] = 0.25
        with np.errstate(all="ignore"):
            want_values, want_grad = _frozen_nll_and_raw_grad(raw, y, family)
            values, d_raw = nll_and_raw_grad(raw, y, family)
            direct = nll(project_raw(raw, family), y)
        assert _same_bits(values, want_values)
        assert _same_bits(d_raw, want_grad)
        assert _same_bits(direct, want_values)


class TestSampling:
    def test_moments_match_parameters(self):
        rng = np.random.default_rng(5)
        n = 200_000
        p = params_for("gaussian", mu=2.0, sigma=1.5)
        draws = sample(
            DistributionParams("gaussian", np.full(n, 2.0), np.full(n, 1.5)),
            rng,
        )
        assert draws.mean() == pytest.approx(2.0, abs=3 * 1.5 / np.sqrt(n))
        assert draws.var() == pytest.approx(
            1.5**2, abs=3 * 1.5**2 * np.sqrt(2 / n))
        assert p.sigma == 1.5

    def test_student_t_heavier_tails_than_gaussian(self):
        rng = np.random.default_rng(6)
        n = 100_000
        t_draws = sample(DistributionParams(
            "student_t", np.zeros(n), np.ones(n), np.full(n, 3.0)), rng)
        g_draws = sample(DistributionParams(
            "gaussian", np.zeros(n), np.ones(n)), rng)
        assert np.mean(np.abs(t_draws) > 4) > np.mean(np.abs(g_draws) > 4)

    def test_softplus_stability(self):
        assert softplus(800.0) == 800.0
        assert softplus(-800.0) == 0.0
        assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)
