import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stcast.errors import InputValidationError, PropagationError
from stcast.metrics import (
    ScoreReport,
    coverage,
    crps_from_samples,
    energy_score,
    mean_crps,
    quantile,
    quantile_exceedance,
    score_report,
    weighted_quantile_loss,
)

# Closed-form CRPS of a standard normal forecast at its mode,
# sigma * (2*phi(0) - 1/sqrt(pi)); value frozen from a 30-digit evaluation.
GAUSSIAN_CRPS_AT_MODE = 0.233694977255109


def per_cell_crps(samples, observed):
    """Reference: the per-cell loop the kernel replaced, np.dot over each
    cell's sorted 1-D copy."""
    samples = np.asarray(samples, dtype=float)
    observed = np.asarray(observed, dtype=float)
    n = samples.shape[-1]
    coeff = 2.0 * np.arange(n) - n + 1.0
    flat_s = samples.reshape(-1, n)
    out = []
    for k, obs in enumerate(observed.reshape(-1)):
        cell = flat_s[k].ravel()
        term1 = np.mean(np.abs(cell - obs))
        pairwise = 2.0 * np.dot(coeff, np.sort(cell))
        out.append(float(term1 - pairwise / (2.0 * n * n)))
    return out


def gaussian_crps(mu, sigma, x):
    """Closed-form oracle for a Gaussian predictive distribution."""
    z = (x - mu) / sigma
    return sigma * (z * (2 * stats.norm.cdf(z) - 1)
                    + 2 * stats.norm.pdf(z) - 1 / np.sqrt(np.pi))


class TestQuantile:
    def test_odd_median(self):
        assert quantile(np.array([1.0, 2, 3, 4, 5]), 0.5) == 3.0

    def test_endpoints(self):
        s = np.array([3.0, -1.0, 7.0])
        assert quantile(s, 0.0) == -1.0
        assert quantile(s, 1.0) == 7.0

    def test_type7_interpolation(self):
        # Type-7: h = (n-1)q + 1 = 2.5 for n=4, q=0.5 -> midpoint of
        # the 2nd and 3rd order statistics.
        assert quantile(np.array([1.0, 2, 3, 4]), 0.5) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(InputValidationError):
            quantile(np.array([]), 0.5)

    @pytest.mark.parametrize("n", [2, 3, 11, 100])
    def test_levels_stack_equal_to_single_levels(self, n):
        # score_report takes all its levels from one call; each must be
        # the single level's quantile, ties and all.  Only the sign of a
        # zero may differ (the partition orders tied -0.0 and 0.0
        # differently), which no comparison or |q - x| can see.
        rng = np.random.default_rng(n)
        s = np.round(rng.standard_t(3, size=(7, 5, n)), 1)
        levels = (0.0, 0.05, 0.1, 0.25, 0.45, 0.5, 0.55, 0.75, 0.9, 0.95, 1.0)
        stacked = quantile(s, levels)
        for level, got in zip(levels, stacked):
            assert np.array_equal(got, quantile(s, level)), level

    def test_level_outside_unit_interval_rejected(self):
        for q in (-0.1, 1.5, float("nan"), (0.5, 1.5)):
            with pytest.raises(InputValidationError, match="outside"):
                quantile(np.arange(4.0), q)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        q1=st.floats(0, 1), q2=st.floats(0, 1),
    )
    def test_monotone_in_q(self, values, q1, q2):
        s = np.array(values)
        lo, hi = sorted([q1, q2])
        assert quantile(s, lo) <= quantile(s, hi)


class TestCrps:
    def test_perfect_deterministic_forecast(self):
        assert crps_from_samples(np.full(8, 4.2), 4.2) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_hand_value(self):
        # (1/2)(0+1) - (1/8)(0+1+1+0) = 0.25
        assert crps_from_samples(np.array([0.0, 1.0]), 0.0) == pytest.approx(0.25)

    def test_gaussian_closed_form_oracle(self):
        rng = np.random.default_rng(314)
        samples = rng.standard_normal(100_000)
        est = crps_from_samples(samples, 0.0)
        assert est == pytest.approx(GAUSSIAN_CRPS_AT_MODE, abs=0.002)

    def test_sorted_formula_matches_double_loop(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=40)
        obs = 0.3
        n = len(samples)
        term1 = np.mean(np.abs(samples - obs))
        term2 = sum(abs(a - b) for a in samples for b in samples) / (2 * n * n)
        assert crps_from_samples(samples, obs) == pytest.approx(term1 - term2,
                                                                abs=1e-12)

    def test_point_mass_degeneracy(self):
        # n identical samples reduce the estimator to |sample - observed|.
        est = crps_from_samples(np.full(17, 2.5), 4.0)
        assert est == pytest.approx(1.5, abs=1e-12)

    def test_fewer_than_two_samples_rejected(self):
        with pytest.raises(InputValidationError):
            crps_from_samples(np.array([1.0]), 1.0)

    @pytest.mark.parametrize("n", [2, 37, 100])
    @pytest.mark.parametrize("layout", ["c-order", "forecaster", "sample-major"])
    def test_kernel_matches_per_cell_loop_bit_for_bit(self, n, layout):
        rng = np.random.default_rng(n)
        obs = rng.normal(size=(5, 4))
        if layout == "c-order":
            samples = rng.normal(size=(5, 4, n))
        elif layout == "forecaster":
            # (N, s, m) buffer handed back as an (N, m, s) view.
            samples = rng.normal(size=(5, n, 4)).transpose(0, 2, 1)
        else:
            samples = rng.normal(size=(n, 5, 4)).transpose(1, 2, 0)
        ref = per_cell_crps(samples, obs)
        got = crps_from_samples(samples, obs)
        assert got.shape == obs.shape
        assert got.ravel().tolist() == ref
        assert mean_crps(samples, obs) == float(np.mean(ref))
        one = crps_from_samples(samples[2, 1], obs[2, 1])
        assert type(one) is float
        assert one == per_cell_crps(samples[2, 1], obs[2, 1])[0]

    def test_nd_samples_need_per_cell_observations(self):
        # A scalar observation no longer pools an N-D ensemble into one cell.
        with pytest.raises(InputValidationError, match="align"):
            crps_from_samples(np.ones((3, 4)), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(shift=st.floats(-50, 50), scale=st.floats(0.01, 50))
    def test_translation_and_scale_equivariance(self, shift, scale):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=30)
        obs = 0.7
        base = crps_from_samples(samples, obs)
        shifted = crps_from_samples(samples + shift, obs + shift)
        scaled = crps_from_samples(samples * scale, obs * scale)
        assert shifted == pytest.approx(base, abs=1e-10)
        assert scaled == pytest.approx(scale * base, rel=1e-9)


class TestWeightedQuantileLoss:
    def test_exact_quantile_zero(self):
        obs = np.array([[1.0, 2.0], [3.0, 4.0]])
        samples = np.repeat(obs[:, :, None], 5, axis=2)
        assert weighted_quantile_loss(samples, obs, 0.5) == pytest.approx(0.0)

    def test_single_cell_hand_value(self):
        # x=10, q=12, tau=0.5: 2 * (0.5 * 2) / 10 = 0.2
        samples = np.full((1, 1, 3), 12.0)
        obs = np.array([[10.0]])
        assert weighted_quantile_loss(samples, obs, 0.5) == pytest.approx(0.2)

    def test_under_prediction_uses_tau_branch(self):
        # q below x at tau=0.9: penalty 0.9*|q-x| per the scalar oracle.
        samples = np.full((1, 1, 3), 7.0)
        obs = np.array([[10.0]])
        expected = 2 * (0.9 * 3.0) / 10.0
        assert weighted_quantile_loss(samples, obs, 0.9) == pytest.approx(expected)

    def test_all_zero_observations_rejected(self):
        samples = np.zeros((1, 2, 4))
        with pytest.raises(InputValidationError, match="zero"):
            weighted_quantile_loss(samples, np.zeros((1, 2)), 0.5)


class TestCoverage:
    def test_always_covered(self):
        samples = np.concatenate([np.full(5, -1e9), np.full(5, 1e9)])
        samples = np.tile(samples, (2, 3, 1))
        obs = np.zeros((2, 3))
        assert coverage(samples, obs, 0.5) == 1.0

    def test_never_covered(self):
        samples = np.random.default_rng(0).uniform(-2, -1, size=(2, 3, 20))
        obs = np.zeros((2, 3))
        assert coverage(samples, obs, 0.1) == 0.0

    def test_calibrated_gaussian_monte_carlo(self):
        rng = np.random.default_rng(77)
        cells = 10_000
        mu = rng.normal(0, 3, cells)
        sigma = rng.uniform(0.5, 2.0, cells)
        obs = rng.normal(mu, sigma).reshape(100, 100)
        samples = rng.normal(mu[:, None], sigma[:, None],
                             (cells, 400)).reshape(100, 100, 400)
        got = coverage(samples, obs, 0.1)
        assert got == pytest.approx(0.9, abs=0.02)

    def test_exceedance_convention(self):
        rng = np.random.default_rng(78)
        obs = rng.normal(size=(50, 40))
        samples = rng.normal(size=(50, 40, 300))
        got = quantile_exceedance(samples, obs, 0.1)
        assert got == pytest.approx(0.1, abs=0.02)


class TestEnergyScore:
    def test_perfect_paths(self):
        paths = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert energy_score(paths, np.array([1.0, 2.0, 3.0])) == pytest.approx(0.0)

    def test_two_path_hand_value(self):
        # (1/2)(0+2) - (1/8)(0+2+2+0) = 0.5
        paths = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert energy_score(paths, np.array([0.0, 0.0])) == pytest.approx(0.5)

    def test_reduces_to_crps_in_one_dimension(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=500)
        obs = 0.42
        es = energy_score(samples[:, None], np.array([obs]))
        assert es == pytest.approx(crps_from_samples(samples, obs), abs=1e-12)

    def test_propriety_smoke(self):
        # The truthful sampler must not score worse than a shifted one
        # on average.
        rng = np.random.default_rng(10)
        wins = 0
        trials = 500
        dim = 4
        for _ in range(trials):
            obs = rng.normal(size=dim)
            honest = rng.normal(size=(40, dim))
            shifted = rng.normal(size=(40, dim)) + 1.5
            wins += energy_score(honest, obs) <= energy_score(shifted, obs)
        assert wins / trials > 0.9

    def test_fewer_than_two_paths_rejected(self):
        with pytest.raises(InputValidationError):
            energy_score(np.ones((1, 3)), np.ones(3))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(12)
        paths = rng.normal(size=(60, 5))
        obs = rng.normal(size=5)
        base = energy_score(paths, obs)
        shifted = energy_score(paths + 3.0, obs + 3.0)
        scaled = energy_score(paths * 2.0, obs * 2.0)
        assert shifted == pytest.approx(base, abs=1e-10)
        assert scaled == pytest.approx(2.0 * base, rel=1e-9)


class TestScoreReport:
    def test_full_report_fields(self):
        rng = np.random.default_rng(3)
        obs = rng.normal(size=(4, 6))
        samples = obs[:, :, None] + rng.normal(0, 0.5, size=(4, 6, 50))
        report = score_report(samples, obs, region_ids=("a", "b", "c", "d"))
        assert report.crps >= 0.0
        assert report.energy >= 0.0
        assert set(report.wql) == {0.1, 0.5, 0.9}
        assert set(report.coverage_interval) == {0.1, 0.5, 0.9}
        assert all(0.0 <= v <= 1.0 for v in report.coverage_interval.values())
        assert all(0.0 <= v <= 1.0 for v in report.coverage_quantile.values())
        assert set(report.crps_per_region) == {"a", "b", "c", "d"}
        # Per-region CRPS values average to the pooled number.
        assert np.mean(list(report.crps_per_region.values())) == pytest.approx(
            report.crps, rel=1e-9)

    def test_scores_independent_of_memory_layout(self):
        # Forecasters fill (N, s, m) buffers and hand back a transposed
        # view; scoring it must give the bits that scoring the same
        # values read back from a C-ordered file gives.
        rng = np.random.default_rng(0)
        ids = ("a", "b", "c", "d")
        for _ in range(20):
            strided = rng.normal(size=(4, 30, 4)).transpose(0, 2, 1)
            obs = rng.normal(size=(4, 4))
            a = score_report(strided, obs, ids)
            b = score_report(np.ascontiguousarray(strided), obs, ids)
            assert a.rows() == b.rows()

    def test_repeated_region_id_rejected(self):
        # crps_per_region would keep one row for the two regions.
        rng = np.random.default_rng(1)
        obs = rng.normal(size=(3, 2))
        samples = obs[:, :, None] + rng.normal(size=(3, 2, 20))
        with pytest.raises(InputValidationError,
                           match=r"^duplicate region ids: \['a'\]$") as exc:
            score_report(samples, obs, ("a", "b", "a"))
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("ids", [("a", "b"), ("a", "b", "c", "d")])
    def test_region_id_count_must_match(self, ids):
        rng = np.random.default_rng(1)
        obs = rng.normal(size=(3, 2))
        samples = obs[:, :, None] + rng.normal(size=(3, 2, 20))
        with pytest.raises(InputValidationError, match=re.escape(
                f"{len(ids)} region ids for 3 regions")) as exc:
            score_report(samples, obs, ids)
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("m", [1, 5, 9, 130])
    def test_region_crps_matches_per_region_calls(self, m):
        # The per-region scores come from one all-cell pass; each must be
        # bit for bit the region's own mean_crps, strided ensembles and
        # horizons past numpy's 8-wide unrolled and 128-wide pairwise
        # blocks included.
        rng = np.random.default_rng(m)
        for k in range(40):
            n, s = int(rng.integers(1, 7)), int(rng.integers(2, 60))
            samples = rng.normal(size=(n, s, m)).transpose(0, 2, 1)
            if k % 2:
                samples = np.ascontiguousarray(samples)
            obs = rng.normal(size=(n, m))
            ids = tuple(f"r{i}" for i in range(n))
            report = score_report(samples, obs, ids)
            assert list(report.crps_per_region.values()) == [
                mean_crps(samples[i], obs[i]) for i in range(n)]

    def test_quantile_scores_match_per_level_calls(self):
        # Rounded samples tie, zeros of both signs included.
        rng = np.random.default_rng(8)
        obs = np.round(rng.normal(size=(9, 5)), 1)
        samples = np.round(obs[:, :, None] + rng.normal(size=(9, 5, 40)), 1)
        report = score_report(samples, obs, tuple("abcdefghi"))
        for t, value in report.wql.items():
            assert value == weighted_quantile_loss(samples, obs, t)
        for a, value in report.coverage_interval.items():
            assert value == coverage(samples, obs, a)
        for t, value in report.coverage_quantile.items():
            assert value == quantile_exceedance(samples, obs, t)

    def test_non_finite_score_raises(self):
        # Finite samples near 1e160 overflow the energy score's squared
        # norms while the CRPS stays finite.
        rng = np.random.default_rng(0)
        samples = 1e160 * rng.normal(size=(2, 3, 10))
        obs = 1e160 * rng.normal(size=(2, 3))
        assert np.isfinite(mean_crps(samples, obs))
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(PropagationError,
                               match=r"score 'energy' is non-finite \(nan\)"):
                score_report(samples, obs, ("a", "b"))

    def test_rows_layout(self):
        report = ScoreReport(
            crps=0.5, wql={0.5: 0.1}, coverage_interval={0.1: 0.93},
            coverage_quantile={0.5: 0.44}, energy=1.2,
        )
        rows = report.rows()
        assert ("crps", "", 0.5) in rows
        assert ("wql", "0.5", 0.1) in rows
        assert ("coverage_interval", "0.1", 0.93) in rows
        assert ("energy", "", 1.2) in rows

    def test_mean_crps_alignment_check(self):
        with pytest.raises(InputValidationError):
            mean_crps(np.zeros((2, 3, 4)), np.zeros((3, 2)))


@pytest.mark.parametrize("score", [
    mean_crps,
    lambda s, o: weighted_quantile_loss(s, o, 0.5),
    lambda s, o: coverage(s, o, 0.1),
    lambda s, o: quantile_exceedance(s, o, 0.5),
], ids=["crps", "wql", "coverage", "quantile_exceedance"])
@pytest.mark.parametrize("cut", [lambda o: o[0], lambda o: o[:, :1]],
                         ids=["first-row", "first-column"])
def test_misaligned_observations_rejected(score, cut):
    # Every score pairs samples[..., :] with observed[...] cell by cell;
    # observations that would broadcast against the quantiles are refused.
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(4, 3, 50))
    observed = rng.normal(size=(4, 3)) + 1.0
    with pytest.raises(InputValidationError, match="align"):
        score(samples, cut(observed))
