import copy
import datetime as dt
import itertools
import pickle
import re
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from stcast import _blas, causal, dataio
from stcast.causal import (
    DidEstimate,
    Panel,
    adjust_panel,
    build_design_matrix,
    coefficient_names,
    design_column_labels,
    estimate_ols_given_rho,
    estimate_rho_iv,
    fit_did,
    parameter_report,
)
from stcast.config import RunConfig
from stcast.errors import (
    EstimationError,
    InputValidationError,
    InsufficientDataError,
    NonstationarityError,
)
from stcast.pipeline import estimate
from stcast.spatial import (RegionSet, SpatialMatrix, build_spatial_matrix,
                            spatial_lag)
from stcast.synth import GeneratorSpec, generate

from conftest import coefficients, gammas, make_panel


def _without_factors(panel):
    """The panel with its covariate columns dropped (D = 0)."""
    return replace(panel, c=panel.c[:, :, :0])


def _estimate(gamma=(1.0, -0.5), rho=0.3, delta=-2.0, se=0.1):
    values = (rho, 1.0, 0.5, -0.2, delta, *gamma)
    return DidEstimate({name: (value, se) for name, value
                        in zip(coefficient_names(len(gamma)), values)}, 0.01)


class TestPanelValidation:
    def test_uneven_dates_rejected(self):
        times = (dt.date(2021, 1, 1), dt.date(2021, 1, 2), dt.date(2021, 1, 5))
        with pytest.raises(InputValidationError, match="evenly spaced"):
            Panel(region_ids=("a", "b"), times=times,
                  y=np.zeros((2, 3)), c=np.zeros((2, 3, 1)),
                  treated=np.array([1.0, 0.0]), post=np.array([0.0, 0.0, 1.0]))

    def test_non_step_post_rejected(self):
        with pytest.raises(InputValidationError, match="step"):
            make_panel(np.zeros((2, 4)), post=np.array([0.0, 1.0, 0.0, 1.0]))

    def test_nan_rejected(self):
        y = np.zeros((2, 4))
        y[1, 2] = np.nan
        with pytest.raises(InputValidationError, match="non-finite"):
            make_panel(y)

    def test_repeated_region_id_rejected(self):
        # A repeated id would make two rows one region for every reader
        # keyed by id.
        with pytest.raises(InputValidationError,
                           match=r"^duplicate region ids: \['a'\]$") as exc:
            Panel(region_ids=("a", "a"), times=(dt.date(2021, 1, 1),),
                  y=np.zeros((2, 1)), c=np.zeros((2, 1, 0)),
                  treated=np.array([1.0, 0.0]), post=np.array([0.0]))
        assert exc.value.exit_code == 2


class TestDidEstimateType:
    def test_nonstationary_rho_rejected(self):
        with pytest.raises(NonstationarityError):
            _estimate(rho=1.0)

    def test_nonpositive_se_rejected(self):
        table = {**_estimate(gamma=(0.0,)).table, "delta": (0.0, 0.0)}
        with pytest.raises(InputValidationError, match=re.escape(
                "standard error of 'delta' must be positive, got 0.0")):
            DidEstimate(table, 0.5)

    @pytest.mark.parametrize("names", [
        ["beta0", "beta1", "beta2", "delta"],
        ["rho", "beta0", "beta1", "beta2", "delta", "gamma2", "gamma1"],
        ["rho", "beta1", "beta0", "beta2", "delta"],
        ["rho", "beta0", "beta1", "beta2", "delta", "gamma0"],
        ["rho", "beta0", "beta1", "beta2", "delta", "residual_variance"],
    ], ids=["no-rho", "gamma-order", "beta-order", "gamma0", "extra-row"])
    def test_other_name_lists_rejected(self, names):
        with pytest.raises(InputValidationError, match="coefficients are"):
            DidEstimate({name: (0.0, None) for name in names}, 0.5)

    def test_table_is_read_only(self, tmp_path):
        # Neither the table nor the SE view can change an estimate after
        # its checks ran, so the writer never emits a file the reader refuses.
        given = dict(_estimate().table)
        est = DidEstimate(given, 0.01)
        before = list(est.table.items())
        with pytest.raises(TypeError):
            est.table["delta"] = (0.0, -5.0)
        ses = est.standard_errors
        ses["delta"] = -5.0
        given["delta"] = (0.0, -5.0)
        assert list(est.table.items()) == before
        assert est.standard_errors["delta"] == 0.1
        path = tmp_path / "did_estimate.csv"
        dataio.write_did_estimate_csv(est, path)
        assert dataio.read_did_estimate(path) == est

    @pytest.mark.parametrize("round_trip", [
        lambda est: pickle.loads(pickle.dumps(est)), copy.deepcopy, copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_equal(self, round_trip):
        est = _estimate(gamma=(1.0, -0.5, 0.25))
        copied = round_trip(est)
        assert copied == est
        assert list(copied.table.items()) == list(est.table.items())
        with pytest.raises(TypeError):
            copied.table["rho"] = (0.0, None)

    def test_views_follow_the_table(self):
        est = _estimate(gamma=(1.0, -0.5), rho=0.3, delta=-2.0)
        names = coefficient_names(2)
        assert est.coefficient_names() == names == list(est.table)
        assert est.coefficient_values() == [0.3, 1.0, 0.5, -0.2, -2.0, 1.0, -0.5]
        assert list(est.standard_errors) == names
        assert (est.rho, est.delta) == (0.3, -2.0)


class TestBuildDesignMatrix:
    def test_shape_two_regions_two_steps(self):
        panel = make_panel(np.arange(4.0).reshape(2, 2),
                           c=np.zeros((2, 2, 4)),
                           post=np.array([0.0, 1.0]))
        S = _matrix_for(panel)
        X, targets = build_design_matrix(panel, S)
        assert X.shape == (2, 9)
        assert targets.shape == (2,)

    def test_zero_covariates_zero_columns(self, small_panel):
        panel = make_panel(small_panel.y, c=np.zeros((4, 12, 4)))
        X, _ = build_design_matrix(panel, _matrix_for(panel))
        assert np.all(X[:, 5:] == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        panel = make_panel(rng.normal(size=(3, 6)), c=rng.normal(size=(3, 6, 2)),
                           treated=np.array([1.0, 0.0, 1.0]),
                           post=np.array([0, 0, 0, 1, 1, 1.0]))
        S = _matrix_for(panel)
        X, targets = build_design_matrix(panel, S)
        rows, ids = [], []
        for i in range(3):
            for t in range(1, 6):
                lag = sum(S.weights[i, j] * panel.y[j, t - 1] for j in range(3))
                row = [lag, 1.0, panel.treated[i], panel.post[t],
                       panel.treated[i] * panel.post[t],
                       panel.c[i, t, 0], panel.c[i, t, 1]]
                rows.append(row)
                ids.append(panel.y[i, t])
        assert np.allclose(X, np.array(rows), atol=0)
        assert np.allclose(targets, np.array(ids), atol=0)

    def test_single_period_insufficient(self):
        panel = make_panel(np.zeros((2, 1)), post=np.array([1.0]))
        with pytest.raises(InsufficientDataError):
            build_design_matrix(panel, None)

    def test_ablation_column_widths(self, small_panel):
        # No matrix drops the lag column, a D = 0 panel the covariates;
        # the other columns are the full design's, bit for bit.
        S = _matrix_for(small_panel)
        X_full, _ = build_design_matrix(small_panel, S)
        X_nospatial, _ = build_design_matrix(small_panel, None)
        X_nofactors, _ = build_design_matrix(_without_factors(small_panel), S)
        assert X_full.shape[1] == 9
        assert X_nospatial.shape[1] == 8
        assert X_nofactors.shape[1] == 5
        assert np.array_equal(X_nospatial, X_full[:, 1:])
        assert np.array_equal(X_nofactors, X_full[:, :5])
        assert len(design_column_labels(4)) == 9


def _matrix_for(panel):
    from stcast.spatial import Region, RegionSet
    rng = np.random.default_rng(99)
    rs = RegionSet(tuple(
        Region(rid, float(rng.uniform(-50, 50)), float(rng.uniform(-170, 170)))
        for rid in panel.region_ids
    ))
    return build_spatial_matrix(rs, alpha=1.0)


class TestEstimation:
    def test_noise_free_exact_recovery(self):
        spec = GeneratorSpec(noise_sigma=0.0, seed=42)
        regions, panel, truth = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        est = fit_did(panel, S)
        assert list(est.table) == list(truth.table)
        for name, (value, _) in truth.table.items():
            assert est.table[name][0] == pytest.approx(value, abs=1e-8), name

    def test_zero_spillover_recovered(self):
        spec = GeneratorSpec(noise_sigma=0.1, true_rho=0.0, seed=3, t_steps=400)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        est = fit_did(panel, S)
        assert abs(est.rho) <= 3.0 * est.standard_errors["rho"]

    def test_moderate_spillover_within_band(self):
        spec = GeneratorSpec(noise_sigma=0.05, true_rho=0.4, seed=8)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        est = fit_did(panel, S)
        assert est.rho == pytest.approx(0.4, abs=0.05)

    def test_no_treated_regions_collinear(self):
        # The all-zero treatment columns surface in the IV stage first,
        # named in the rank diagnostic.
        rng = np.random.default_rng(0)
        panel = make_panel(rng.normal(size=(3, 20)),
                           c=rng.normal(size=(3, 20, 4)),
                           treated=np.zeros(3))
        with pytest.raises(EstimationError, match="treated"):
            fit_did(panel, _matrix_for(panel))

    def test_constant_post_collinear(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.normal(size=(3, 20)),
                           c=rng.normal(size=(3, 20, 4)),
                           post=np.zeros(20))
        with pytest.raises(EstimationError, match="post"):
            fit_did(panel, _matrix_for(panel))

    def test_ols_stage_collinearity_direct(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.normal(size=(3, 20)),
                           c=rng.normal(size=(3, 20, 4)),
                           treated=np.zeros(3))
        X, targets = build_design_matrix(panel, _matrix_for(panel))
        with pytest.raises(EstimationError, match="collinear"):
            estimate_ols_given_rho(X, targets, 0.2, panel.d)

    def test_nonstationary_estimate_raises(self):
        # A hand-built explosive design: targets tightly coupled to the
        # lag column with coefficient > 1 must error, never return.
        spec = GeneratorSpec(noise_sigma=0.0, seed=1, t_steps=40,
                             post_onset_index=20)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        X, targets = build_design_matrix(panel, S)
        fake_targets = 1.5 * X[:, 0] + 0.1
        with pytest.raises(NonstationarityError):
            estimate_rho_iv(X, fake_targets, S, panel)

    def test_rho_se_calibration_monte_carlo(self):
        # Coefficients fall within 3 reported standard errors of the
        # truth in nearly all replications.
        hits = 0
        reps = 60
        for seed in range(reps):
            spec = GeneratorSpec(noise_sigma=0.1, seed=seed)
            regions, panel, truth = generate(spec)
            S = build_spatial_matrix(regions, spec.alpha)
            est = fit_did(panel, S)
            ok = (abs(est.rho - truth.rho) <= 3 * est.standard_errors["rho"]
                  and abs(est.delta - truth.delta) <= 3 * est.standard_errors["delta"])
            hits += ok
        assert hits / reps >= 0.95

    def test_consistency_error_shrinks_with_t(self):
        med_delta, med_rho = [], []
        for t_steps in (100, 300, 1000):
            err_d, err_r = [], []
            for seed in range(50):
                spec = GeneratorSpec(noise_sigma=0.1, t_steps=t_steps,
                                     post_onset_index=t_steps // 2, seed=seed)
                regions, panel, truth = generate(spec)
                S = build_spatial_matrix(regions, spec.alpha)
                est = fit_did(panel, S)
                err_d.append(abs(est.delta - truth.delta))
                err_r.append(abs(est.rho - truth.rho))
            med_delta.append(np.median(err_d))
            med_rho.append(np.median(err_r))
        assert med_delta[0] > med_delta[1] > med_delta[2]
        assert med_rho[0] > med_rho[1] > med_rho[2]

    def test_residual_orthogonality(self):
        spec = GeneratorSpec(noise_sigma=0.2, seed=21)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        X, targets = build_design_matrix(panel, S)
        est = fit_did(panel, S)
        offset = targets - est.rho * X[:, 0]
        beta = np.array(est.coefficient_values()[1:])
        residuals = offset - X[:, 1:] @ beta
        assert np.max(np.abs(X[:, 1:].T @ residuals)) < 1e-8

    def test_two_stage_matches_independent_2sls(self):
        # 2SLS written out from the documented instruments and solved with
        # lstsq: on the t >= 2 cells, stage 1 projects the lag S y(t-1) on
        # [1, treated, post, treated*post, c(t), S c(t-1), S^2 y(t-2)];
        # stage 2 regresses y(t) on the fitted lag and the exogenous
        # columns; the classical SE takes residuals from the actual lag.
        spec = GeneratorSpec(noise_sigma=0.2, seed=17)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        W, y, c = S.weights, panel.y, panel.c
        n, t, d = panel.n, panel.t, panel.d

        def cells(a, start):            # (N, T) -> region-major t-2 cells
            return a[:, start:start + t - 2].reshape(-1)

        treated = np.repeat(panel.treated, t - 2)
        post = np.tile(panel.post[2:], n)
        exog = np.column_stack([np.ones(n * (t - 2)), treated, post,
                                treated * post]
                               + [cells(c[:, :, k], 2) for k in range(d)])
        lag = cells(W @ y, 1)
        instruments = np.column_stack(
            [exog] + [cells(W @ c[:, :, k], 1) for k in range(d)]
            + [cells(W @ W @ y, 0)])
        target = cells(y, 2)
        lag_hat = instruments @ np.linalg.lstsq(instruments, lag,
                                                rcond=None)[0]
        z_hat = np.column_stack([lag_hat, exog])
        beta = np.linalg.lstsq(z_hat, target, rcond=None)[0]
        residuals = target - np.column_stack([lag, exog]) @ beta
        sigma2 = residuals @ residuals / (len(target) - z_hat.shape[1])
        # inv(Z'Z) = pinv(Z) pinv(Z)', so its [0, 0] entry is a row norm.
        se = np.sqrt(sigma2 * np.sum(np.linalg.pinv(z_hat)[0] ** 2))

        X, targets = build_design_matrix(panel, S)
        rho_hat, rho_se = estimate_rho_iv(X, targets, S, panel)
        assert rho_hat == pytest.approx(beta[0], rel=1e-10)
        assert rho_se == pytest.approx(se, rel=1e-10)

    def test_estimate_ols_given_rho_reuses_rho(self):
        spec = GeneratorSpec(noise_sigma=0.0, seed=9)
        regions, panel, truth = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        X, targets = build_design_matrix(panel, S)
        est = estimate_ols_given_rho(X, targets, truth.rho, panel.d)
        assert est.rho == truth.rho
        assert est.delta == pytest.approx(truth.delta, abs=1e-8)


def _inv_gram_ols(X, targets, labels):
    """Reference OLS: pivoted-QR beta and the textbook classical covariance
    sigma^2 inv(X'X), which the library's QR bread must match to rounding.
    Returns (beta, residual variance, standard errors).  None of the
    reference panels is near-singular, so there is no ridge branch."""
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag.max() * max(X.shape) * np.finfo(float).eps))
    if rank < X.shape[1]:
        bad = sorted(labels[j] for j in piv[rank:])
        raise EstimationError(
            f"singular normal equations; collinear columns: {bad} "
            "(constant treatment or post indicator?)"
        )
    beta = np.empty(X.shape[1])
    beta[piv] = scipy.linalg.solve_triangular(r, q.T @ targets)
    residuals = targets - X @ beta
    sigma2 = float(residuals @ residuals) / max(X.shape[0] - X.shape[1], 1)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    return beta, sigma2, np.sqrt(np.clip(np.diag(cov), 0.0, None))


# Design column label -> coefficient name, written out independently of
# the library's one name list.
_LABEL_NAMES = {"const": "beta0", "treated": "beta1", "post": "beta2",
                "treated_post": "delta"}


def _inv_gram_estimate(X, targets, labels, rho, rho_se=None):
    """The reference OLS as a DidEstimate: rho's row first, then one row
    per design column, each named from its label."""
    beta, sigma2, ses = _inv_gram_ols(X, targets, labels)
    table = {"rho": (rho, rho_se)}
    for label, value, se in zip(labels, beta, ses):
        table[_LABEL_NAMES.get(label, "gamma" + label[1:])] = (value, se)
    return DidEstimate(table, sigma2)


def _inv_gram_fit_did(p, S, no_spatial=False, no_factors=False):
    """``fit_did`` under the ablations, with the reference OLS tail after
    the library's IV stage (which ``test_two_stage_matches_independent_2sls``
    checks).  The design is always the full one, with the lag and the
    covariate columns deleted here."""
    X, targets = build_design_matrix(p, S)
    labels = design_column_labels(p.d)
    keep = slice(int(no_spatial), 5 if no_factors else 5 + p.d)
    # C order, as the library lays out every design it builds.
    X, labels = np.ascontiguousarray(X[:, keep]), labels[keep]
    if no_spatial:
        return _inv_gram_estimate(X, targets, labels, 0.0)
    rho_hat, rho_se = estimate_rho_iv(
        X, targets, S, _without_factors(p) if no_factors else p)
    return _inv_gram_estimate(X[:, 1:], targets - rho_hat * X[:, 0],
                              labels[1:], rho_hat, rho_se)


def _ablated_fit_did(p, S, no_spatial=False, no_factors=False):
    """``fit_did`` on the inputs the ablations leave: no matrix under
    ``no_spatial``, a D = 0 panel under ``no_factors``."""
    return fit_did(_without_factors(p) if no_factors else p,
                   None if no_spatial else S)


# Every combination of the two ablations.
FLAG_SETS = [
    dict(no_spatial=a, no_factors=b)
    for a, b in itertools.product([False, True], repeat=2)
]
_FLAG_IDS = ["-".join(k for k, v in f.items() if v) or "default"
             for f in FLAG_SETS]


def _tail_panels():
    """Twelve generator panels of varied shape and dynamics, at least ten
    of which fit under every flag set, plus one whose treatment indicator
    is constant (both fits must raise alike)."""
    panels = []
    for s in range(12):
        spec = GeneratorSpec(
            n_regions=3 + s % 5, t_steps=(40, 120, 300)[s % 3],
            post_onset_index=(20, 60, 150)[s % 3],
            true_rho=(0.0, 0.4, 0.2, 0.6)[s % 4],
            noise_family=("gaussian", "student_t")[s % 2],
            true_gamma=(0.4, -0.2, -0.4, 0.12)[: 1 + s % 4],
            seed=200 + s,
        )
        regions, panel, _ = generate(spec)
        panels.append((panel, build_spatial_matrix(regions, spec.alpha)))
    rng = np.random.default_rng(3)
    flat = make_panel(rng.normal(size=(4, 30)), c=rng.normal(size=(4, 30, 2)),
                      treated=np.zeros(4))
    panels.append((flat, _matrix_for(flat)))
    return panels


def _outcome(fit, panel, S, flags):
    """The estimate's row names and values, residual variance and which
    rows have an SE, or the error; then the SE values."""
    try:
        est = fit(panel, S, **flags)
    except Exception as err:            # noqa: BLE001 - compared, not hidden
        return (type(err), str(err)), []
    return ((list(est.table), est.coefficient_values(),
             est.residual_variance, list(est.standard_errors)),
            list(est.standard_errors.values()))


class TestOlsTail:
    @pytest.mark.parametrize("flags", FLAG_SETS, ids=_FLAG_IDS)
    def test_fit_did_matches_parent_tail(self, flags):
        # Coefficients, residual variance and errors are bit-identical to
        # the inv(X'X) reference; the SEs differ only by rounding.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitted = 0
            for i, (panel, S) in enumerate(_tail_panels()):
                ref, ref_ses = _outcome(_inv_gram_fit_did, panel, S, flags)
                got, ses = _outcome(_ablated_fit_did, panel, S, flags)
                assert got == ref, i
                assert ses == pytest.approx(ref_ses, rel=1e-12, abs=0), i
                fitted += not isinstance(ref[0], type)
        assert fitted >= 10

    @pytest.mark.parametrize("flags", FLAG_SETS, ids=_FLAG_IDS)
    def test_standard_error_keys_and_csv_rows(self, flags, tmp_path):
        # Weak covariate effects keep the no-factors fits stationary.
        spec = GeneratorSpec(seed=31, t_steps=80, post_onset_index=40,
                             true_gamma=(0.3, -0.2))
        regions, panel, _ = generate(spec)
        est = _ablated_fit_did(panel, build_spatial_matrix(regions, spec.alpha),
                               **flags)
        names = coefficient_names(0 if flags["no_factors"] else panel.d)
        assert list(est.table) == names     # rho first, then beta0 ...
        # The SE view follows table order; rho has none without a matrix.
        with_se = names[1:] if flags["no_spatial"] else names
        assert list(est.standard_errors) == with_se
        if flags["no_spatial"]:
            assert est.table["rho"] == (0.0, None)
        path = tmp_path / "did_estimate.csv"
        dataio.write_did_estimate_csv(est, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == names + ["residual_variance"]
        for name, _, se in rows[:-1]:
            assert (se != "") == (name in with_se), name

    @pytest.mark.parametrize("no_spatial", [False, True],
                             ids=["spatial", "no_spatial"])
    def test_covariate_free_panel_is_the_no_factors_fit(self, no_spatial,
                                                        tmp_path):
        # A panel built with D = 0 fits exactly as the run's no_factors
        # ablation of the same panel with covariates.
        spec = GeneratorSpec(seed=31, t_steps=80, post_onset_index=40,
                             true_gamma=(0.3, -0.2))
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        bare = Panel(region_ids=panel.region_ids, times=panel.times,
                     y=panel.y, c=np.empty((panel.n, panel.t, 0)),
                     treated=panel.treated, post=panel.post)
        config = RunConfig(no_spatial=no_spatial, no_factors=True)
        ablated, _ = estimate(panel, S, config, tmp_path)
        got = fit_did(bare, None if no_spatial else S)
        assert list(got.table.items()) == list(ablated.table.items())
        assert list(got.table) == coefficient_names(0)
        assert got.residual_variance == ablated.residual_variance


class TestLeastSquares:
    def test_near_singular_design_falls_back_to_ridge(self):
        # A pivoted-R diagonal ratio of 9.97e12 lies between the ridge
        # threshold (1e12) and the rank tolerance: the coefficients come
        # from ridged normal equations, with the warning the benchmark
        # counts by the word "ridge".
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        noise = rng.normal(size=50)
        X = np.column_stack([np.ones(50), x, x + 1e-13 * noise])
        y = 1.0 + x + rng.normal(size=50)
        with pytest.warns(RuntimeWarning) as record:
            beta, _ = causal._least_squares(X, y, ["const", "x", "x_near"])
        assert [str(w.message) for w in record] == [
            "design matrix nearly singular; solving with ridge 1e-10 on "
            "the normal equations"]
        ref = np.linalg.solve(X.T @ X + 1e-10 * np.eye(3), X.T @ y)
        assert np.array_equal(beta, ref)

    def test_bread_is_the_inverse_gram_in_column_order(self):
        # Column scales make the QR pivot order differ from the column
        # order, so a bread left in pivot order would not match.
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 4)) * np.array([0.1, 1.0, 10.0, 3.0])
        piv = scipy.linalg.qr(X, mode="economic", pivoting=True)[2]
        assert list(piv) != [0, 1, 2, 3]
        _, factor = causal._least_squares(X, rng.normal(size=40),
                                          list("abcd"))
        xtx_inv = causal._bread(factor)
        ref = np.linalg.inv(X.T @ X)
        assert np.allclose(xtx_inv, ref, rtol=1e-10,
                           atol=1e-12 * np.abs(ref).max())


class TestInstrumentFactorisation:
    def test_one_qr_of_the_instrument_matrix(self, monkeypatch):
        # The rank check and the stage-1 solve share one pivoted QR of the
        # instrument matrix; stage 2 factors the second-stage design.
        # Workspace queries (lwork=-1) factor nothing.
        spec = GeneratorSpec(seed=5, t_steps=60, post_onset_index=30)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        X, targets = build_design_matrix(panel, S)
        widths = []
        dgeqp3 = causal.dgeqp3

        def counting_dgeqp3(a, lwork, **kwargs):
            if lwork != -1:
                widths.append(np.shape(a)[1])
            return dgeqp3(a, lwork=lwork, **kwargs)

        monkeypatch.setattr(causal, "dgeqp3", counting_dgeqp3)
        estimate_rho_iv(X, targets, S, panel)
        d = panel.d
        # Instruments: 4 indicator columns, D covariates, D lagged
        # covariates and S^2 y.
        h_width = 4 + 2 * d + 1
        assert widths == [h_width, 1 + 4 + d]

    def test_fit_did_forms_two_breads(self, monkeypatch):
        # Only stage 2 (rho's SE) and the OLS stage read inv(X'X); the
        # stage-1 projection forms none.
        spec = GeneratorSpec(seed=5, t_steps=60, post_onset_index=30)
        regions, panel, _ = generate(spec)
        widths = []
        bread = causal._bread

        def counting_bread(factor):
            widths.append(len(factor[1]))
            return bread(factor)

        monkeypatch.setattr(causal, "_bread", counting_bread)
        fit_did(panel, build_spatial_matrix(regions, spec.alpha))
        assert widths == [1 + 4 + panel.d, 4 + panel.d]

    @pytest.mark.parametrize("where", ["design", "target"])
    def test_non_finite_input_raises_before_lapack(self, monkeypatch, where):
        calls = []
        for name in ("dgeqp3", "dorgqr", "dtrtrs"):
            monkeypatch.setattr(causal, name,
                                lambda *a, name=name, **k: calls.append(name))
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(20, 3)), rng.normal(size=20)
        (X if where == "design" else y)[4] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            causal._least_squares(X, y, list("abc"))
        assert calls == []

    def test_rank_deficient_instruments_named(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(4, 30, 3))
        c[:, :, 2] = c[:, :, 1]
        panel = make_panel(rng.normal(size=(4, 30)), c=c)
        with pytest.raises(EstimationError, match=re.escape(
                "rank-deficient instrument matrix; columns: ['S.c3(t-1)', 'c3']")):
            fit_did(panel, _matrix_for(panel))


def _wrapped_least_squares(X, y, labels, rank_error):
    """Least squares through scipy's wrappers, as the library first wrote
    it: (beta, inv(X'X)) from ``scipy.linalg.qr`` and ``solve_triangular``,
    with the rank check, the ridge fallback and the R^-1 R^-T bread."""
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    k = X.shape[1]
    rank = int(np.sum(diag > diag.max() * max(X.shape) * np.finfo(float).eps))
    if rank < k:
        raise EstimationError(rank_error.format(sorted(labels[j] for j in piv[rank:])))
    r_inv = scipy.linalg.solve_triangular(r, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    if diag.max() / diag.min() > 1e12:
        return np.linalg.solve(X.T @ X + 1e-10 * np.eye(k), X.T @ y), xtx_inv
    beta = np.empty(k)
    beta[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
    return beta, xtx_inv


def _wrapped_fit(p, S):
    """The spatial 2SLS-then-OLS fit as the library first wrote it, on
    designs stacked column by column: (table, residual variance, z)."""
    n, t, d = p.n, p.t, p.d
    rows = n * (t - 1)
    treated, post = np.repeat(p.treated, t - 1), np.tile(p.post[1:], n)
    cols = [np.ones(rows), treated, post, treated * post]
    cols += [p.c[:, 1:, k].reshape(rows) for k in range(d)]
    exog_labels = design_column_labels(d)[1:]
    targets = p.y[:, 1:].reshape(rows)
    rho, rho_se = 0.0, None
    if S is not None:
        lag = spatial_lag(S, p.y)[:, : t - 1].reshape(rows)
        X = np.column_stack([lag] + cols)
        keep = np.concatenate([i * (t - 1) + np.arange(1, t - 1)
                               for i in range(n)])
        w, exog, y_sub = X[keep, 0], X[keep, 1:], targets[keep]
        iv_cols = [spatial_lag(S, p.c[:, :, k])[:, 1 : t - 1].reshape(-1)
                   for k in range(d)]
        iv_cols.append(spatial_lag(S, spatial_lag(S, p.y))[:, : t - 2].reshape(-1))
        h = np.column_stack([exog] + iv_cols)
        iv_labels = [f"S.c{k + 1}(t-1)" for k in range(d)] + ["S^2.y(t-2)"]
        gamma1, _ = _wrapped_least_squares(
            h, w, exog_labels + iv_labels,
            "rank-deficient instrument matrix; columns: {}")
        z_hat = np.column_stack([h @ gamma1, exog])
        beta2sls, bread = _wrapped_least_squares(
            z_hat, y_sub, ["spatial_lag"] + exog_labels, causal._COLLINEAR)
        residuals = y_sub - np.column_stack([w, exog]) @ beta2sls
        sigma2 = float(residuals @ residuals) / max(len(y_sub) - z_hat.shape[1], 1)
        rho, rho_se = float(beta2sls[0]), float(np.sqrt(sigma2 * bread[0, 0]))
        targets = targets - rho * X[:, 0]
        X = X[:, 1:]
    else:
        X = np.column_stack(cols)
    beta, bread = _wrapped_least_squares(X, targets, exog_labels,
                                         causal._COLLINEAR)
    residuals = targets - X @ beta
    sigma2 = float(residuals @ residuals) / max(len(targets) - X.shape[1], 1)
    ses = np.sqrt(sigma2 * np.diag(bread))
    table = dict(zip(coefficient_names(d), [(rho, rho_se), *zip(beta, ses)]))
    y_tilde = p.y - table["delta"][0] * np.outer(p.treated, p.post)
    z = y_tilde.copy() if S is None else y_tilde + rho * spatial_lag(S, y_tilde)
    return table, sigma2, z


def _oracle_cases():
    specs = [GeneratorSpec(seed=s) for s in (1, 2, 3)]
    specs += [GeneratorSpec(seed=4, noise_family="student_t"),
              GeneratorSpec(seed=14, true_gamma=()),
              GeneratorSpec(seed=5, n_regions=500, t_steps=40,
                            post_onset_index=20)]
    cases = [(spec, False) for spec in specs]
    return cases + [(GeneratorSpec(seed=6), True)]


class TestWrappedScipyOracle:
    # Compared on this machine, not against stored bits: LAPACK's rounding
    # depends on the CPU and the BLAS build.  The reference runs its numpy
    # products on one thread, as the library does, set through numpy's
    # pool handles alone; its LAPACK calls stay on scipy's pool at the
    # pool's own count, so a multi-thread LAPACK checks the library's one.
    @pytest.mark.parametrize(
        "spec, no_spatial", _oracle_cases(),
        ids=["seed1", "seed2", "seed3", "student_t", "D=0", "N=500-T=40",
             "S=None"])
    def test_fit_and_adjustment_bit_identical(self, spec, no_spatial):
        regions, panel, _ = generate(spec)
        S = None if no_spatial else build_spatial_matrix(regions, spec.alpha)
        get_threads, set_threads = _blas.POOLS.get(
            "numpy", (lambda: None, lambda threads: None))
        before = get_threads()
        set_threads(1)
        try:
            table, sigma2, z = _wrapped_fit(panel, S)
        finally:
            set_threads(before)
        est = fit_did(panel, S)
        assert dict(est.table) == table
        assert est.residual_variance == sigma2
        assert adjust_panel(panel, est, S).z.tobytes() == z.tobytes()


def _recording_lapack(monkeypatch, get_threads):
    """Patch the three LAPACK routines to record (name, get_threads())
    at each call that computes (not a workspace query)."""
    seen = []
    for name in ("dgeqp3", "dorgqr", "dtrtrs"):
        def recording(*args, routine=getattr(causal, name), name=name, **kwargs):
            if kwargs.get("lwork") != -1:
                seen.append((name, get_threads()))
            return routine(*args, **kwargs)
        monkeypatch.setattr(causal, name, recording)
    return seen


def _nonstationary_bare_case():
    # The covariate-free panel on which the IV stage gives |rho| >= 1.
    spec = GeneratorSpec(n_regions=5, t_steps=300, post_onset_index=150,
                         true_rho=-0.3, noise_family="student_t",
                         true_gamma=(1.0, -0.5, -1.0), seed=202)
    regions, panel, _ = generate(spec)
    return _without_factors(panel), build_spatial_matrix(regions, spec.alpha)


def _returning_case():
    spec = GeneratorSpec(seed=1)
    regions, panel, _ = generate(spec)
    return panel, build_spatial_matrix(regions, spec.alpha)


def _collinear_case():
    rng = np.random.default_rng(0)
    panel = make_panel(rng.normal(size=(3, 20)), c=rng.normal(size=(3, 20, 4)),
                       treated=np.zeros(3))
    return panel, _matrix_for(panel)


class TestLapackThreads:
    def test_every_lapack_call_runs_on_one_thread(self, monkeypatch, scipy_pool):
        seen = _recording_lapack(monkeypatch, scipy_pool[0])
        spec = GeneratorSpec(seed=5, t_steps=60, post_onset_index=30)
        regions, panel, _ = generate(spec)
        fit_did(panel, build_spatial_matrix(regions, spec.alpha))
        assert {name for name, _ in seen} == {"dgeqp3", "dorgqr", "dtrtrs"}
        assert {threads for _, threads in seen} == {1}

    @pytest.mark.parametrize("case, error", [
        (_returning_case, None),
        (_collinear_case, EstimationError),
        (_nonstationary_bare_case, NonstationarityError),
    ], ids=["returns", "collinear", "nonstationary"])
    def test_count_restored_after_the_fit(self, scipy_pool, case, error):
        panel, S = case()
        if error is None:
            fit_did(panel, S)
        else:
            with pytest.raises(error):
                fit_did(panel, S)
        assert scipy_pool[0]() == 3

    def test_concurrent_fits_restore_the_count(self, scipy_pool):
        # The pool is one per process, so fits in several threads share
        # it: each runs capped, and the count the first fit found comes
        # back after the last.
        panel, S = _returning_case()
        want = fit_did(panel, S)
        results = []

        def fits():
            for _ in range(25):
                results.append(fit_did(panel, S))

        workers = [threading.Thread(target=fits) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == 100 and all(est == want for est in results)
        assert scipy_pool[0]() == 3

    def test_without_handles_the_fit_is_unchanged(self, monkeypatch,
                                                  scipy_pool):
        spec = GeneratorSpec(seed=3)
        regions, panel, _ = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        capped = fit_did(panel, S)
        monkeypatch.delitem(_blas.POOLS, "scipy")
        seen = _recording_lapack(monkeypatch, scipy_pool[0])
        est = fit_did(panel, S)
        assert dict(est.table) == dict(capped.table)
        assert est.residual_variance == capped.residual_variance
        assert (adjust_panel(panel, est, S).z.tobytes()
                == adjust_panel(panel, capped, S).z.tobytes())
        # No set call: every routine ran at the pool's own count.
        assert seen and {threads for _, threads in seen} == {3}

    def test_an_outer_scope_leaves_the_fit_on_one_thread(
            self, monkeypatch, numpy_pool, scipy_pool):
        # A scope the caller holds open around the fit keeps both pools
        # at 1 until it closes.
        seen = _recording_lapack(
            monkeypatch, lambda: (numpy_pool[0](), scipy_pool[0]()))
        panel, S = _returning_case()
        with _blas.one_thread():
            fit_did(panel, S)
        assert {name for name, _ in seen} == {"dgeqp3", "dorgqr", "dtrtrs"}
        assert {threads for _, threads in seen} == {(1, 1)}
        assert (numpy_pool[0](), scipy_pool[0]()) == (3, 3)


class _FakePool:
    """A pool's (get, set) handles that record each count set."""

    def __init__(self):
        self.threads, self.sets = 3, []

    def handles(self):
        return (lambda: self.threads), self.set

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture
def fake_pools(monkeypatch):
    """Two fake pools, "a" and "b", in ``_blas.POOLS``, each at 3."""
    pools = {name: _FakePool() for name in "ab"}
    for name, pool in pools.items():
        monkeypatch.setitem(_blas.POOLS, name, pool.handles())
    return pools


class TestOneThreadScope:
    def test_nested_scopes_restore_when_the_outer_closes(self, fake_pools):
        pool = fake_pools["a"]
        with _blas.one_thread():
            with _blas.one_thread():
                assert pool.threads == 1
            assert pool.threads == 1
        assert pool.sets == [1, 3]

    def test_a_raise_restores_the_count(self, fake_pools):
        @_blas.one_thread()
        def failing():
            assert fake_pools["a"].threads == 1
            raise EstimationError("boom")

        with pytest.raises(EstimationError):
            with _blas.one_thread():
                raise EstimationError("boom")
        with pytest.raises(EstimationError):
            failing()
        assert fake_pools["a"].sets == [1, 3, 1, 3]

    def test_one_scope_pins_and_restores_every_pool(self, fake_pools):
        a, b = fake_pools["a"], fake_pools["b"]
        b.threads = 5
        with _blas.one_thread():
            assert (a.threads, b.threads) == (1, 1)
        assert (a.sets, b.sets) == ([1, 3], [1, 5])

    def test_a_pool_removed_from_pools_is_not_touched(self, monkeypatch,
                                                      fake_pools):
        @_blas.one_thread()
        def threads():
            return fake_pools["a"].threads, fake_pools["b"].threads

        monkeypatch.delitem(_blas.POOLS, "a")
        # The decorated call reads POOLS when it runs.
        assert threads() == (3, 1)
        assert (fake_pools["a"].sets, fake_pools["b"].sets) == ([], [1, 3])

    def test_a_fit_sets_each_pool_once(self, monkeypatch):
        # fit_did holds the one scope, and nothing inside it opens another.
        pools = {name: _FakePool() for name in ("numpy", "scipy")}
        for name, pool in pools.items():
            monkeypatch.setitem(_blas.POOLS, name, pool.handles())
        fit_did(*_returning_case())
        assert {name: pool.sets for name, pool in pools.items()} == {
            "numpy": [1, 3], "scipy": [1, 3]}


class TestAdjustment:
    def test_zero_delta_identity(self, small_panel):
        est = _estimate(delta=0.0, gamma=(1.0, -0.5, 0.0, 0.0))
        adjusted = adjust_panel(small_panel, est, None)
        assert np.array_equal(adjusted.y_tilde, small_panel.y)

    def test_untreated_rows_unchanged(self, small_panel):
        est = _estimate(delta=-4.0, gamma=(1.0, -0.5, 0.0, 0.0))
        y_tilde = adjust_panel(small_panel, est, None).y_tilde
        control = small_panel.treated == 0.0
        assert np.array_equal(y_tilde[control], small_panel.y[control])

    def test_treated_post_cell_arithmetic(self):
        panel = make_panel(np.full((2, 4), 100.0),
                           treated=np.array([1.0, 0.0]),
                           post=np.array([0.0, 0.0, 1.0, 1.0]))
        est = _estimate(delta=-12.5, gamma=(0.0,) * 4)
        y_tilde = adjust_panel(panel, est, None).y_tilde
        assert y_tilde[0, 2] == pytest.approx(112.5)
        assert y_tilde[0, 0] == 100.0
        assert y_tilde[1, 2] == 100.0

    def test_adjustment_locality(self, small_panel):
        est = _estimate(delta=0.7, gamma=(1.0, -0.5, 0.0, 0.0))
        y_tilde = adjust_panel(small_panel, est, None).y_tilde
        changed = y_tilde != small_panel.y
        mask = np.outer(small_panel.treated, small_panel.post) == 1.0
        assert np.array_equal(changed, mask)

    def test_zero_rho_input_identity(self, small_panel):
        S = _matrix_for(small_panel)
        est = _estimate(rho=0.0, delta=0.0, gamma=(0.0,) * 4)
        assert np.array_equal(adjust_panel(small_panel, est, S).z,
                              small_panel.y)

    def test_constant_series_scales(self, small_panel):
        panel = replace(small_panel, y=np.full((4, 12), 2.0))
        est = _estimate(rho=0.25, delta=0.0, gamma=(0.0,) * 4)
        z = adjust_panel(panel, est, _matrix_for(panel)).z
        assert np.allclose(z, 2.0 * 1.25, atol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=(3, 5))
        panel = make_panel(y, c=np.zeros((3, 5, 1)))
        S = _matrix_for(panel)
        z = adjust_panel(panel, _estimate(rho=0.3, delta=0.0, gamma=(0.0,)), S).z
        expected = np.zeros_like(y)
        for i in range(3):
            for t in range(5):
                acc = sum(S.weights[i, j] * y[j, t] for j in range(3))
                expected[i, t] = y[i, t] + 0.3 * acc
        assert np.allclose(z, expected, atol=1e-12)

    def test_input_folds_in_the_adjusted_target(self, small_panel):
        # z is the spillover fold-in of y_tilde, not of y.
        S = _matrix_for(small_panel)
        est = _estimate(rho=0.3, delta=-0.8, gamma=(0.0,) * 4)
        adjusted = adjust_panel(small_panel, est, S)
        y_tilde = small_panel.y + 0.8 * np.outer(small_panel.treated,
                                                 small_panel.post)
        assert np.allclose(adjusted.y_tilde, y_tilde, atol=1e-12)
        assert np.allclose(adjusted.z, y_tilde + 0.3 * S.weights @ y_tilde,
                           atol=1e-12)

    def test_linearity_in_y_tilde(self, small_panel):
        S = _matrix_for(small_panel)
        est = _estimate(rho=0.4, delta=0.0, gamma=(0.0,) * 4)
        a = 3.7
        scaled = replace(small_panel, y=a * small_panel.y)
        assert np.allclose(
            adjust_panel(scaled, est, S).z,
            a * adjust_panel(small_panel, est, S).z,
            atol=1e-10,
        )

    def test_adjust_panel_no_spatial(self, small_panel):
        est = _estimate(gamma=(1.0, -0.5, 0.0, 0.0))
        adjusted = adjust_panel(small_panel, est, None)
        assert np.array_equal(adjusted.z, adjusted.y_tilde)

    def test_cross_module_lag_consistency(self):
        # The generator's recursion and spatial_lag agree on the lag term.
        spec = GeneratorSpec(noise_sigma=0.1, seed=13, t_steps=50,
                             post_onset_index=25)
        regions, panel, truth = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        lag = spatial_lag(S, panel.y)
        b = coefficients(truth)
        resid = (panel.y[:, 1:]
                 - truth.rho * lag[:, :-1]
                 - b["beta0"]
                 - b["beta1"] * panel.treated[:, None]
                 - b["beta2"] * panel.post[None, 1:]
                 - truth.delta * np.outer(panel.treated, panel.post[1:])
                 - np.einsum("itd,d->it", panel.c[:, 1:, :], gammas(truth)))
        # What remains is exactly the generator's noise draw.
        assert np.std(resid) < 3.0 * spec.noise_sigma


def _report_fields(est):
    """The report's lines after its title, as label -> text."""
    lines = parameter_report(est).splitlines()[2:]
    return dict(line.strip().split(": ", 1) for line in lines)


class TestMatrixRegionOrder:
    """A matrix built from the panel's regions in another order is refused;
    one without region ids keeps the size-only check."""

    @staticmethod
    def _reversed_matrix(regions):
        return build_spatial_matrix(
            RegionSet(tuple(reversed(regions.regions))), alpha=1.0)

    def test_fit_did_refuses_reversed_matrix(self):
        regions, panel, _ = generate(GeneratorSpec(seed=3))
        with pytest.raises(InputValidationError,
                           match="matrix region 0 is 'R05' but panel "
                                 "region 0 is 'R00'") as err:
            fit_did(panel, self._reversed_matrix(regions))
        assert err.value.exit_code == 2

    def test_adjust_panel_refuses_reversed_matrix(self):
        regions, panel, truth = generate(GeneratorSpec(seed=3))
        with pytest.raises(InputValidationError, match="matrix region 0 "):
            adjust_panel(panel, truth, self._reversed_matrix(regions))

    def test_names_first_differing_position(self):
        regions, panel, _ = generate(GeneratorSpec(seed=3))
        S = build_spatial_matrix(regions, alpha=1.0)
        ids = list(S.region_ids)
        ids[2], ids[4] = ids[4], ids[2]
        swapped = SpatialMatrix(weights=S.weights, alpha=1.0,
                                region_ids=tuple(ids))
        with pytest.raises(InputValidationError,
                           match="matrix region 2 is 'R04' but panel "
                                 "region 2 is 'R02'"):
            fit_did(panel, swapped)

    def test_id_less_matrix_keeps_size_check(self):
        regions, panel, _ = generate(GeneratorSpec(seed=3))
        S = build_spatial_matrix(regions, alpha=1.0)
        bare = SpatialMatrix(weights=S.weights, alpha=1.0)
        est = fit_did(panel, bare)
        assert est.rho == fit_did(panel, S).rho
        adjusted = adjust_panel(panel, est, bare)
        assert np.array_equal(adjusted.z, adjust_panel(panel, est, S).z)
        small = SpatialMatrix(weights=[[0.0, 1.0], [1.0, 0.0]], alpha=1.0)
        with pytest.raises(InputValidationError,
                           match="matrix is 2x2 but panel has 6 regions"):
            fit_did(panel, small)


class TestReport:
    def test_strong_spillover_flag(self):
        fields = _report_fields(_estimate(rho=0.35))
        assert fields["spillover"] == "strong positive spatial correlation"

    def test_effective_intervention_flag(self):
        assert _report_fields(_estimate(delta=-0.15))["intervention"] == \
            "effective"

    def test_limited_effectiveness_flag(self):
        assert _report_fields(_estimate(delta=0.0))["intervention"] == \
            "limited effectiveness"

    @pytest.mark.parametrize("rho, flag", [
        (0.31, "strong positive spatial correlation"),
        (0.3, "moderate positive spatial correlation"),
        (0.1, "negligible spatial correlation"),
        (-0.1, "negligible spatial correlation"),
        (-0.11, "negative spatial correlation")])
    def test_spillover_flag_boundaries(self, rho, flag):
        assert _report_fields(_estimate(rho=rho))["spillover"] == flag

    @pytest.mark.parametrize("delta, flag", [
        (-0.11, "effective"), (-0.1, "limited effectiveness"),
        (0.1, "limited effectiveness"),
        (0.11, "adverse (positive effect estimate)")])
    def test_intervention_flag_boundaries(self, delta, flag):
        assert _report_fields(_estimate(delta=delta))["intervention"] == flag

    def test_rows_cover_all_coefficients(self):
        fields = _report_fields(_estimate())
        assert list(fields) == ["rho", "beta0", "beta1", "beta2", "delta",
                                "gamma1", "gamma2", "spillover",
                                "intervention", "residual var"]
        assert all(fields[name].endswith(" (se 0.1)")
                   for name in coefficient_names(2))

    def test_rows_without_standard_error(self):
        fields = _report_fields(_estimate(se=None))
        assert fields["rho"] == " 0.3"
        assert fields["residual var"] == "0.01"

    def test_text_mentions_flags(self):
        text = parameter_report(_estimate(rho=0.5, delta=-0.5))
        assert "strong positive spatial correlation" in text
        assert "effective" in text
