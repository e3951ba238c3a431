"""Release acceptance suite.

One test per criterion, each printing a single [PASS]/[FAIL] line with
the measured numbers (run ``pytest -s tests/test_acceptance.py`` to see
them on passing runs).  Tolerances are fixed here, not configurable.
"""

import time
import warnings

import numpy as np
from scipy import integrate, stats

from stcast import dataio, heads
from stcast.causal import fit_did
from stcast.config import load_run_config
from stcast.forecaster import ForecastModel, ModelConfig
from stcast.metrics import coverage, crps_from_samples, energy_score
from stcast.pipeline import run_pipeline
from stcast.spatial import Region, RegionSet, build_spatial_matrix, pairwise_distances
from stcast.synth import GeneratorSpec, generate


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    assert ok, line


def _small_model_config(family: str) -> ModelConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ModelConfig(hidden_size=6, num_layers=2, distribution=family,
                           context_len=8, horizon=2, epochs=1, seed=7,
                           batch_size=8)


class TestAcceptance:

    def test_estimator_recovery(self):
        """(rho, delta, gamma) within 3 reported standard errors of the
        generator truth in >= 95% of 200 seeded replications, < 2 min."""
        start = time.time()
        hits = 0
        reps = 200
        for seed in range(reps):
            spec = GeneratorSpec(n_regions=6, t_steps=300, noise_sigma=0.1,
                                 seed=seed)
            regions, panel, truth = generate(spec)
            S = build_spatial_matrix(regions, spec.alpha)
            est = fit_did(panel, S)
            ok = all(abs(est.table[name][0] - true) <= 3 * est.table[name][1]
                     for name, (true, _) in truth.table.items()
                     if name in ("rho", "delta") or name.startswith("gamma"))
            hits += ok
        elapsed = time.time() - start
        rate = hits / reps
        _report("estimator recovery", rate >= 0.95 and elapsed < 120.0,
                f"rate {rate:.3f}, {elapsed:.1f}s")

    def test_exact_recovery_noise_free(self):
        """Noise-free panel: every regression coefficient within 1e-8."""
        spec = GeneratorSpec(noise_sigma=0.0, seed=42)
        regions, panel, truth = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        est = fit_did(panel, S)
        worst = max(abs(est.table[name][0] - true)
                    for name, (true, _) in truth.table.items())
        _report("exact recovery (noise-free)", worst < 1e-8,
                f"worst |error| {worst:.2e}")

    def test_gradient_check(self):
        """Reverse-mode vs central differences (1e-5): max relative error
        < 1e-4 on 50 parameters x 10 inputs per family, < 1 min."""
        start = time.time()
        rng = np.random.default_rng(2718)
        worst = 0.0
        for family in heads.FAMILIES:
            model = ForecastModel(_small_model_config(family))
            keys = list(model.params)
            flat_sizes = {k: model.params[k].size for k in keys}
            # 50 coordinates spanning the encoder and the head.
            coords = [("head.W", 0), ("l0.W", 0)]
            while len(coords) < 50:
                key = keys[rng.integers(len(keys))]
                coords.append((key, int(rng.integers(flat_sizes[key]))))
            for _ in range(10):
                batch_in = rng.normal(size=(2, 8, 2))
                batch_tgt = rng.normal(size=(2, 8))
                _, grads = model._batch_forward_backward(batch_in, batch_tgt)

                def loss():
                    v, _ = model._batch_forward_backward(batch_in, batch_tgt)
                    return v / batch_tgt.size

                for key, idx in coords:
                    flat = model.params[key].reshape(-1)
                    orig = flat[idx]
                    flat[idx] = orig + 1e-5
                    up = loss()
                    flat[idx] = orig - 1e-5
                    dn = loss()
                    flat[idx] = orig
                    fd = (up - dn) / 2e-5
                    an = grads[key].reshape(-1)[idx]
                    rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                    worst = max(worst, rel)
        elapsed = time.time() - start
        _report("gradient check", worst < 1e-4 and elapsed < 60.0,
                f"max rel err {worst:.2e}, {elapsed:.1f}s")

    def test_likelihood_oracles(self):
        """Gaussian NLL at the mode, density normalizations, and the
        large-dof Student-t -> Gaussian limit."""
        g = heads.nll(heads.DistributionParams(
            "gaussian", np.float64(0.3), np.float64(1.0)), 0.3)
        mode_err = abs(float(g) - 0.5 * np.log(2.0 * np.pi))

        norm_err = 0.0
        rng = np.random.default_rng(13)
        for family in ("laplace", "student_t"):
            mu = float(rng.normal(0, 1))
            sigma = float(rng.uniform(0.5, 2.0))
            nu = float(rng.uniform(2.5, 8.0))
            p = heads.DistributionParams(
                family, np.float64(mu), np.float64(sigma),
                np.float64(nu) if family == "student_t" else None)

            def dens(y):
                return float(np.exp(-heads.nll(p, y)))

            left, _ = integrate.quad(dens, -np.inf, mu, limit=200)
            right, _ = integrate.quad(dens, mu, np.inf, limit=200)
            norm_err = max(norm_err, abs(left + right - 1.0))

        limit_err = 0.0
        for y in rng.normal(0, 2, size=25):
            t_val = heads.nll(heads.DistributionParams(
                "student_t", np.float64(0.2), np.float64(1.1),
                np.float64(1e6)), y)
            g_val = heads.nll(heads.DistributionParams(
                "gaussian", np.float64(0.2), np.float64(1.1)), y)
            limit_err = max(limit_err, abs(float(t_val) - float(g_val)))

        ok = mode_err < 1e-9 and norm_err < 1e-4 and limit_err < 1e-3
        _report("likelihood oracles", ok,
                f"mode err {mode_err:.1e}, norm err {norm_err:.1e}, "
                f"t-limit err {limit_err:.1e}")

    def test_crps_oracle(self):
        """Sample CRPS vs the closed-form Gaussian value, and the 1-D
        energy-score equivalence."""
        rng = np.random.default_rng(314)
        samples = rng.standard_normal(100_000)
        closed_form = 1.0 * (2 * stats.norm.pdf(0.0) - 1 / np.sqrt(np.pi))
        crps_err = abs(crps_from_samples(samples, 0.0) - closed_form)

        sub = rng.standard_normal(1500)
        es = energy_score(sub[:, None], np.array([0.37]))
        eq_err = abs(es - crps_from_samples(sub, 0.37))

        ok = crps_err < 0.002 and eq_err < 1e-12
        _report("crps oracle", ok,
                f"closed-form err {crps_err:.2e}, 1-D energy gap {eq_err:.1e}")

    def test_calibration(self):
        """True-distribution sampler on 10^4 cells: interval coverage at
        alpha=0.1 within +-0.02 of nominal 0.9."""
        rng = np.random.default_rng(77)
        cells = 10_000
        mu = rng.normal(0, 3, cells)
        sigma = rng.uniform(0.5, 2.0, cells)
        observed = rng.normal(mu, sigma).reshape(100, 100)
        samples = rng.normal(mu[:, None], sigma[:, None],
                             (cells, 400)).reshape(100, 100, 400)
        got = coverage(samples, observed, 0.1)
        _report("calibration", abs(got - 0.9) <= 0.02,
                f"coverage {got:.4f} vs nominal 0.9")

    def test_spatial_matrix_invariants(self):
        """1000 random geometries: perfect row normalization, zero
        diagonals, and strictly monotone localization in alpha."""
        rng = np.random.default_rng(2024)
        worst_row = 0.0
        monotone = True
        diag_ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            rs = RegionSet(tuple(
                Region(f"r{i}", float(rng.uniform(-80, 80)),
                       float(rng.uniform(-179, 179)))
                for i in range(n)
            ))
            s1 = build_spatial_matrix(rs, 1.0)
            s2 = build_spatial_matrix(rs, 2.0)
            for s in (s1, s2):
                worst_row = max(worst_row,
                                float(np.max(np.abs(s.weights.sum(axis=1) - 1.0))))
                diag_ok &= bool(np.all(np.diag(s.weights) == 0.0))
            if n >= 3:
                d = pairwise_distances(rs)[0, 1:]
                near, far = 1 + int(np.argmin(d)), 1 + int(np.argmax(d))
                if near != far:
                    r1 = s1.weights[0, near] / s1.weights[0, far]
                    r2 = s2.weights[0, near] / s2.weights[0, far]
                    monotone &= bool(r2 > r1)
        ok = worst_row < 1e-12 and diag_ok and monotone
        _report("spatial matrix invariants", ok,
                f"worst |row sum - 1| {worst_row:.2e}, monotone {monotone}")

    def test_ablation_direction(self, tmp_path):
        """Full pipeline vs NoSpatial and NoFactors on panels with strong
        spillover and a strong, covariate-confounded treatment: the full
        variant's mean CRPS over 20 seeds must not be beaten."""
        def crps_of(path):
            for line in path.read_text().splitlines():
                if line.startswith("crps,,"):
                    return float(line.split(",")[2])
            raise AssertionError("no crps row")

        onset = 131
        results = {"full": [], "nospatial": [], "nofactors": []}
        for seed in range(20):
            spec = GeneratorSpec(
                n_regions=12, t_steps=140, true_rho=0.5, true_delta=-4.0,
                true_gamma=(1.2, -0.75, -0.9, 0.6), cov_persistence=0.5,
                cov_noise_scale=0.7, noise_sigma=0.15,
                cov_shift_treated_post=1.0, post_onset_index=onset,
                seed=1000 + seed,
            )
            regions, panel, _ = generate(spec)
            for variant, flags in (("full", {}),
                                   ("nospatial", {"no_spatial": True}),
                                   ("nofactors", {"no_factors": True})):
                cfg = load_run_config(overrides=dict(
                    out=str(tmp_path / f"r{seed}-{variant}"),
                    post_onset_date=panel.times[onset].isoformat(),
                    target_transform="none", num_samples=100, batch_size=256,
                    context_len=25, horizon=5, epochs=15, hidden_size=16,
                    num_layers=1, seed=seed, **flags))
                arts = run_pipeline(cfg, regions=regions, panel=panel)
                results[variant].append(crps_of(arts["scores.csv"]))

        mean_full = float(np.mean(results["full"]))
        mean_ns = float(np.mean(results["nospatial"]))
        mean_nf = float(np.mean(results["nofactors"]))
        ok = mean_full <= mean_ns and mean_full <= mean_nf
        _report(
            "ablation direction", ok,
            f"mean CRPS full {mean_full:.4f} vs nospatial {mean_ns:.4f} "
            f"(effect {mean_ns - mean_full:+.4f}) and nofactors {mean_nf:.4f} "
            f"(effect {mean_nf - mean_full:+.4f})",
        )

    def _pipeline_config(self, data_dir, out_dir, seed=3):
        spec = GeneratorSpec(n_regions=4, t_steps=120, true_rho=0.4,
                             true_delta=-2.0, noise_sigma=0.2,
                             post_onset_index=60, seed=21)
        regions, panel, _ = generate(spec)
        data_dir.mkdir(parents=True, exist_ok=True)
        dataio.write_regions_csv(regions, panel.treated, data_dir / "regions.csv")
        dataio.write_panel_csv(panel, data_dir / "panel.csv")
        return load_run_config(overrides=dict(
            regions=str(data_dir / "regions.csv"),
            panel=str(data_dir / "panel.csv"),
            out=str(out_dir),
            post_onset_date=panel.times[60].isoformat(),
            target_transform="standardize",
            context_len=20, horizon=4, epochs=6, hidden_size=8,
            num_layers=1, num_samples=30, batch_size=32, seed=seed))

    def test_end_to_end_determinism(self, tmp_path):
        """Identical config + seed -> byte-identical forecast and score
        artifacts across two runs."""
        data = tmp_path / "data"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = run_pipeline(self._pipeline_config(data, tmp_path / "a"))
            b = run_pipeline(self._pipeline_config(data, tmp_path / "b"))
        same = all(
            a[name].read_bytes() == b[name].read_bytes()
            for name in ("forecast_samples.csv", "scores.csv", "scores_long.csv")
        )
        _report("end-to-end determinism", same,
                "forecast_samples.csv and scores.csv byte-identical")

    def test_checkpoint_round_trip(self, tmp_path):
        """Save/load a trained model -> bit-identical forecasts."""
        from stcast.causal import AdjustedPanel
        from conftest import make_panel

        rng = np.random.default_rng(5)
        y = np.cumsum(rng.normal(0, 0.3, size=(3, 60)), axis=1)
        panel = make_panel(y, c=rng.normal(size=(3, 60, 4)))
        adjusted = AdjustedPanel(y_tilde=y.copy(), z=y + 0.1 * rng.normal(size=y.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = ForecastModel(ModelConfig(
                hidden_size=8, num_layers=2, context_len=10, horizon=2,
                epochs=3, seed=1, batch_size=16))
        model.fit(adjusted, panel)
        model.save(tmp_path / "model.npz")
        clone = ForecastModel.load(tmp_path / "model.npz")
        a = model.forecast(adjusted.z, panel.y, seed=11)
        b = clone.forecast(adjusted.z, panel.y, seed=11)
        identical = np.array_equal(a.samples, b.samples)
        _report("checkpoint round-trip", identical,
                "forecasts bit-identical after save/load")
