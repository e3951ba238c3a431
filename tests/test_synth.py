import datetime as dt
import re
import warnings

import numpy as np
import pytest

from stcast import dataio
from stcast.causal import coefficient_names
from stcast.errors import GeneratorInstabilityError, InputValidationError
from stcast.forecaster import ModelConfig
from stcast.spatial import Region, RegionSet, build_spatial_matrix, spatial_lag
from stcast.synth import BURN_IN, GeneratorSpec, _draw_noise, generate

from conftest import coefficients, gammas

EXPLODED_AT_1 = r"^dynamics exploded at step 1 \(\|y\| > 1e\+09\)$"


def _per_step_generate(spec):
    """The generator written one time step at a time, region-major, with
    the drift rebuilt at every step: the reference ``generate`` must match
    bit for bit.  Returns the panel's (y, c, treated, post), the retained
    window as compact C-ordered copies."""
    rng = np.random.default_rng(spec.seed)
    n, t, d = spec.n_regions, spec.t_steps, spec.d
    if spec.coordinates is None:
        coords = list(zip(rng.uniform(-60.0, 60.0, n),
                          rng.uniform(-179.0, 179.0, n)))
    else:
        coords = spec.coordinates
    S = build_spatial_matrix(RegionSet(tuple(
        Region(f"R{i:02d}", float(lat), float(lon))
        for i, (lat, lon) in enumerate(coords))), spec.alpha)
    n_treated = int(np.clip(round(spec.treated_fraction * n), 1, n - 1))
    treated = np.zeros(n)
    treated[rng.permutation(n)[:n_treated]] = 1.0

    total = BURN_IN + t
    phi = spec.cov_persistence
    c = np.empty((n, total, d))
    stat_sd = spec.cov_noise_scale / np.sqrt(max(1.0 - phi * phi, 1e-12))
    c[:, 0, :] = rng.normal(0.0, stat_sd, (n, d))
    shocks = rng.normal(0.0, spec.cov_noise_scale, (n, total - 1, d))
    for s in range(1, total):
        c[:, s, :] = phi * c[:, s - 1, :] + shocks[:, s - 1, :]
    post = np.zeros(total)
    post[BURN_IN + spec.post_onset_index:] = 1.0
    if spec.cov_shift_treated_post != 0.0:
        c[:, :, 0] += spec.cov_shift_treated_post * np.outer(treated, post)

    gamma = np.asarray(spec.true_gamma, dtype=float)
    eps = _draw_noise(rng, spec, (n, total))
    y = np.empty((n, total))
    y[:, 0] = (spec.true_beta0 + spec.true_beta1 * treated
               + c[:, 0, :] @ gamma + eps[:, 0])
    for s in range(1, total):
        drift = (spec.true_beta0 + spec.true_beta1 * treated
                 + spec.true_beta2 * post[s]
                 + spec.true_delta * treated * post[s]
                 + c[:, s, :] @ gamma + eps[:, s])
        y[:, s] = spec.true_rho * (S.weights @ y[:, s - 1]) + drift
    return (y[:, BURN_IN:].copy(), c[:, BURN_IN:, :].copy(), treated,
            post[BURN_IN:].copy())


class TestGeneratorSpec:
    def test_rejects_nonstationary_rho(self):
        with pytest.raises(InputValidationError):
            GeneratorSpec(true_rho=1.0)

    def test_rejects_bad_onset(self):
        with pytest.raises(InputValidationError):
            GeneratorSpec(t_steps=100, post_onset_index=0)
        with pytest.raises(InputValidationError):
            GeneratorSpec(t_steps=100, post_onset_index=100)

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(InputValidationError):
            GeneratorSpec(treated_fraction=0.0)

    @pytest.mark.parametrize("name, value", [
        ("n_regions", 6.0), ("t_steps", 300.0), ("post_onset_index", 150.0),
        ("n_regions", True), ("t_steps", "300"), ("post_onset_index", None),
    ])
    def test_rejects_non_integer_size(self, name, value):
        with pytest.raises(InputValidationError,
                           match=f"^{name} must be an integer$"):
            GeneratorSpec(**{name: value})

    @pytest.mark.parametrize("value", [-1, 1.0, True, "3", None])
    def test_rejects_bad_seed(self, value):
        # The same rule and message as the forecaster's seed.
        with pytest.raises(InputValidationError,
                           match="^seed must be a non-negative integer$"):
            GeneratorSpec(seed=value)
        with pytest.raises(InputValidationError,
                           match="^seed must be a non-negative integer$"):
            ModelConfig(seed=value)

    def test_range_messages_kept(self):
        with pytest.raises(InputValidationError,
                           match="^need at least 2 regions$"):
            GeneratorSpec(n_regions=1)
        with pytest.raises(InputValidationError,
                           match="^post_onset_index must leave"):
            GeneratorSpec(post_onset_index=-1)
        assert GeneratorSpec(n_regions=np.int64(4), seed=np.uint32(7)).seed == 7

    @pytest.mark.parametrize("name, value", [
        ("noise_sigma", -1.0), ("noise_sigma", np.nan), ("noise_sigma", np.inf),
        ("cov_noise_scale", -0.5), ("cov_noise_scale", np.nan),
        ("cov_noise_scale", np.inf), ("noise_df", 0.0), ("noise_df", -3.0),
        ("noise_df", np.nan),
    ])
    def test_rejects_bad_noise_scale(self, name, value):
        with pytest.raises(InputValidationError, match=name):
            GeneratorSpec(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("true_rho", np.nan), ("true_delta", np.nan), ("true_beta0", np.inf),
        ("true_beta1", -np.inf), ("true_beta2", np.nan),
        ("true_gamma", (1.0, np.nan)), ("cov_shift_treated_post", np.inf),
    ])
    def test_rejects_non_finite_coefficient(self, name, value):
        # abs(nan) >= 1 is false, so a NaN rho would pass the stationarity
        # check and fail only later, as a non-finite y naming no setting.
        with pytest.raises(InputValidationError,
                           match=f"^{name} must be finite, got "):
            GeneratorSpec(**{name: value})

    REAL_SETTINGS = ("alpha", "true_rho", "true_delta", "true_gamma",
                     "true_beta0", "true_beta1", "true_beta2",
                     "treated_fraction", "cov_persistence", "cov_noise_scale",
                     "noise_sigma", "noise_df", "cov_shift_treated_post")

    @pytest.mark.parametrize("value", [True, "0.5", None, np.nan],
                             ids=["bool", "str", "None", "nan"])
    @pytest.mark.parametrize("name", REAL_SETTINGS)
    def test_real_setting_refuses_non_real(self, name, value):
        # A bool compares as 0 or 1 and a string or None would escape as a
        # bare TypeError; NaN fails every range.  true_gamma's entries are
        # held to the rule one by one.
        given = (value,) if name == "true_gamma" else value
        with pytest.raises(InputValidationError, match=f"^{name} must be ") as exc:
            GeneratorSpec(**{name: given})
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("value", [True, "0.5", None, np.nan, 1.0])
    def test_gamma_must_be_a_sequence(self, value):
        with pytest.raises(InputValidationError,
                           match="^true_gamma must be a sequence of reals, got "):
            GeneratorSpec(true_gamma=value)

    @pytest.mark.parametrize("name, value, message", [
        ("true_rho", 1.0, r"true_rho must be in \(-1, 1\), got 1.0"),
        ("true_rho", -1, r"true_rho must be in \(-1, 1\), got -1"),
        ("treated_fraction", 1.0,
         r"treated_fraction must be in \(0, 1\), got 1.0"),
        ("cov_persistence", 1.0,
         r"cov_persistence must be in \[0, 1\), got 1.0"),
        ("cov_noise_scale", -0.5,
         "cov_noise_scale must be finite and >= 0, got -0.5"),
        ("noise_df", 0.0, "noise_df must be finite and > 0, got 0.0"),
        ("noise_df", np.inf, "noise_df must be finite, got inf"),
        ("alpha", 0, "alpha must be finite and > 0, got 0"),
    ])
    def test_range_of_each_real_setting(self, name, value, message):
        # An infinite noise_df would draw a NaN noise scale.
        with pytest.raises(InputValidationError, match=f"^{message}$"):
            GeneratorSpec(**{name: value})

    def test_edges_inside_the_ranges_accepted(self):
        spec = GeneratorSpec(cov_persistence=0.0, noise_sigma=0.0,
                             cov_noise_scale=0, true_rho=np.float32(-0.5),
                             true_gamma=[np.int64(1), 0.5], noise_df=1e-3)
        assert spec.d == 2

    @pytest.mark.parametrize("pair, message", [
        ((0, "x"), "^longitude of coordinate pair 0 must be a real number, got 'x'$"),
        ((True, 0), "^latitude of coordinate pair 0 must be a real number, got True$"),
        ((95, 0), r"^latitude of coordinate pair 0 must be in \[-90, 90\], got 95$"),
        ((0, -180.5),
         r"^longitude of coordinate pair 0 must be in \[-180, 180\], got -180.5$"),
        ((0, np.nan), r"^longitude of coordinate pair 0 must be finite, got nan$"),
        (None, r"^coordinate pair 0 must be \(latitude, longitude\), got None$"),
        ((1.0,), r"^coordinate pair 0 must be \(latitude, longitude\), got \(1.0,\)$"),
        ((1, 2, 3), r"^coordinate pair 0 must be \(latitude, longitude\), got "),
        (5.0, r"^coordinate pair 0 must be \(latitude, longitude\), got 5.0$"),
    ])
    def test_rejects_bad_coordinate_pair(self, pair, message):
        # Each entry is checked when the spec is built, not by generate,
        # where a string or None escaped as a bare ValueError or TypeError
        # and a bool passed on as a latitude of 1.0.
        with pytest.raises(InputValidationError, match=message) as exc:
            GeneratorSpec(n_regions=2, coordinates=(pair, (1.0, 1.0)))
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("lat, lon", [(0, "x"), (True, 0), (95, 0),
                                          (0, -180.5), (0, np.nan)])
    def test_coordinate_rule_is_the_region_sets(self, lat, lon):
        with pytest.raises(InputValidationError) as from_spec:
            GeneratorSpec(n_regions=2, coordinates=((lat, lon), (1.0, 1.0)))
        with pytest.raises(InputValidationError) as from_regions:
            RegionSet((Region("a", lat, lon), Region("b", 1.0, 1.0)))
        assert (str(from_spec.value).replace(" of coordinate pair 0", "")
                == str(from_regions.value).replace(" of region 'a'", ""))

    @pytest.mark.parametrize("coordinates", [5, "ab", ((0.0, 0.0),)])
    def test_rejects_coordinates_not_one_pair_per_region(self, coordinates):
        with pytest.raises(InputValidationError, match="coordinate") as exc:
            GeneratorSpec(n_regions=2, coordinates=coordinates)
        assert exc.value.exit_code == 2

    def test_edge_coordinates_accepted(self):
        pairs = np.array([[-90.0, -180.0], [90.0, 180.0], [0.0, 0.0]])
        spec = GeneratorSpec(n_regions=3, coordinates=pairs, t_steps=30,
                             post_onset_index=15)
        regions, _, _ = generate(spec)
        assert regions.coordinates().tolist() == pairs.tolist()

    @pytest.mark.parametrize("value", ["2020-06-01", None, 20200601])
    def test_rejects_start_date_not_a_date(self, value):
        # generate would fail on it with a bare TypeError.
        with pytest.raises(InputValidationError,
                           match="^start_date must be a date, got ") as exc:
            GeneratorSpec(start_date=value)
        assert exc.value.exit_code == 2

    def test_noise_family_choices_message(self):
        with pytest.raises(InputValidationError, match=re.escape(
                "noise_family must be one of ('gaussian', 'student_t'), got 'x'")):
            GeneratorSpec(noise_family="x")


class TestGenerate:
    def test_degenerate_dgp_closed_form(self):
        # No noise, no spillover, no covariate effects, no group/period
        # terms: y is beta0 everywhere except treated-post cells, which
        # sit at beta0 + delta.
        spec = GeneratorSpec(
            n_regions=4, t_steps=40, noise_sigma=0.0, true_rho=0.0,
            true_gamma=(0.0, 0.0), true_beta0=2.0, true_beta1=0.0,
            true_beta2=0.0, true_delta=-1.5, post_onset_index=20, seed=0,
        )
        _, panel, _ = generate(spec)
        expected = np.full((4, 40), 2.0)
        expected += -1.5 * np.outer(panel.treated, panel.post)
        assert np.allclose(panel.y, expected, atol=1e-12)

    def test_seeded_determinism(self):
        spec = GeneratorSpec(seed=33, t_steps=80, post_onset_index=40)
        _, p1, _ = generate(spec)
        _, p2, _ = generate(spec)
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(p1.c, p2.c)
        assert np.array_equal(p1.treated, p2.treated)

    def test_different_seeds_differ(self):
        base = dict(t_steps=80, post_onset_index=40)
        _, p1, _ = generate(GeneratorSpec(seed=1, **base))
        _, p2, _ = generate(GeneratorSpec(seed=2, **base))
        assert not np.array_equal(p1.y, p2.y)

    def test_lag_column_matches_spatial_module(self):
        # Re-simulate the recursion using spatial_lag and the returned
        # panel; the reconstruction must be exact.
        spec = GeneratorSpec(seed=9, t_steps=60, noise_sigma=0.0,
                             post_onset_index=30)
        regions, panel, truth = generate(spec)
        S = build_spatial_matrix(regions, spec.alpha)
        lag = spatial_lag(S, panel.y)
        b = coefficients(truth)
        rhs = (truth.rho * lag[:, :-1]
               + b["beta0"]
               + b["beta1"] * panel.treated[:, None]
               + b["beta2"] * panel.post[None, 1:]
               + truth.delta * np.outer(panel.treated, panel.post[1:])
               + np.einsum("itd,d->it", panel.c[:, 1:, :], gammas(truth)))
        assert np.allclose(panel.y[:, 1:], rhs, atol=1e-12)

    def test_ground_truth_echoes_spec(self):
        spec = GeneratorSpec(true_rho=0.25, true_delta=-0.7,
                             true_gamma=(0.1, 0.2), seed=4,
                             t_steps=50, post_onset_index=25)
        _, _, truth = generate(spec)
        assert truth.coefficient_values() == [0.25, 1.0, 0.5, -0.3, -0.7,
                                              0.1, 0.2]
        assert truth.standard_errors == {}
        assert truth.residual_variance == spec.noise_sigma**2

    @pytest.mark.parametrize("true_gamma", [(0.1, 0.2, -0.3, 0.4), ()],
                             ids=["D=4", "D=0"])
    def test_ground_truth_csv_rows(self, true_gamma, tmp_path):
        spec = GeneratorSpec(true_gamma=true_gamma, seed=4,
                             t_steps=50, post_onset_index=25)
        _, _, truth = generate(spec)
        names = coefficient_names(len(true_gamma))
        assert list(truth.table) == names
        path = tmp_path / "ground_truth.csv"
        dataio.write_ground_truth_csv(truth, path)
        rows = [line.split(",")[0] for line in path.read_text().splitlines()]
        assert rows == ["coefficient", *names, "residual_variance"]

    def test_treated_and_control_both_present(self):
        for seed in range(5):
            spec = GeneratorSpec(seed=seed, treated_fraction=0.5,
                                 t_steps=50, post_onset_index=25)
            _, panel, _ = generate(spec)
            assert 0 < panel.treated.sum() < panel.n

    def test_explicit_coordinates_respected(self):
        coords = ((0.0, 0.0), (0.0, 10.0), (10.0, 0.0))
        spec = GeneratorSpec(n_regions=3, coordinates=coords,
                             t_steps=30, post_onset_index=15)
        regions, _, _ = generate(spec)
        assert regions.coordinates() == pytest.approx(np.array(coords))

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(seed=11),
        GeneratorSpec(noise_family="student_t", noise_df=4.0, noise_sigma=0.5,
                      seed=12, t_steps=120, post_onset_index=60),
        GeneratorSpec(cov_shift_treated_post=0.8, seed=13, t_steps=90,
                      post_onset_index=40),
        GeneratorSpec(true_gamma=(), seed=14, t_steps=90, post_onset_index=45),
        GeneratorSpec(n_regions=3, coordinates=((0.0, 0.0), (10.0, 5.0),
                                                (-20.0, 30.0)),
                      true_rho=-0.5, seed=15, t_steps=50, post_onset_index=25),
        GeneratorSpec(cov_persistence=0.0, seed=16, t_steps=70,
                      post_onset_index=35),
        GeneratorSpec(n_regions=500, t_steps=40, post_onset_index=20, seed=17),
    ], ids=["default", "student_t", "cov_shift", "D=0", "coordinates",
            "cov_persistence=0", "N=500"])
    def test_matches_per_step_reference(self, spec):
        _, panel, _ = generate(spec)
        got = (panel.y, panel.c, panel.treated, panel.post)
        for name, a, b in zip(("y", "c", "treated", "post"), got,
                              _per_step_generate(spec)):
            assert a.tobytes() == b.tobytes(), name
            assert (a.shape, a.strides) == (b.shape, b.strides), name
            assert (a.flags.c_contiguous, a.flags.f_contiguous) == \
                (b.flags.c_contiguous, b.flags.f_contiguous), name

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(seed=21),
        GeneratorSpec(n_regions=500, t_steps=40, post_onset_index=20, seed=22),
        GeneratorSpec(true_gamma=(), seed=23, t_steps=90, post_onset_index=45),
    ], ids=["default", "N=500", "D=0"])
    def test_panel_arrays_hold_only_the_window(self, spec):
        # No burn-in stays alive behind a view: each array owns exactly
        # its own floats.
        _, panel, _ = generate(spec)
        for name in ("y", "c", "post"):
            a = getattr(panel, name)
            assert a.flags.owndata, name
            assert a.nbytes == a.size * 8, name
        assert panel.y.shape == (spec.n_regions, spec.t_steps)
        assert panel.c.shape == (spec.n_regions, spec.t_steps, spec.d)

    def test_panels_share_one_calendar(self):
        start = dt.date(2021, 3, 30)
        base = dict(start_date=start, t_steps=40, post_onset_index=20)
        _, p1, _ = generate(GeneratorSpec(seed=1, **base))
        _, p2, _ = generate(GeneratorSpec(seed=2, **base))
        assert p1.times is p2.times
        _, p3, _ = generate(GeneratorSpec(seed=1, **{**base, "t_steps": 41}))
        assert p3.times == tuple(start + dt.timedelta(days=k)
                                 for k in range(41))
        assert p1.times == p3.times[:40]

    def test_explosive_dynamics_detected(self):
        # Large beta0 with rho near 1 pushes the level towards
        # beta0/(1-rho); it passes the stability bound at the first
        # checked step.
        spec = GeneratorSpec(true_rho=0.99, true_beta0=1e9, noise_sigma=0.0,
                             t_steps=60, post_onset_index=30, seed=0)
        with pytest.raises(GeneratorInstabilityError, match=EXPLODED_AT_1):
            generate(spec)

    def test_overflow_reported_without_warning(self):
        # At beta0 = 1e307 the level overflows to inf a few steps after
        # it passes the bound; that must surface as the same error and no
        # floating-point warning.
        spec = GeneratorSpec(true_rho=0.99, true_beta0=1e307, noise_sigma=0.0,
                             t_steps=60, post_onset_index=30, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeneratorInstabilityError, match=EXPLODED_AT_1):
                generate(spec)

    def test_student_t_noise_option(self):
        spec = GeneratorSpec(noise_family="student_t", noise_df=4.0,
                             noise_sigma=0.5, seed=6, t_steps=100,
                             post_onset_index=50)
        _, panel, _ = generate(spec)
        assert np.all(np.isfinite(panel.y))

    def test_parallel_trends_when_delta_zero(self):
        # With delta = 0 the treated-minus-control gap is the same
        # before and after onset, up to noise.
        gaps_pre, gaps_post = [], []
        for seed in range(40):
            spec = GeneratorSpec(true_delta=0.0, noise_sigma=0.1, seed=seed,
                                 t_steps=200, post_onset_index=100,
                                 true_rho=0.3)
            _, panel, _ = generate(spec)
            treated = panel.treated == 1.0
            pre = panel.post == 0.0
            gap = panel.y[treated].mean(axis=0) - panel.y[~treated].mean(axis=0)
            gaps_pre.append(gap[pre].mean())
            gaps_post.append(gap[~pre].mean())
        shift = np.mean(gaps_post) - np.mean(gaps_pre)
        spread = np.std(np.array(gaps_post) - np.array(gaps_pre), ddof=1)
        assert abs(shift) < 3.0 * spread / np.sqrt(40)
