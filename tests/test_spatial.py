import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stcast.errors import DegenerateInputError, InputValidationError
from stcast.spatial import (
    EARTH_RADIUS_KM,
    Region,
    RegionSet,
    SpatialMatrix,
    build_spatial_matrix,
    pairwise_distances,
    spatial_lag,
)
from stcast.synth import GeneratorSpec, generate

# Computed independently with a 30-digit haversine and cross-checked
# against the spherical law of cosines before this module was written.
LONDON = (51.5074, -0.1278)
PARIS = (48.8566, 2.3522)
LONDON_PARIS_KM = 343.556534880884

coord = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


def geodesic_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Haversine distance in km between two (lat, lon) points in degrees,
    one pair at a time in the ``math`` module: the reference that
    ``pairwise_distances`` must match bit for bit."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    h = sin_dlat**2 + math.cos(lat1) * math.cos(lat2) * sin_dlon**2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _region_set(coords):
    return RegionSet(tuple(Region(f"R{k:03d}", float(lat), float(lon))
                           for k, (lat, lon) in enumerate(coords)))


def _distance(a, b):
    """Distance from ``a`` to ``b`` through ``pairwise_distances``."""
    return pairwise_distances(_region_set([a, b]))[0, 1]


class TestGeodesicDistance:
    def test_coincident_points(self):
        for point in [(0.0, 0.0), (45.0, -120.0), (-33.9, 151.2)]:
            assert _distance(point, point) == 0.0

    def test_equatorial_antipodes_half_circumference(self):
        d = _distance((0.0, 0.0), (0.0, 180.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-9)

    def test_london_paris_oracle(self):
        d = _distance(LONDON, PARIS)
        assert d == pytest.approx(LONDON_PARIS_KM, abs=1e-6)

    def test_out_of_range_rejected(self):
        for bad in [(91.0, 0.0), (0.0, 200.0), (float("nan"), 0.0)]:
            with pytest.raises(InputValidationError):
                _region_set([bad, (0.0, 0.0)])

    @settings(max_examples=150, deadline=None)
    @given(a=coord, b=coord, c=coord)
    def test_symmetry_and_triangle_inequality(self, a, b, c):
        ab = _distance(a, b)
        ba = _distance(b, a)
        assert ab == pytest.approx(ba, abs=1e-9)
        ac = _distance(a, c)
        cb = _distance(c, b)
        assert ab <= ac + cb + 1e-9


def _geodesic_loop(rs):
    """The double-loop oracle: one ``geodesic_distance`` call per pair."""
    coords = rs.coordinates()
    d = np.zeros((rs.n, rs.n))
    for i in range(rs.n):
        for j in range(i + 1, rs.n):
            d[i, j] = d[j, i] = geodesic_distance(
                (coords[i, 0], coords[i, 1]), (coords[j, 0], coords[j, 1])
            )
    return d


class TestPairwiseDistances:
    """The vectorised haversine must equal the scalar one bit for bit."""

    @pytest.mark.parametrize("n", [2, 6, 500])
    def test_synthetic_region_sets(self, n):
        regions, _, _ = generate(GeneratorSpec(
            n_regions=n, t_steps=4, post_onset_index=2, seed=n))
        assert np.array_equal(pairwise_distances(regions),
                              _geodesic_loop(regions))

    def test_uniform_global_points(self):
        rng = np.random.default_rng(2024)
        rs = _region_set(zip(rng.uniform(-90.0, 90.0, 400),
                             rng.uniform(-180.0, 180.0, 400)))
        assert np.array_equal(pairwise_distances(rs), _geodesic_loop(rs))

    def test_poles_antimeridian_and_coincident_points(self):
        rs = _region_set([
            (90.0, 0.0), (90.0, 180.0), (-90.0, 0.0), (-90.0, -180.0),
            (0.0, 180.0), (0.0, -180.0), (0.0, 0.0), (12.5, 179.999),
            (-12.5, -179.999), (45.0, -120.0), (45.0, -120.0),
            (-33.9, 151.2), (33.9, -28.8),
        ])
        d = pairwise_distances(rs)
        assert np.array_equal(d, _geodesic_loop(rs))
        assert d[9, 10] == 0.0
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)


class TestBuildSpatialMatrix:
    def test_two_regions_single_neighbor(self):
        rs = RegionSet((Region("a", 0.0, 0.0), Region("b", 10.0, 10.0)))
        S = build_spatial_matrix(rs, alpha=2.7)
        assert np.array_equal(S.weights, [[0.0, 1.0], [1.0, 0.0]])

    def test_equator_three_regions_alpha_one(self):
        # Distances along the equator scale with longitude, so the
        # inverse-distance weights reduce to exact ratios: row 0 sees
        # neighbors at 1 and 3 degrees -> weights 3:1.
        rs = RegionSet((
            Region("a", 0.0, 0.0),
            Region("b", 0.0, 1.0),
            Region("c", 0.0, 3.0),
        ))
        S = build_spatial_matrix(rs, alpha=1.0)
        expected = np.array([
            [0.0, 0.75, 0.25],
            [2.0 / 3.0, 0.0, 1.0 / 3.0],
            [0.4, 0.6, 0.0],
        ])
        assert np.allclose(S.weights, expected, atol=1e-12)

    def test_equidistant_triangle_equal_weights(self):
        # Three points on the equator 120 degrees apart are pairwise
        # equidistant; any alpha gives 0.5 everywhere off-diagonal.
        rs = RegionSet((
            Region("a", 0.0, 0.0),
            Region("b", 0.0, 120.0),
            Region("c", 0.0, -120.0),
        ))
        S = build_spatial_matrix(rs, alpha=2.0)
        expected = np.full((3, 3), 0.5)
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(S.weights, expected, atol=1e-12)

    def test_single_region_degenerate(self):
        with pytest.raises(DegenerateInputError):
            RegionSet((Region("a", 0.0, 0.0),))

    def test_nonpositive_alpha_rejected(self, square_regions):
        with pytest.raises(InputValidationError):
            build_spatial_matrix(square_regions, alpha=0.0)
        with pytest.raises(InputValidationError):
            build_spatial_matrix(square_regions, alpha=-1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_nonfinite_alpha_rejected(self, square_regions, alpha):
        # A NaN or infinite exponent would give NaN weights.
        with pytest.raises(InputValidationError, match="alpha must be finite"):
            build_spatial_matrix(square_regions, alpha=alpha)

    def test_distance_floor_bounds_weights(self):
        # Two nearly coincident regions plus one far region: without the
        # 1 km clamp the near pair would soak up all weight of row 2.
        rs = RegionSet((
            Region("a", 0.0, 0.0),
            Region("b", 0.0, 1e-7),
            Region("c", 0.0, 90.0),
        ))
        S = build_spatial_matrix(rs, alpha=1.0)
        assert np.all(np.isfinite(S.weights))
        assert abs(S.weights.sum(axis=1) - 1.0).max() < 1e-12

    def test_invariants_over_random_geometries(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rs = RegionSet(tuple(
                Region(f"r{i}", rng.uniform(-80, 80), rng.uniform(-179, 179))
                for i in range(n)
            ))
            alpha = float(rng.uniform(0.2, 4.0))
            S = build_spatial_matrix(rs, alpha)
            assert np.all(np.diag(S.weights) == 0.0)
            assert np.all(S.weights >= 0.0)
            assert np.abs(S.weights.sum(axis=1) - 1.0).max() < 1e-12

    def test_alpha_monotone_localization(self):
        # Raising alpha must strictly raise the nearest neighbor's weight
        # relative to the farthest one.
        rng = np.random.default_rng(7)
        for _ in range(25):
            rs = RegionSet(tuple(
                Region(f"r{i}", rng.uniform(-60, 60), rng.uniform(-179, 179))
                for i in range(5)
            ))
            from stcast.spatial import pairwise_distances
            d = pairwise_distances(rs)
            row = d[0, 1:]
            near, far = 1 + np.argmin(row), 1 + np.argmax(row)
            prev_ratio = None
            for alpha in (0.5, 1.0, 2.0, 4.0):
                S = build_spatial_matrix(rs, alpha)
                ratio = S.weights[0, near] / S.weights[0, far]
                if prev_ratio is not None:
                    assert ratio > prev_ratio
                prev_ratio = ratio


class TestSpatialMatrixType:
    def test_rejects_nonzero_diagonal(self):
        w = np.array([[0.1, 0.9], [1.0, 0.0]])
        with pytest.raises(InputValidationError):
            SpatialMatrix(weights=w, alpha=1.0)

    def test_rejects_bad_row_sum(self):
        w = np.array([[0.0, 0.5], [1.0, 0.0]])
        with pytest.raises(InputValidationError):
            SpatialMatrix(weights=w, alpha=1.0)

    def test_rejects_nonfinite_alpha_and_weights(self):
        nan_w = np.array([[0.0, math.nan], [math.nan, 0.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for w, alpha in ((nan_w, math.nan), (nan_w, 1.0),
                         (swap, math.nan), (swap, math.inf)):
            with pytest.raises(InputValidationError):
                SpatialMatrix(weights=w, alpha=alpha)

    def test_rejects_negative_weights(self):
        w = np.array([[0.0, 1.5, -0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        with pytest.raises(InputValidationError):
            SpatialMatrix(weights=w, alpha=1.0)

    @pytest.mark.parametrize("ids, message", [
        (("a",), "^1 region ids for 2 rows$"),
        (("a", "b", "c"), "^3 region ids for 2 rows$"),
        (("a", "a"), r"^duplicate region ids: \['a'\]$"),
    ], ids=["too-few", "too-many", "repeated"])
    def test_region_ids_name_each_row_once(self, ids, message):
        # spatial_matrix_to_csv would write a header no reader accepts.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InputValidationError, match=message):
            SpatialMatrix(weights=swap, alpha=1.0, region_ids=ids)
        assert SpatialMatrix(weights=swap, alpha=1.0).region_ids == ()
        assert SpatialMatrix(weights=swap, alpha=1.0,
                             region_ids=("b", "a")).region_ids == ("b", "a")


class TestMatrixCsv:
    def test_dump_full_precision(self, square_regions, tmp_path):
        from stcast.dataio import spatial_matrix_to_csv

        S = build_spatial_matrix(square_regions, alpha=1.7)
        path = tmp_path / "spatial_matrix.csv"
        spatial_matrix_to_csv(S, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(S.region_ids)
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(parsed, S.weights)


class TestSpatialLag:
    def test_permutation_swap(self):
        S = SpatialMatrix(weights=np.array([[0.0, 1.0], [1.0, 0.0]]), alpha=1.0)
        series = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
        out = spatial_lag(S, series)
        assert np.array_equal(out, series[::-1])

    def test_constant_series_preserved(self, square_regions):
        S = build_spatial_matrix(square_regions, alpha=1.0)
        series = np.full((4, 6), 3.25)
        out = spatial_lag(S, series)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_matches_double_loop_oracle(self, square_regions):
        S = build_spatial_matrix(square_regions, alpha=1.3)
        rng = np.random.default_rng(11)
        series = rng.normal(size=(4, 10))
        expected = np.zeros_like(series)
        for i in range(4):
            for t in range(10):
                for j in range(4):
                    expected[i, t] += S.weights[i, j] * series[j, t]
        assert np.allclose(spatial_lag(S, series), expected, atol=1e-12)

    def test_dimension_mismatch(self, square_regions):
        S = build_spatial_matrix(square_regions, alpha=1.0)
        with pytest.raises(InputValidationError):
            spatial_lag(S, np.zeros((3, 5)))
