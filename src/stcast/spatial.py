"""Inter-region distance geometry and row-stochastic spatial weights.

The weight matrix assigns every region a convex combination of all other
regions, with influence decaying as an inverse power of great-circle
distance.  Rows sum to one, the diagonal is exactly zero, and a larger
decay exponent concentrates weight on nearer neighbours.  This module
writes no file: ``dataio.spatial_matrix_to_csv`` writes the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import (DegenerateInputError, InputValidationError,
                     check_distinct, check_real)

EARTH_RADIUS_KM = 6371.0088

# Pairwise distances are clamped from below so near-coincident regions
# cannot blow up the inverse-distance weights.
MIN_DISTANCE_KM = 1.0

DEFAULT_ALPHA = 1.0

ROW_SUM_TOL = 1e-12


def check_coordinates(lat, lon, where: str = "") -> None:
    """Reject a latitude outside [-90, 90] or a longitude outside
    [-180, 180] degrees, or either not a real number; ``where`` names
    the pair in the message."""
    check_real("latitude" + where, lat, "[-90, 90]")
    check_real("longitude" + where, lon, "[-180, 180]")


@dataclass(frozen=True)
class Region:
    region_id: str
    lat: float
    lon: float


@dataclass(frozen=True)
class RegionSet:
    """Ordered collection of regions with geographic coordinates."""

    regions: tuple[Region, ...]

    def __post_init__(self):
        if len(self.regions) < 2:
            raise DegenerateInputError(
                f"need at least 2 regions, got {len(self.regions)}"
            )
        check_distinct(self.region_ids)
        for r in self.regions:
            check_coordinates(r.lat, r.lon, where=f" of region {r.region_id!r}")

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def region_ids(self) -> list[str]:
        return [r.region_id for r in self.regions]

    def coordinates(self) -> np.ndarray:
        """(N, 2) array of (lat, lon) in degrees."""
        return np.array([(r.lat, r.lon) for r in self.regions], dtype=float)


@dataclass(frozen=True)
class SpatialMatrix:
    """Row-stochastic inverse-distance weight matrix.

    Invariants (checked at construction): a finite ``alpha`` > 0, finite
    and non-negative entries, zero diagonal, every row sums to 1 within
    ``ROW_SUM_TOL``, and ``region_ids``, when given, name each row once.
    """

    weights: np.ndarray
    alpha: float
    region_ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputValidationError(f"weights must be square, got {w.shape}")
        check_real("alpha", self.alpha, "(0, inf)")
        if self.region_ids:
            if len(self.region_ids) != w.shape[0]:
                raise InputValidationError(
                    f"{len(self.region_ids)} region ids for {w.shape[0]} rows")
            check_distinct(self.region_ids)
        if not np.all(np.isfinite(w)):
            raise InputValidationError("weights must be finite")
        if np.any(np.diag(w) != 0.0):
            raise InputValidationError("diagonal entries must be exactly 0")
        if np.any(w < 0):
            raise InputValidationError("weights must be non-negative")
        worst = np.max(np.abs(w.sum(axis=1) - 1.0))
        if not worst < ROW_SUM_TOL:     # NaN fails too
            raise InputValidationError(
                f"rows must sum to 1 within {ROW_SUM_TOL}; "
                f"worst deviation {worst:.3e}"
            )

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of each element as a Python float: libm rounds, not numpy."""
    return np.fromiter(map(fn, values.tolist()), float, values.size)


def _sin_squared(half_angles: np.ndarray) -> np.ndarray:
    """``math.sin(x)**2`` per element; Python's ``**`` is libm ``pow``,
    which can round differently from numpy's ``x*x``."""
    return np.fromiter(map(pow, map(math.sin, half_angles.tolist()), repeat(2.0)),
                       float, half_angles.size)


def pairwise_distances(rs: RegionSet) -> np.ndarray:
    """(N, N) symmetric matrix of great-circle (haversine) distances in km.

    Each pair i < j gets, bit for bit, the scalar haversine written with
    the ``math`` module: the IEEE operations (subtract, halve, multiply,
    add, radians, sqrt, min) run in numpy, and sin, cos, asin and the
    squares in libm, in that formula's operand order.  Coordinates were
    validated when the ``RegionSet`` was built.
    """
    lat, lon = np.radians(rs.coordinates()).T
    cos_lat = _libm(math.cos, lat)
    k = np.arange(rs.n)
    i, j = np.nonzero(k[:, None] < k)      # pairs i < j, as np.triu_indices(n, 1)
    sq_dlat = _sin_squared((lat[j] - lat[i]) / 2.0)
    sq_dlon = _sin_squared((lon[j] - lon[i]) / 2.0)
    h = sq_dlat + cos_lat[i] * cos_lat[j] * sq_dlon
    arc = _libm(math.asin, np.minimum(1.0, np.sqrt(h)))
    d = np.zeros((rs.n, rs.n))
    d[i, j] = d[j, i] = 2.0 * EARTH_RADIUS_KM * arc
    return d


def build_spatial_matrix(rs: RegionSet, alpha: float = DEFAULT_ALPHA) -> SpatialMatrix:
    """Construct the row-normalised inverse-distance weight matrix.

    Off-diagonal weight of region j on region i is ``d_ij**-alpha``
    renormalised so each row sums to one.  Distances are clamped to
    ``MIN_DISTANCE_KM`` before inversion.
    """
    check_real("alpha", alpha, "(0, inf)")
    d = pairwise_distances(rs)
    d = np.maximum(d, MIN_DISTANCE_KM)
    inv = d ** (-float(alpha))
    np.fill_diagonal(inv, 0.0)
    weights = inv / inv.sum(axis=1, keepdims=True)
    np.fill_diagonal(weights, 0.0)
    return SpatialMatrix(weights=weights, alpha=float(alpha),
                         region_ids=tuple(rs.region_ids))


def spatial_lag(S: SpatialMatrix, series: np.ndarray) -> np.ndarray:
    """Weighted neighbour average ``out[i, t] = sum_j S[i, j] * series[j, t]``.

    ``series`` is (N, T); the caller decides any temporal shift (the
    regression lags by one period, the adjusted-input construction is
    contemporaneous).
    """
    series = np.asarray(series, dtype=float)
    if series.shape[0] != S.n:
        raise InputValidationError(
            f"series has {series.shape[0]} rows but matrix is {S.n}x{S.n}"
        )
    return S.weights @ series
