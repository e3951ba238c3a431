import datetime as dt

import numpy as np
import pytest

from stcast import _blas
from stcast.causal import Panel
from stcast.spatial import Region, RegionSet


@pytest.fixture
def square_regions():
    """Four regions roughly at the corners of a 10-degree box."""
    return RegionSet((
        Region("A", 40.0, -5.0),
        Region("B", 40.0, 5.0),
        Region("C", 50.0, -5.0),
        Region("D", 50.0, 5.0),
    ))


def make_panel(y, c=None, treated=None, post=None, start=dt.date(2021, 1, 1)):
    """Panel from raw arrays with daily dates and permissive defaults."""
    y = np.asarray(y, dtype=float)
    n, t = y.shape
    if c is None:
        c = np.zeros((n, t, 4))
    if treated is None:
        treated = np.array([1.0] * (n // 2) + [0.0] * (n - n // 2))
    if post is None:
        post = np.array([0.0] * (t // 2) + [1.0] * (t - t // 2))
    return Panel(
        region_ids=tuple(f"R{i:02d}" for i in range(n)),
        times=tuple(start + dt.timedelta(days=k) for k in range(t)),
        y=y,
        c=np.asarray(c, dtype=float),
        treated=np.asarray(treated, dtype=float),
        post=np.asarray(post, dtype=float),
    )


@pytest.fixture
def small_panel():
    rng = np.random.default_rng(123)
    return make_panel(rng.normal(size=(4, 12)), c=rng.normal(size=(4, 12, 4)))


def coefficients(est):
    """Coefficient name -> estimate, over the estimate's table rows."""
    return {name: value for name, (value, _) in est.table.items()}


def gammas(est):
    """The covariate coefficients gamma1..gammaD as an array."""
    return np.array([value for name, (value, _) in est.table.items()
                     if name.startswith("gamma")])


def _pool_at_3(name):
    """The (get, set) thread-count handles of the pool ``name`` of
    ``_blas.POOLS``, with the pool at 3 threads for the test: a count that
    a scope setting 1 changes on any machine, and not the default that a
    restore to a fixed count would reach on a 2-core one.  Its count is
    restored after."""
    if name not in _blas.POOLS:
        pytest.skip(f"{name} does not bundle a scipy-openblas library")
    get_threads, set_threads = _blas.POOLS[name]
    before = get_threads()
    set_threads(3)
    yield get_threads, set_threads
    set_threads(before)


@pytest.fixture
def scipy_pool():
    yield from _pool_at_3("scipy")


@pytest.fixture
def numpy_pool():
    yield from _pool_at_3("numpy")
