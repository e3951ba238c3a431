"""The thread pools of the OpenBLAS libraries that numpy's and scipy's
wheels bundle, and the only module that loads those libraries.

numpy's products and scipy.linalg.lapack each run on their own wheel's
OpenBLAS pool.  ``POOLS`` maps each pool found ("numpy", "scipy") to its
(get, set) thread-count handles, ``blas_threads`` reads them for the run
manifest, and ``one_thread`` holds every pool at 1 thread.  ``fit_did``,
``adjust_panel``, ``ForecastModel.fit`` and ``ForecastModel.forecast``
hold it: a product split across threads can round differently, and the
fit's LAPACK designs (1788 x 13 and smaller at N=6, T=300; 19000 x 13 at
N=500, T=40) are too small for a second thread to pay.  On 2 cores one
thread took ``fit_did`` from 1.2 to 0.74 ms on the former and from 42 to
12 ms on the latter.
"""

import contextlib
import ctypes
import glob
import os
import threading

import numpy as np
import scipy


def _openblas(package, suffix: str):
    """(get, set) of the thread count of the OpenBLAS that ``package``'s
    wheel bundles in ``<package>.libs``, or None without that library or
    its ``scipy_openblas_{get,set}_num_threads<suffix>`` symbols."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


POOLS = {name: pool for name, pool in (("numpy", _openblas(np, "64_")),
                                       ("scipy", _openblas(scipy, "")))
         if pool is not None}


def blas_threads() -> dict[str, int]:
    """The thread count of each pool in ``POOLS``."""
    return {name: get_threads() for name, (get_threads, _) in POOLS.items()}


# A pool is one per process, so scopes are counted across threads.
_LOCK = threading.Lock()
_open = 0       # open scopes
_saved = []     # (set handle, count) of each pool, as the first one found


@contextlib.contextmanager
def one_thread():
    """Run the block, or each call of a decorated function, with every pool
    in ``POOLS`` at 1 thread.  The first scope to open sets 1 and the last
    to close restores the counts the first found, also when the block
    raises."""
    global _open, _saved
    with _LOCK:
        if not _open:
            _saved = [(set_threads, get_threads())
                      for get_threads, set_threads in POOLS.values()]
            for set_threads, _ in _saved:
                set_threads(1)
        _open += 1
    try:
        yield
    finally:
        with _LOCK:
            _open -= 1
            if not _open:
                for set_threads, threads in _saved:
                    set_threads(threads)
