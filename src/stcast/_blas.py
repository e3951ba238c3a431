"""The thread pools of the OpenBLAS libraries that numpy's and scipy's
wheels bundle, and the only module that loads those libraries.

numpy's products and scipy.linalg.lapack each run on their own wheel's
OpenBLAS, with separate pools.  ``POOLS`` maps each pool found ("numpy",
"scipy") to its (get, set) thread-count handles, ``blas_threads`` reads
them for the run manifest, and ``one_thread`` holds one pool at 1 thread.
"""

import contextlib
import ctypes
import glob
import os
import threading
from collections import Counter

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


# A pool is one per process, so its scopes are counted across threads.
_LOCK = threading.Lock()
_OPEN: Counter[str] = Counter()     # open scopes per pool name
_SAVED: dict[str, int] = {}         # the count the first one found


@contextlib.contextmanager
def one_thread(name: str):
    """Run the block, or each call of a decorated function, with the pool
    ``name`` at 1 thread.  The first scope open on that pool sets 1 and
    the last to close restores the count the first found, also when the
    block raises; scopes on another pool do not count.  A pool missing
    from ``POOLS`` when the scope opens makes it a no-op."""
    pool = POOLS.get(name)
    if pool is None:
        yield
        return
    get_threads, set_threads = pool
    with _LOCK:
        if not _OPEN[name]:
            _SAVED[name] = get_threads()
            set_threads(1)
        _OPEN[name] += 1
    try:
        yield
    finally:
        with _LOCK:
            _OPEN[name] -= 1
            if not _OPEN[name]:
                set_threads(_SAVED[name])
