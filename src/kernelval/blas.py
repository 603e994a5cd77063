"""One BLAS thread per process, so that results do not depend on the BLAS thread count.

Cholesky factorizations and large matrix products split their sums across
OpenBLAS threads, and the split changes the rounding: the same fit gives
different bits at one and at two BLAS threads.  Importing :mod:`kernelval`
therefore pins every OpenBLAS loaded into the process to one thread, once,
through the library's own ``*_set_num_threads`` symbol.  NumPy and SciPy
each load their own OpenBLAS; this module imports ``scipy.linalg`` before
it looks, so both are found.  Parallel work goes through the worker pool
of :mod:`kernelval.pool`.

Where no OpenBLAS is found (MKL, Accelerate, or no ``/proc/self/maps``),
nothing is pinned and :data:`SETUP` says ``"unpinned"``.
"""

from __future__ import annotations

import ctypes
import os

import scipy.linalg  # noqa: F401  loads SciPy's OpenBLAS after NumPy's

__all__ = ["SETUP"]

# symbol prefixes and suffixes of the OpenBLAS builds NumPy and SciPy ship
_PREFIXES = ("openblas_", "scipy_openblas_")
_SUFFIXES = ("", "64_")


def _loaded_openblas():
    """Paths of the OpenBLAS libraries mapped into this process, sorted."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return sorted(p for p in paths
                  if "openblas" in os.path.basename(p).lower() and ".so" in p)


def _symbol(lib, name):
    """``lib``'s function ``<prefix><name><suffix>``, or None."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def _pin_one(path):
    """Pin one library to one thread; its name, version and thread count after.

    A library without the thread symbols keeps its count, recorded as None.
    """
    lib = ctypes.CDLL(path)
    record = {"library": os.path.basename(path), "version": None, "threads": None}
    config = _symbol(lib, "get_config")
    if config is not None:
        config.argtypes, config.restype = [], ctypes.c_char_p
        words = (config() or b"").decode(errors="replace").split()
        record["version"] = words[1] if len(words) > 1 else None
    set_threads, get_threads = _symbol(lib, "set_num_threads"), _symbol(lib, "get_num_threads")
    if set_threads is not None and get_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads(1)
        record["threads"] = get_threads()
    return record


def _pin():
    """Pin every loaded OpenBLAS; the record :data:`SETUP` holds."""
    records = [_pin_one(path) for path in _loaded_openblas()]
    pinned = bool(records) and all(r["threads"] == 1 for r in records)
    return {"openblas": records, "threads": 1 if pinned else "unpinned"}


# What the pin found and did: each OpenBLAS library with its version and
# thread count, and the process-wide BLAS thread count, 1 or "unpinned".
# manifest.json records it.
SETUP = _pin()
