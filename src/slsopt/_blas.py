"""Pin numpy's bundled OpenBLAS to one thread around sequential code.

A run is a strict sequence of small dense operations. Left to itself,
OpenBLAS splits a long dot product or matvec across its threads, which costs
a fork/join per call, keeps idle workers spinning, and sums in an order that
depends on the thread count. Inside ``single_thread()`` every BLAS call runs
on the calling thread, so the result depends on the inputs alone.

``optimizer.run``, ``optimizer.run_many``, each sweep task and both instance
generators hold the pin. Building under it makes an instance a function of
its spec, and it keeps the build from waking an OpenBLAS worker that would
then spin through the run after it. ``diagnose``'s per-point passes keep the library's
threads; their output is checked not to depend on the count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

__all__ = ["openblas", "threads", "single_thread"]


@functools.cache
def openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy loaded, or None."""
    base = os.path.dirname(np.__file__)
    dirs = (os.path.join(base, os.pardir, "numpy.libs"), os.path.join(base, ".dylibs"))
    for path in sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def threads() -> int | None:
    """The current OpenBLAS thread count; None where no OpenBLAS was found."""
    lib = openblas()
    return None if lib is None else lib[0]()


# The thread count is one setting of the whole process, so the pins of all
# callers share one depth counter and one saved count.
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextlib.contextmanager
def single_thread():
    """Run the body with one BLAS thread; restore the previous count after.

    Re-entrant and shared by concurrent callers: the first entry saves the
    count and the last exit restores it, also when the body raises. Does
    nothing where no OpenBLAS is found.
    """
    global _depth, _saved
    lib = openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
