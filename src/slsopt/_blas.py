"""Pin numpy's bundled OpenBLAS to one thread around sequential code.

A run is a strict sequence of small dense operations. Left to itself,
OpenBLAS splits a long dot product or matvec across its threads, which costs
a fork/join per call, keeps idle workers spinning, and sums in an order that
depends on the thread count. Inside ``single_thread()`` every BLAS call runs
on the calling thread, so the result depends on the inputs alone.

``optimizer.run_many`` (and so ``optimizer.run``, its group of one seed),
each sweep task, both instance generators and ``diagnostics.exact_moments``
(and so ``diagnose``) hold the pin. Building under it makes an instance a function
of its spec, and it keeps the build from waking an OpenBLAS worker that
would then spin through the run after it. A moment pass is one residual
pass per point, a matrix-vector product, and then two sweeps over blocks
of rows shared by all points, numpy loops that a woken worker would spin
beside.

``build()`` names the library and the core it picked its kernels for, which
decide a build's floats together with its spec; the instance store keys its
entries by it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

__all__ = ["openblas", "build", "threads", "single_thread"]


_SIGNATURES = {
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
    "get_config": ([], ctypes.c_char_p),
    "get_corename": ([], ctypes.c_char_p),
}


@functools.cache
def _library():
    """The OpenBLAS numpy loaded, as {name: ctypes function}, or None.

    The names are get_num_threads, set_num_threads, get_config and
    get_corename, without the library's symbol prefix and suffix. The last
    two are None where the library lacks them.
    """
    base = os.path.dirname(np.__file__)
    dirs = (os.path.join(base, os.pardir, "numpy.libs"), os.path.join(base, ".dylibs"))
    for path in sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fns = {name: getattr(lib, f"{prefix}{name}{suffix}", None) for name in _SIGNATURES}
                if fns["get_num_threads"] is not None and fns["set_num_threads"] is not None:
                    for name, fn in fns.items():
                        if fn is not None:
                            fn.argtypes, fn.restype = _SIGNATURES[name]
                    return fns
    return None


def openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy loaded, or None."""
    fns = _library()
    return None if fns is None else (fns["get_num_threads"], fns["set_num_threads"])


@functools.cache
def build() -> str | None:
    """OpenBLAS's config string and the name of the core it runs on, or None.

    The wheel's OpenBLAS is built DYNAMIC_ARCH: it picks its kernels for the
    core at load time, so the same library may round differently on another
    machine. None where no OpenBLAS was found or it lacks either function.
    """
    fns = _library()
    if fns is None or fns["get_config"] is None or fns["get_corename"] is None:
        return None
    return f"{fns['get_config']().decode()}; core {fns['get_corename']().decode()}"


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
