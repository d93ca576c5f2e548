"""A content-keyed store of generated instances on disk.

A fresh process reads the instance an earlier process generated instead of
building it again; on the 1000 x 2000 least-squares spec the build is two
QR factorizations. The store lives in ``$XDG_CACHE_HOME/slsopt``, or
``~/.cache/slsopt`` where that variable is unset; deleting that directory
clears it.

The store holds one generation: a directory named by a SHA-256 over
everything besides the spec that decides a build's floats, namely numpy's
version, OpenBLAS's config string and the core its kernels were picked for
(``_blas.build()``), and the bytes of problems.py and _blas.py. An entry in
it is a directory named by a SHA-256 over the spec the generator receives,
holding ``A.npy``, ``b.npy``, ``x_star.npy`` and the SHA-256 of their
payload. A miss publishes the built arrays into a temporary directory that
is then renamed into place, so no reader sees a partial entry, and then
removes every other generation, which no process with this code reads, and
any temporary directory a killed writer left. A hit checks shapes, dtypes
and the payload digest before the family assembles the instance, so a torn
or damaged entry is removed and built again. The store is a cache: any
failure to read or write it means building as before, with nothing printed.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import tempfile
import threading
import time

import numpy as np

from . import _blas, problems

__all__ = ["fetch"]

_NAMES = ("A", "b", "x_star")
_DIGEST = "sha256"
_TMP = ".tmp-"
# A temporary directory untouched for this long belongs to a writer that
# died: publishing the largest instance takes well under a second.
_TMP_LIFETIME_S = 3600.0

# np.load parses each header with ast.literal_eval, and CPython 3.11 builds
# AST objects with a process-wide depth counter: two threads parsing at once
# can raise SystemError ("AST constructor recursion depth mismatch").
_load_lock = threading.Lock()


def _root() -> str:
    """The store's directory, read from the environment at every call."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(cache, "slsopt")


@functools.cache
def _source_digest() -> str | None:
    """SHA-256 of problems.py and _blas.py, the code that builds an instance; None if unreadable."""
    h = hashlib.sha256()
    try:
        for module in (problems, _blas):
            with open(module.__file__, "rb") as fh:
                h.update(fh.read())
    except OSError:
        return None
    return h.hexdigest()


def _entry(key) -> str | None:
    """The entry of spec ``key``; None where what decides its floats cannot be named."""
    blas, sources = _blas.build(), _source_digest()
    if blas is None or sources is None:
        return None
    generation = hashlib.sha256(repr((np.__version__, blas, sources)).encode()).hexdigest()
    return os.path.join(_root(), generation, hashlib.sha256(repr(key).encode()).hexdigest())


def _payload_digest(arrays) -> str:
    # hashlib reads each C-contiguous array's buffer in place: no copy
    h = hashlib.sha256()
    for a in arrays:
        h.update(a)
    return h.hexdigest()


def _read(entry, shapes):
    """The arrays of ``entry``, checked; ValueError where a check fails."""
    with _load_lock:
        arrays = [np.load(os.path.join(entry, f"{name}.npy"), allow_pickle=False) for name in _NAMES]
    for name, a, shape in zip(_NAMES, arrays, shapes):
        if a.dtype != np.float64 or a.shape != shape or not a.flags.c_contiguous:
            raise ValueError(f"{name}: {a.dtype} {a.shape}, want float64 {shape}")
    with open(os.path.join(entry, _DIGEST), encoding="ascii") as fh:
        if fh.read() != _payload_digest(arrays):
            raise ValueError("payload digest does not match")
    return arrays


def _publish(entry, arrays):
    """Write ``arrays`` as ``entry``: all of it or, on any OSError, none of it."""
    generation = os.path.dirname(entry)
    try:
        os.makedirs(generation, exist_ok=True)
        # np.save writes a contiguous array straight from its buffer. The
        # rename fails where another writer got there first; its entry holds
        # the same floats. Nothing is synced: a torn write fails the digest.
        with tempfile.TemporaryDirectory(prefix=_TMP, dir=generation, ignore_cleanup_errors=True) as tmp:
            for name, a in zip(_NAMES, arrays):
                np.save(os.path.join(tmp, f"{name}.npy"), a, allow_pickle=False)
            with open(os.path.join(tmp, _DIGEST), "w", encoding="ascii") as fh:
                fh.write(_payload_digest(arrays))
            os.rename(tmp, entry)
    except OSError:
        return
    _prune(generation)


def _prune(generation):
    """Remove the store's other generations and this one's abandoned temporary directories.

    A process of other code that is still reading or writing there loses
    only that read or write: a read of a removed entry fails and builds, and
    a write into a removed directory fails or leaves an entry that fails its
    checks.
    """
    stale = time.time() - _TMP_LIFETIME_S
    root, current = os.path.split(generation)
    try:
        with os.scandir(root) as it:
            others = [d.path for d in it if d.name != current and d.is_dir(follow_symlinks=False)]
        with os.scandir(generation) as it:
            others += [
                d.path
                for d in it
                if d.name.startswith(_TMP) and d.is_dir(follow_symlinks=False) and d.stat().st_mtime < stale
            ]
    except OSError:
        return
    for path in others:
        shutil.rmtree(path, ignore_errors=True)


def fetch(key, shapes, generate, assemble) -> problems.ResidualProblem:
    """The instance of spec ``key``: read from the store, or generated and published.

    ``shapes`` gives the shapes of A, b and x_star; ``assemble(A, b,
    x_star)`` makes the family's instance of arrays read back, as its
    generator does of the arrays it built. Errors of ``generate()``
    propagate, and it is not published; a failure of the store itself only
    means that ``generate()`` builds the instance.
    """
    entry = _entry(key)
    if entry is None:
        return generate()
    try:
        return assemble(*_read(entry, shapes))
    except (OSError, ValueError, EOFError):
        # a miss, or an entry that failed a check (an instance check raises
        # a ValueError subclass too): remove what is there and build
        shutil.rmtree(entry, ignore_errors=True)
    problem = generate()
    _publish(entry, (problem.A, problem.b, problem.known.x_star))
    return problem
