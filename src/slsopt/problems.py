"""Finite sums f(x) = (1/N) sum_i f_i(x) of squared residuals with exact oracles.

Every problem is a ResidualProblem: f_i(x) = 0.5 (a_i . w(x) - b_i)^2 for
features w(x). It exposes the value and gradient of one sampled component
with its closed-form search ray, the same for a stack of points, and an
exact full-sum oracle. The synthetic generators plant a minimizer shared by
every component, so the interpolation property holds by construction and the
smoothness / gradient-domination constants are known analytically where the
structure permits.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import (
    InvalidBatchError,
    InvalidSpecError,
    NumericDomainError,
    ShapeError,
)

Vector = np.ndarray

__all__ = [
    "Vector",
    "as_vector",
    "KnownConstants",
    "BatchSampler",
    "ResidualProblem",
    "LeastSquaresProblem",
    "TwoFactorProblem",
    "evaluate_batch",
    "full_oracle",
    "ray_phi",
    "gen_interpolating_least_squares",
    "gen_nonconvex_interpolating",
    "warn_if_under_parametrized",
]


def as_vector(x, n: int | None = None, name: str = "x") -> Vector:
    """Coerce to a finite 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if n is not None and v.shape[0] != n:
        raise ShapeError(f"{name} must have length {n}, got {v.shape[0]}")
    if not _all_finite(v):
        raise NumericDomainError(f"{name} contains non-finite entries")
    return v


def _all_finite(v) -> bool:
    """np.isfinite(v).all() for a float64 array, without its bool temporary.

    v . v is finite when every entry is, unless the squared norm overflows; a
    NaN or infinite entry makes it NaN or inf. So only a non-finite dot needs
    the elementwise test, and the verdict is always that test's. np.vdot
    runs the dot kernel of v.dot(v) on v's entries in order without numpy's
    floating-point error check, so an overflow is inf without a warning.
    """
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _multiply_unbuffered(a, b, out):
    """np.multiply(a, b, out=out) with numpy's ufunc buffer at 16 entries.

    Where one operand is broadcast along rows shorter than the buffer (8192
    entries by default), numpy's iterator copies operands through its
    buffers to run one inner loop across several rows, which costs more
    than the products. A buffer no longer than a row runs one loop per row
    instead. Each product is one rounding either way, so the floats are
    the same, signed zeros, infinities and NaNs included. The previous
    size is restored also when the multiply raises.
    """
    saved = np.setbufsize(16)
    try:
        return np.multiply(a, b, out=out)
    finally:
        np.setbufsize(saved)


@dataclass(frozen=True, eq=False)
class KnownConstants:
    """Analytic constants of a generated instance; None where unknown.

    L and mu refer to the averaged objective, L_max to the worst singleton
    component, f_star / x_star to the planted shared minimizer.
    """

    L: float | None = None
    L_max: float | None = None
    mu: float | None = None
    f_star: float | None = None
    x_star: Vector | None = None


class BatchSampler:
    """Uniform component index draws (0-based), deterministic for a fixed seed.

    Indices are drawn BLOCK at a time from the same generator. One call for
    BLOCK integers yields the same stream as BLOCK calls for one each, so the
    index sequence does not depend on the block size.
    """

    BLOCK = 256

    def __init__(self, N: int, seed=0):
        if N < 1:
            raise InvalidSpecError(f"N must be >= 1, got {N}")
        self.N = int(N)
        self._rng = np.random.default_rng(seed)
        self._pending: list[int] = []

    def draw(self) -> int:
        if not self._pending:
            self._pending = self._rng.integers(0, self.N, size=self.BLOCK).tolist()[::-1]
        return self._pending.pop()


class ResidualProblem:
    """Average of N squared residuals f_i(x) = 0.5 (a_i . w(x) - b_i)^2 of features w(x).

    The rows a_i are stacked in A. Every oracle is derived here from three
    hooks a family supplies. Each takes a (K, n) stack X of points and the
    K rows of A they are paired with, ``rows``:

    - ``features_rows(X)``: the feature vectors w(X[k]), as rows;
    - ``pullback_rows(X, rows, R0)``: ``(G, reuse)``. G[k] is the
      transposed-Jacobian product R0[k] J_w(X[k])^T rows[k], written into
      one new (K, n) array. ``reuse`` is any part of that product the ray
      may take, or None;
    - ``ray_coefficients_rows(rows, X, D, reuse)``: (C1, C2) such that the
      residual of rows[k] along X[k] + a D[k] is R0[k] + a (C1[k] + a C2[k]).
      ``reuse`` is what pullback_rows returned for the same rows and points.

    A family also supplies ``component_pass(x)``: ``(r, grads)``, the N
    residuals at x from one pass, and ``grads(rows, out)``, which writes the
    gradients of the components in the slice ``rows`` into ``out``, a
    (len, n) array that the caller owns, and returns it. Every block is
    taken from that one pass. The one-point oracles run the hooks on the
    (1, n) view of x.

    ``n`` is the length of x and defaults to the number of columns of A.
    """

    def __init__(self, A, b, known: KnownConstants | None = None, n: int | None = None):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.ndim != 2:
            raise ShapeError("A must be a 2-D array")
        if b.shape != (A.shape[0],):
            raise ShapeError("b must have one entry per row of A")
        self.n = int(A.shape[1] if n is None else n)
        if self.n < 1:
            raise ShapeError(f"dimension must be >= 1, got {self.n}")
        self.N = A.shape[0]
        if self.N < 1:
            raise InvalidSpecError(f"component count must be >= 1, got {self.N}")
        self.A = A
        self.b = b
        self.known = known

    def _residuals(self, idx, X):
        """Rows of A and their residuals: row idx[k] at X[k], or all N at X[0] if idx is None.

        idx is an index array or a slice. np.vecdot gives a row the float of
        row @ w, the expression the generators plant b_i with, so the
        residual at the planted minimizer is exactly zero.
        """
        W = self.features_rows(X)
        if idx is None:
            return self.A, self.A @ W[0] - self.b
        rows = self.A[idx]
        return rows, np.vecdot(rows, W) - self.b[idx]

    def component_value(self, i, x):
        r = float(self._residuals(slice(i, i + 1), x[None])[1][0])
        return 0.5 * r * r

    def batch_eval_rows(self, idx, X):
        """The sampled oracle at K points at once: row k is component idx[k] at X[k].

        Returns (R0, G, ray_rows): the K residuals, so that f_k is
        0.5 * R0[k] * R0[k]; the (K, n) gradients; and ray_rows(D), the
        arrays (C1, C2) of the K rays along the rows of D, to be passed to
        ray_phi row by row. One residual pass serves both: the rays take
        the rows and what their pullback offers. Nothing is checked here.
        """
        rows, R0 = self._residuals(idx, X)
        G, reuse = self.pullback_rows(X, rows, R0)
        return R0, G, functools.partial(self._ray_rows, rows, X, reuse)

    @np.errstate(over="ignore")
    def _ray_rows(self, rows, X, reuse, D):
        # A slope or curvature beyond the float range is an infinite
        # coefficient, whose trials the search rejects; no warning needed.
        return self.ray_coefficients_rows(rows, X, D, reuse)

    def full_value_grad(self, x):
        # The gradient is the pullback of the mean weighted row; scaling it
        # by R0 = 1.0 is exact.
        X = x[None]
        rows, r = self._residuals(None, X)
        G = self.pullback_rows(X, ((rows.T @ r) / r.size)[None], _ONE)[0]
        return 0.5 * float(r @ r) / r.size, G[0]

    def residuals(self, x):
        """The N residuals a_i . w(x) - b_i, from one pass over A."""
        return self._residuals(None, x[None])[1]

    def validate_known_constants(self, rtol: float = 1e-12, grad_tol: float = 1e-10):
        """Check that the planted minimizer actually attains f_star with zero gradient."""
        k = self.known
        if k is None or k.x_star is None or k.f_star is None:
            return
        f, g = self.full_value_grad(as_vector(k.x_star, self.n, "x_star"))
        if abs(f - k.f_star) > rtol * max(1.0, abs(k.f_star)):
            raise InvalidSpecError(
                f"f(x_star)={f!r} does not match f_star={k.f_star!r}"
            )
        gn = float(np.linalg.norm(g))
        if gn > grad_tol:
            raise InvalidSpecError(f"gradient norm at x_star is {gn:g} > {grad_tol:g}")


_ONE = np.ones(1)


class LeastSquaresProblem(ResidualProblem):
    """Squared residuals f_i(x) = 0.5 (a_i . x - b_i)^2 with rows a_i stacked in A."""

    # bench/tracer.py wraps batch_value and component_grads where each
    # concrete class defines them, so both are bound in this class body.
    # Nothing else reads batch_value.
    batch_value = ResidualProblem.component_value

    def features_rows(self, X):
        return X

    def pullback_rows(self, X, rows, R0):
        return R0[:, None] * rows, None

    def ray_coefficients_rows(self, rows, X, D, reuse):
        return np.vecdot(rows, D), np.zeros(len(D))

    def component_pass(self, x):
        r = self.residuals(x)
        return r, functools.partial(self.component_grads, r)

    def component_grads(self, r, rows, out):
        return _multiply_unbuffered(r[rows, None], self.A[rows], out)


class TwoFactorProblem(ResidualProblem):
    """Bilinear regression f_i(x) = 0.5 ((u @ V) . a_i - b_i)^2, x = (u, vec V).

    The decision variable packs u (length n_u) followed by V flattened in row
    order (n_u * n_v entries). The product coupling makes the objective
    nonconvex in x while keeping every oracle closed-form.
    """

    # bench/tracer.py wraps batch_value and component_grads where each
    # concrete class defines them, so both are bound in this class body.
    # Nothing else reads batch_value.
    batch_value = ResidualProblem.component_value

    def __init__(self, n_u: int, n_v: int, A, b, known: KnownConstants | None = None):
        if n_u < 1 or n_v < 1:
            raise ShapeError("factor sizes must be >= 1")
        super().__init__(A, b, known, n=n_u + n_u * n_v)
        if self.A.shape[1] != n_v:
            raise ShapeError(f"A must have shape (N, {n_v})")
        self.n_u = int(n_u)
        self.n_v = int(n_v)

    def unpack(self, x: Vector) -> tuple[Vector, np.ndarray]:
        return x[: self.n_u], x[self.n_u :].reshape(self.n_u, self.n_v)

    # A row's products are stacked np.matmul, its dots np.vecdot.
    def _unpack_rows(self, X):
        return X[:, : self.n_u], X[:, self.n_u :].reshape(len(X), self.n_u, self.n_v)

    def features_rows(self, X):
        U, V = self._unpack_rows(X)
        return np.matmul(U[:, None, :], V)[:, 0]

    def pullback_rows(self, X, rows, R0):
        # J_w(x)^T s = (V s, u s^T), written into G. The V block is the
        # float u_j s_k of np.outer(u, s), one product per entry, written
        # in place. Each row is then scaled by its R0[k] in one pass. The
        # ray reuses V s.
        U, V = self._unpack_rows(X)
        P = np.matmul(V, rows[:, :, None])[:, :, 0]
        G = np.empty((len(X), self.n))
        G[:, : self.n_u] = P
        _multiply_unbuffered(U[:, :, None], rows[:, None, :], self._unpack_rows(G)[1])
        G *= R0[:, None]
        return G, P

    def ray_coefficients_rows(self, rows, X, D, reuse):
        # With P = V a_i and Q = dV a_i, (u + a du)(V + a dV) a_i - b_i
        # = r0 + a (du . P + u . Q) + a^2 (du . Q). The pullback of the
        # gradient hands over P as ``reuse``.
        U = X[:, : self.n_u]
        DU, DV = self._unpack_rows(D)
        Q = np.matmul(DV, rows[:, :, None])[:, :, 0]
        return np.vecdot(DU, reuse) + np.vecdot(U, Q), np.vecdot(DU, Q)

    def component_pass(self, x):
        # A @ V.T is formed once for every block: a block of rows of A times
        # V.T does not round like the same rows of the whole product.
        u, V = self.unpack(x)
        r = self.residuals(x)
        return r, functools.partial(self.component_grads, u, r, self.A @ V.T)

    def component_grads(self, u, r, AV, rows, out):
        _multiply_unbuffered(r[rows, None], AV[rows], out[:, : self.n_u])
        GV = np.reshape(out[:, self.n_u :], (len(out), self.n_u, self.n_v), copy=False)
        np.einsum("i,u,iv->iuv", r[rows], u, self.A[rows], out=GV)
        return out


def evaluate_batch(problem: ResidualProblem, i, x):
    """Value, gradient and search ray of the sampled component ``i``.

    Returns (f, g, ray) at ``x`` from ``problem.batch_eval_rows`` on the
    (1, n) view of x; ray(d) is the search function phi(a) = f_i(x + a d),
    ray_phi of the residual along d, so a trial costs a few float
    operations, and phi(0) is f. ``i`` must be an integer (operator.index
    accepts it) in [0, N).
    """
    try:
        k = operator.index(i)
    except TypeError:
        raise InvalidBatchError(f"component index must be an integer, got {i!r}") from None
    if not 0 <= k < problem.N:
        raise InvalidBatchError(f"index {k} outside [0, {problem.N - 1}] for this problem")
    xv = as_vector(x, problem.n)
    R0, G, ray_rows = problem.batch_eval_rows(slice(k, k + 1), xv[None])
    r0 = float(R0[0])
    f, g = 0.5 * r0 * r0, G[0]
    if not math.isfinite(f) or not _all_finite(g):
        raise NumericDomainError(f"non-finite evaluation of component {k}")

    def ray(d):
        C1, C2 = ray_rows(d[None])
        return ray_phi(r0, float(C1[0]), float(C2[0]))

    return f, g, ray


def ray_phi(r0: float, c1: float, c2: float):
    """phi(a) = f_i(x + a d) = 0.5 r^2 for the residual r = r0 + a (c1 + a c2)."""

    def phi(a):
        r = r0 + a * (c1 + a * c2)
        return 0.5 * r * r

    return phi


def full_oracle(problem: ResidualProblem, x) -> tuple[float, Vector]:
    """Exact average over all N component functions; for tracing and diagnostics only."""
    xv = as_vector(x, problem.n)
    f, g = problem.full_value_grad(xv)
    if not math.isfinite(f) or not _all_finite(g):
        raise NumericDomainError("non-finite full-sum evaluation")
    return f, g


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


def warn_if_under_parametrized(N: int, n: int, stacklevel: int = 1):
    """Warn when a least-squares instance has fewer variables than components.

    ``stacklevel`` counts from the caller, as in ``warnings.warn``.
    """
    if n < N:
        warnings.warn(
            "n < N: instance is under-parametrized; interpolation still holds "
            "at the planted point but the regime is not the intended one",
            stacklevel=stacklevel + 1,
        )


def _freeze(*arrays):
    """Mark a generated instance's arrays read-only, so sharing it is safe."""
    for a in arrays:
        a.flags.writeable = False


def gen_interpolating_least_squares(
    N: int, n: int, seed: int, singular_values
) -> LeastSquaresProblem:
    """Random least-squares family whose component functions share a planted minimizer.

    ``singular_values`` lists the nonzero spectrum of the stacked row matrix A
    (at most min(N, n) entries, all positive). Labels are set to b_i = a_i . x*
    for a random x*, so every component is exactly minimized there. Known
    constants: L = max(s)^2 / N and mu = min(s)^2 / N over the given spectrum,
    L_max = max_i ||a_i||^2, f_star = 0.
    """
    if N < 1 or n < 1:
        raise InvalidSpecError("N and n must be >= 1")
    s = np.asarray(list(singular_values), dtype=np.float64)
    if s.size == 0:
        raise InvalidSpecError("spectrum must contain at least one value")
    if not np.all(np.isfinite(s)) or np.any(s <= 0):
        raise InvalidSpecError("spectrum entries must be finite and > 0")
    if s.size > min(N, n):
        raise InvalidSpecError(
            f"spectrum has {s.size} values but rank is capped at min(N, n)={min(N, n)}"
        )
    warn_if_under_parametrized(N, n, stacklevel=2)
    # One BLAS thread: the QR factorisations and the product below round
    # differently at another thread count, and a woken OpenBLAS worker
    # would go on spinning through the single-threaded run that follows.
    with _blas.single_thread():
        rng = np.random.default_rng(seed)
        k = s.size
        U = _orthonormal_columns(rng, N, k)
        V = _orthonormal_columns(rng, n, k)
        A = (U * s) @ V.T
        x_star = rng.standard_normal(n)
        # Plant labels with the same row-dot expression the oracles use, so
        # the per-component residuals at x_star are exactly 0.0.
        b = np.array([float(A[i] @ x_star) for i in range(N)])
        _freeze(A, b, x_star)
        row_sq = np.einsum("ij,ij->i", A, A)
        known = KnownConstants(
            L=float(np.max(s) ** 2) / N,
            L_max=float(np.max(row_sq)),
            mu=float(np.min(s) ** 2) / N,
            f_star=0.0,
            x_star=x_star,
        )
        problem = LeastSquaresProblem(A, b, known)
        problem.validate_known_constants()
        return problem


def gen_nonconvex_interpolating(
    N: int, n_u: int, n_v: int, seed: int
) -> TwoFactorProblem:
    """Two-factor bilinear instance with realizable labels.

    Labels are generated from a planted (u*, V*), so the objective vanishes
    there together with every component gradient. Only f_star and x_star are
    recorded; curvature constants have no closed form for this family.
    """
    if N < 1:
        raise InvalidSpecError("N must be >= 1")
    if n_u < 1 or n_v < 1:
        raise InvalidSpecError("n_u and n_v must be >= 1")
    # One BLAS thread, as in gen_interpolating_least_squares.
    with _blas.single_thread():
        rng = np.random.default_rng(seed)
        u_star = rng.standard_normal(n_u)
        V_star = rng.standard_normal((n_u, n_v))
        A = rng.standard_normal((N, n_v))
        w_star = u_star @ V_star
        b = np.array([float(A[i] @ w_star) for i in range(N)])
        x_star = np.concatenate([u_star, V_star.ravel()])
        _freeze(A, b, x_star)
        known = KnownConstants(f_star=0.0, x_star=x_star)
        problem = TwoFactorProblem(n_u, n_v, A, b, known)
        problem.validate_known_constants()
        return problem
