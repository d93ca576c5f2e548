"""Finite-sum objectives f(x) = (1/N) sum_i f_i(x) with exact component oracles.

Problems expose per-component values and gradients, the search ray of one
sampled component, and an exact full-sum oracle. The synthetic generators plant a minimizer shared by
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
from typing import Callable, Sequence

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
    "FiniteSumProblem",
    "ResidualProblem",
    "LeastSquaresProblem",
    "TwoFactorProblem",
    "evaluate_batch",
    "full_oracle",
    "ray_phi",
    "gen_interpolating_least_squares",
    "gen_nonconvex_interpolating",
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


class FiniteSumProblem:
    """Average of N differentiable components with exact oracles.

    ``components`` is a sequence of (value, grad) callable pairs; generated
    families subclass this and override every oracle with vectorized code,
    in which case ``components`` may be omitted.

    ``component_grads(x)`` returns the N x n matrix of component gradients
    in a new array that the caller owns: it shares no memory with the
    problem's data, and the diagnostics centre it in place.
    """

    def __init__(
        self,
        n: int,
        components: Sequence[tuple[Callable, Callable]] | None = None,
        known: KnownConstants | None = None,
        N: int | None = None,
    ):
        if int(n) < 1:
            raise ShapeError(f"dimension must be >= 1, got {n}")
        self.n = int(n)
        if components is not None:
            self._components = list(components)
            self._N = len(self._components)
        elif N is not None:
            self._components = None
            self._N = int(N)
        else:
            raise InvalidSpecError("either components or N must be given")
        if self._N < 1:
            raise InvalidSpecError(f"component count must be >= 1, got {self._N}")
        self.known = known

    @property
    def N(self) -> int:
        return self._N

    # Per-component primitives. Subclasses either rely on the callables or
    # override these together with the paths below.
    def component_value(self, i: int, x: Vector) -> float:
        return float(self._components[i][0](x))

    def component_grad(self, i: int, x: Vector) -> Vector:
        return np.asarray(self._components[i][1](x), dtype=np.float64)

    def batch_eval_ray(self, i: int, x: Vector):
        """f_i(x), g_i(x) and ``ray``, where ray(d) is phi(a) = f_i(x + a d).

        This default forms each trial point and calls component_value, so a
        trial costs a full component evaluation. ResidualProblem overrides it
        with a closed form whose trials cost a few float operations.
        """

        def ray(d):
            return lambda a: self.component_value(i, x + a * d)

        return self.component_value(i, x), self.component_grad(i, x), ray

    def full_value_grad(self, x: Vector) -> tuple[float, Vector]:
        f = 0.0
        g = np.zeros(self.n)
        for i in range(self.N):
            f += self.component_value(i, x)
            g += self.component_grad(i, x)
        return f / self.N, g / self.N

    def component_values(self, x: Vector) -> np.ndarray:
        return np.array([self.component_value(i, x) for i in range(self.N)])

    def component_grads(self, x: Vector) -> np.ndarray:
        return np.stack([self.component_grad(i, x) for i in range(self.N)])

    # The stacked oracle optimizer.run_many advances its rows with; a
    # family without one has its seeds run one by one.
    batch_eval_rows = None

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


class ResidualProblem(FiniteSumProblem):
    """Squared residuals f_i(x) = 0.5 (a_i . w(x) - b_i)^2 of features w(x).

    The rows a_i are stacked in A. Every oracle is derived here from the
    residuals; a family supplies four hooks:

    - ``features(x)``: the feature vector w(x);
    - ``pullback(x, s, scale=None)``: ``(g, reuse)``. g is the
      transposed-Jacobian product J_w(x)^T s, each entry multiplied by the
      float ``scale`` when one is given, written into one new array (or s
      itself when w is the identity and there is no scale; s is never
      written to). ``reuse`` is any part of that product the ray may take,
      or None;
    - ``ray_coefficients(row, x, d, reuse)``: (c1, c2) such that the
      residual of row a_i along x + a d is r0 + a (c1 + a c2). ``reuse`` is
      what ``pullback(x, a_i, r)`` returned when the gradient of f_i at x
      was computed;
    - ``component_grads(x)``: the N x n matrix of component gradients, in
      a new array that the caller owns and may overwrite; it must not be
      A or a view of it.

    ``n`` is the length of x and defaults to the number of columns of A.

    ``batch_eval_rows`` evaluates K components at K points at once. It takes
    three more hooks, each the one above on a (K, n) stack of points, with
    every row given the floats of the one-row hook: ``features_rows(X)``,
    ``pullback_rows(X, rows, R0)`` and ``ray_coefficients_rows(rows, X, D,
    reuse)``.
    """

    def __init__(self, A, b, known: KnownConstants | None = None, n: int | None = None):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.ndim != 2:
            raise ShapeError("A must be a 2-D array")
        if b.shape != (A.shape[0],):
            raise ShapeError("b must have one entry per row of A")
        super().__init__(n=A.shape[1] if n is None else n, N=A.shape[0], known=known)
        self.A = A
        self.b = b

    def _residuals(self, i, x):
        """Row i and its float residual, or all N rows and residuals when None.

        float(row @ w) matches the expression the generators plant b_i with,
        so the residual at the planted minimizer is exactly zero.
        """
        w = self.features(x)
        if i is None:
            return self.A, self.A @ w - self.b
        return self.A[i], float(self.A[i] @ w) - float(self.b[i])

    def component_value(self, i, x):
        r = self._residuals(i, x)[1]
        return 0.5 * r * r

    def component_grad(self, i, x):
        row, r = self._residuals(i, x)
        return self.pullback(x, row, r)[0]

    def batch_eval_ray(self, i, x):
        """f_i, g_i and a closed-form ``ray``: a trial is a few float operations.

        One residual pass serves both: the ray takes the row and residual the
        gradient was computed from, and what its pullback offers.
        """
        row, r0 = self._residuals(i, x)
        g, reuse = self.pullback(x, row, r0)
        return 0.5 * r0 * r0, g, functools.partial(self._ray, row, r0, reuse, x)

    def _ray(self, row, r0, reuse, x, d):
        # The residual is quadratic along the ray; r0 comes from the
        # expression component_value uses, so phi(0) is its f_i(x).
        c1, c2 = self.ray_coefficients(row, x, d, reuse)
        return ray_phi(r0, float(c1), float(c2))

    def batch_eval_rows(self, idx, X):
        """batch_eval_ray on a stack: row k is component idx[k] at X[k].

        Returns (R0, G, ray_rows): the K residuals, so that f_k is
        0.5 * R0[k] * R0[k]; the (K, n) gradients; and ray_rows(D), the
        arrays (C1, C2) of the K rays along the rows of D, to be passed to
        ray_phi row by row. Each row has the floats of batch_eval_ray for
        its component and point: np.vecdot and stacked np.matmul give a row
        the bits of its one-row dot or product, and the elementwise
        operations are those of the one-row hooks. Nothing is checked here.
        """
        rows = self.A.take(idx, axis=0)
        R0 = np.vecdot(rows, self.features_rows(X)) - self.b.take(idx)
        G, reuse = self.pullback_rows(X, rows, R0)
        return R0, G, functools.partial(self.ray_coefficients_rows, rows, X, reuse=reuse)

    def full_value_grad(self, x):
        rows, r = self._residuals(None, x)
        g = self.pullback(x, (rows.T @ r) / r.size)[0]
        return 0.5 * float(r @ r) / r.size, g

    def component_values(self, x):
        r = self._residuals(None, x)[1]
        return 0.5 * r * r


class LeastSquaresProblem(ResidualProblem):
    """Components f_i(x) = 0.5 (a_i . x - b_i)^2 with rows a_i stacked in A."""

    # bench/tracer.py wraps batch_value and component_grads where each
    # concrete class defines them, so both are bound in this class body.
    # Nothing else reads batch_value.
    batch_value = ResidualProblem.component_value

    def features(self, x):
        return x

    def pullback(self, x, s, scale=None):
        return (s if scale is None else scale * s), None

    def ray_coefficients(self, row, x, d, reuse):
        return row @ d, 0.0

    def features_rows(self, X):
        return X

    def pullback_rows(self, X, rows, R0):
        return R0[:, None] * rows, None

    def ray_coefficients_rows(self, rows, X, D, reuse):
        return np.vecdot(rows, D), np.zeros(len(D))

    def component_grads(self, x):
        r = self._residuals(None, x)[1]
        return r[:, None] * self.A


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

    def features(self, x):
        u, V = self.unpack(x)
        return u @ V

    def pullback(self, x, s, scale=None):
        # J_w(x)^T s = (V s, u s^T), written into g. The V block gets s in
        # each row, then is multiplied by u in place: s_k u_j is the float
        # u_j s_k of np.outer(u, s), with one ufunc iterator buffer where
        # np.outer takes two, and faster. The ray reuses V s.
        u, V = self.unpack(x)
        Vs = V @ s
        g = np.empty(self.n)
        GV = g[self.n_u :].reshape(self.n_u, self.n_v)
        GV[...] = s
        GV *= u[:, None]
        if scale is None:
            g[: self.n_u] = Vs
        else:
            np.multiply(Vs, scale, out=g[: self.n_u])
            GV *= scale
        return g, Vs

    def ray_coefficients(self, row, x, d, reuse):
        # With P = V a_i and Q = dV a_i, (u + a du)(V + a dV) a_i - b_i
        # = r0 + a (du . P + u . Q) + a^2 (du . Q). The pullback of the
        # gradient hands over P as ``reuse``.
        u = self.unpack(x)[0]
        du, dV = self.unpack(d)
        Q = dV @ row
        return du @ reuse + u @ Q, du @ Q

    # The row forms below repeat features, pullback and ray_coefficients on
    # (K, n) stacks; a row's products are stacked np.matmul, its dots
    # np.vecdot.
    def _unpack_rows(self, X):
        return X[:, : self.n_u], X[:, self.n_u :].reshape(len(X), self.n_u, self.n_v)

    def features_rows(self, X):
        U, V = self._unpack_rows(X)
        return np.matmul(U[:, None, :], V)[:, 0]

    def pullback_rows(self, X, rows, R0):
        U, V = self._unpack_rows(X)
        P = np.matmul(V, rows[:, :, None])[:, :, 0]
        G = np.empty((len(X), self.n))
        GV = self._unpack_rows(G)[1]
        GV[...] = rows[:, None, :]
        GV *= U[:, :, None]
        np.multiply(P, R0[:, None], out=G[:, : self.n_u])
        GV *= R0[:, None, None]
        return G, P

    def ray_coefficients_rows(self, rows, X, D, reuse):
        U = X[:, : self.n_u]
        DU, DV = self._unpack_rows(D)
        Q = np.matmul(DV, rows[:, :, None])[:, :, 0]
        return np.vecdot(DU, reuse) + np.vecdot(U, Q), np.vecdot(DU, Q)

    def component_grads(self, x):
        u, V = self.unpack(x)
        r = self._residuals(None, x)[1]
        Gu = r[:, None] * (self.A @ V.T)
        GV = np.einsum("i,u,iv->iuv", r, u, self.A).reshape(self.N, -1)
        return np.hstack([Gu, GV])


def evaluate_batch(problem: FiniteSumProblem, i, x):
    """Value, gradient and search ray of the sampled component ``i``.

    Returns (f, g, ray) at ``x`` from ``problem.batch_eval_ray``; ray(d) is
    the search function phi(a) = f_i(x + a d). ``i`` must be an integer
    (operator.index accepts it) in [0, N).
    """
    try:
        k = operator.index(i)
    except TypeError:
        raise InvalidBatchError(f"component index must be an integer, got {i!r}") from None
    if not 0 <= k < problem.N:
        raise InvalidBatchError(f"index {k} outside [0, {problem.N - 1}] for this problem")
    xv = as_vector(x, problem.n)
    f, g, ray = problem.batch_eval_ray(k, xv)
    g = np.asarray(g, dtype=np.float64)
    if not math.isfinite(f) or not _all_finite(g):
        raise NumericDomainError(f"non-finite evaluation of component {k}")
    return float(f), g, ray


def ray_phi(r0: float, c1: float, c2: float):
    """phi(a) = f_i(x + a d) = 0.5 r^2 for the residual r = r0 + a (c1 + a c2)."""

    def phi(a):
        r = r0 + a * (c1 + a * c2)
        return 0.5 * r * r

    return phi


def full_oracle(problem: FiniteSumProblem, x) -> tuple[float, Vector]:
    """Exact average over all N components; for tracing and diagnostics only."""
    xv = as_vector(x, problem.n)
    f, g = problem.full_value_grad(xv)
    g = np.asarray(g, dtype=np.float64)
    if not math.isfinite(f) or not _all_finite(g):
        raise NumericDomainError("non-finite full-sum evaluation")
    return float(f), g


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


def gen_interpolating_least_squares(
    N: int, n: int, seed: int, singular_values
) -> LeastSquaresProblem:
    """Random least-squares family whose components share a planted minimizer.

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
    if n < N:
        warnings.warn(
            "n < N: instance is under-parametrized; interpolation still holds "
            "at the planted point but the regime is not the intended one",
            stacklevel=2,
        )
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
        known = KnownConstants(f_star=0.0, x_star=x_star)
        problem = TwoFactorProblem(n_u, n_v, A, b, known)
        problem.validate_known_constants()
        return problem
