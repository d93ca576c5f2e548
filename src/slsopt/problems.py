"""Finite-sum objectives f(x) = (1/N) sum_i f_i(x) with exact component oracles.

Problems expose per-component values and gradients, mini-batch averages, and
an exact full-sum oracle. The synthetic generators plant a minimizer shared by
every component, so the interpolation property holds by construction and the
smoothness / gradient-domination constants are known analytically where the
structure permits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

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
    "Batch",
    "BatchSampler",
    "FiniteSumProblem",
    "ResidualProblem",
    "LeastSquaresProblem",
    "TwoFactorProblem",
    "evaluate_batch",
    "full_oracle",
    "gen_interpolating_least_squares",
    "gen_nonconvex_interpolating",
    "save_least_squares",
    "load_least_squares",
]


def as_vector(x, n: int | None = None, name: str = "x") -> Vector:
    """Coerce to a finite 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if n is not None and v.shape[0] != n:
        raise ShapeError(f"{name} must have length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise NumericDomainError(f"{name} contains non-finite entries")
    return v


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


@dataclass(frozen=True)
class Batch:
    """Multiset of component indices (0-based); duplicates are allowed."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise InvalidBatchError("batch must contain at least one index")

    @property
    def size(self) -> int:
        return len(self.indices)


class BatchSampler:
    """Uniform batch draws, deterministic for a fixed seed.

    mode "singleton" draws size-1 batches and supports exact expectations by
    enumerating all N singleton batches with weight 1/N; "with_replacement"
    draws batch_size indices i.i.d. uniform.

    Indices are drawn BLOCK batches at a time from the same generator. One
    call for BLOCK * batch_size integers yields the same stream as BLOCK
    calls for batch_size each, so the batch sequence does not depend on the
    block size.
    """

    MODES = ("singleton", "with_replacement")
    BLOCK = 256

    def __init__(self, N: int, mode: str = "singleton", batch_size: int = 1, seed=0):
        if N < 1:
            raise InvalidSpecError(f"N must be >= 1, got {N}")
        if mode not in self.MODES:
            raise InvalidSpecError(f"unknown sampler mode {mode!r}")
        if batch_size < 1:
            raise InvalidSpecError(f"batch_size must be >= 1, got {batch_size}")
        if mode == "singleton" and batch_size != 1:
            raise InvalidSpecError("singleton mode requires batch_size=1")
        self.N = int(N)
        self.mode = mode
        self.batch_size = int(batch_size)
        self._rng = np.random.default_rng(seed)
        self._pending: list[Batch] = []

    def draw(self) -> Batch:
        if not self._pending:
            block = self._rng.integers(0, self.N, size=(self.BLOCK, self.batch_size))
            self._pending = [Batch(tuple(row)) for row in reversed(block.tolist())]
        return self._pending.pop()

    def enumerate_singletons(self) -> Iterator[Batch]:
        if self.mode != "singleton":
            raise InvalidSpecError("exact enumeration requires singleton mode")
        for i in range(self.N):
            yield Batch((i,))


class FiniteSumProblem:
    """Average of N differentiable components with exact oracles.

    ``components`` is a sequence of (value, grad) callable pairs; generated
    families subclass this and override the bulk evaluation paths with
    vectorized code, in which case ``components`` may be omitted.
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
    # override these together with the bulk paths below.
    def component_value(self, i: int, x: Vector) -> float:
        return float(self._components[i][0](x))

    def component_grad(self, i: int, x: Vector) -> Vector:
        return np.asarray(self._components[i][1](x), dtype=np.float64)

    # Bulk paths; default implementations loop over the primitives.
    def batch_value(self, indices: Sequence[int], x: Vector) -> float:
        return sum(self.component_value(i, x) for i in indices) / len(indices)

    def batch_ray(self, indices: Sequence[int], x: Vector, d: Vector) -> Callable[[float], float]:
        """phi(a) = f_B(x + a d), the batch value along one ray.

        This default forms the trial point and calls batch_value, so each
        trial costs a full evaluation. The generated families override it
        with closed forms whose trials cost O(|B|) scalar work.
        """
        return lambda a: self.batch_value(indices, x + a * d)

    def batch_eval(self, indices: Sequence[int], x: Vector) -> tuple[float, Vector]:
        f = 0.0
        g = np.zeros(self.n)
        for i in indices:
            f += self.component_value(i, x)
            g += self.component_grad(i, x)
        b = len(indices)
        return f / b, g / b

    def full_value_grad(self, x: Vector) -> tuple[float, Vector]:
        return self.batch_eval(range(self.N), x)

    def component_values(self, x: Vector) -> np.ndarray:
        return np.array([self.component_value(i, x) for i in range(self.N)])

    def component_grads(self, x: Vector) -> np.ndarray:
        return np.stack([self.component_grad(i, x) for i in range(self.N)])

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


def _mean_half_square(r) -> float:
    """Mean of 0.5 r_i^2 over one float residual or an array of residuals."""
    if isinstance(r, float):
        return 0.5 * r * r
    return 0.5 * float(r @ r) / r.size


class ResidualProblem(FiniteSumProblem):
    """Squared residuals f_i(x) = 0.5 (a_i . w(x) - b_i)^2 of features w(x).

    The rows a_i are stacked in A. Every oracle is derived here from the
    residuals; a family supplies four hooks:

    - ``features(x)``: the feature vector w(x);
    - ``pullback(x, s)``: the transposed-Jacobian product J_w(x)^T s;
    - ``ray_coefficients(rows, x, d)``: (c1, c2) such that the residuals of
      ``rows`` along x + a d are r0 + a (c1 + a c2);
    - ``component_grads(x)``: the N x n matrix of component gradients.

    ``n`` is the length of x and defaults to the number of columns of A.
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

    def _residuals(self, indices, x):
        """The rows named by ``indices`` (all N when None) and their residuals.

        A single index gives its row and a float residual. float(row @ w)
        matches the expression the generators plant b_i with, so the residual
        at the planted minimizer is exactly zero.
        """
        w = self.features(x)
        if indices is None:
            return self.A, self.A @ w - self.b
        if len(indices) == 1:
            i = indices[0]
            return self.A[i], float(self.A[i] @ w) - float(self.b[i])
        idx = np.asarray(indices)
        rows = self.A[idx]
        return rows, rows @ w - self.b[idx]

    def _mean_grad(self, rows, r, x):
        if isinstance(r, float):
            return r * self.pullback(x, rows)
        return self.pullback(x, (rows.T @ r) / r.size)

    def component_value(self, i, x):
        return _mean_half_square(self._residuals((i,), x)[1])

    def component_grad(self, i, x):
        rows, r = self._residuals((i,), x)
        return self._mean_grad(rows, r, x)

    def batch_value(self, indices, x):
        return _mean_half_square(self._residuals(indices, x)[1])

    def batch_eval(self, indices, x):
        rows, r = self._residuals(indices, x)
        return _mean_half_square(r), self._mean_grad(rows, r, x)

    def batch_ray(self, indices, x, d):
        # Residuals are quadratic along the ray; r0 comes from the expressions
        # batch_value uses, so phi(0) is its f_B(x).
        rows, r0 = self._residuals(indices, x)
        c1, c2 = self.ray_coefficients(rows, x, d)
        if isinstance(r0, float):
            c1, c2 = float(c1), float(c2)
        return lambda a: _mean_half_square(r0 + a * (c1 + a * c2))

    def full_value_grad(self, x):
        return self.batch_eval(None, x)

    def component_values(self, x):
        r = self._residuals(None, x)[1]
        return 0.5 * r * r


class LeastSquaresProblem(ResidualProblem):
    """Components f_i(x) = 0.5 (a_i . x - b_i)^2 with rows a_i stacked in A."""

    # bench/tracer.py wraps batch_value and component_grads where each
    # concrete class defines them, so both are bound in this class body.
    batch_value = ResidualProblem.batch_value

    def features(self, x):
        return x

    def pullback(self, x, s):
        return s

    def ray_coefficients(self, rows, x, d):
        return rows @ d, 0.0

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
    batch_value = ResidualProblem.batch_value

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

    def pullback(self, x, s):
        u, V = self.unpack(x)
        return np.concatenate([V @ s, np.outer(u, s).ravel()])

    def ray_coefficients(self, rows, x, d):
        # With P = V a_i and Q = dV a_i per row, (u + a du)(V + a dV) a_i
        # - b_i = r0 + a (du . P + u . Q) + a^2 (du . Q).
        u, V = self.unpack(x)
        du, dV = self.unpack(d)
        P = V @ rows.T
        Q = dV @ rows.T
        return du @ P + u @ Q, du @ Q

    def component_grads(self, x):
        u, V = self.unpack(x)
        r = self._residuals(None, x)[1]
        Gu = r[:, None] * (self.A @ V.T)
        GV = np.einsum("i,u,iv->iuv", r, u, self.A).reshape(self.N, -1)
        return np.hstack([Gu, GV])


def _check_batch(problem: FiniteSumProblem, batch) -> tuple[int, ...]:
    indices = batch.indices if isinstance(batch, Batch) else tuple(batch)
    if len(indices) == 0:
        raise InvalidBatchError("batch must contain at least one index")
    for i in indices:
        if not 0 <= int(i) < problem.N:
            raise InvalidBatchError(
                f"index {i} outside [0, {problem.N - 1}] for this problem"
            )
    return tuple(int(i) for i in indices)


def evaluate_batch(problem: FiniteSumProblem, batch, x) -> tuple[float, Vector]:
    """Mean value and gradient of the components named by ``batch`` at ``x``."""
    indices = _check_batch(problem, batch)
    xv = as_vector(x, problem.n)
    f, g = problem.batch_eval(indices, xv)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericDomainError(f"non-finite batch evaluation at indices {indices}")
    return float(f), np.asarray(g, dtype=np.float64)


def full_oracle(problem: FiniteSumProblem, x) -> tuple[float, Vector]:
    """Exact average over all N components; for tracing and diagnostics only."""
    xv = as_vector(x, problem.n)
    f, g = problem.full_value_grad(xv)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericDomainError("non-finite full-sum evaluation")
    return float(f), np.asarray(g, dtype=np.float64)


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
    rng = np.random.default_rng(seed)
    k = s.size
    U = _orthonormal_columns(rng, N, k)
    V = _orthonormal_columns(rng, n, k)
    A = (U * s) @ V.T
    x_star = rng.standard_normal(n)
    # Plant labels with the same row-dot expression the oracles use, so the
    # per-component residuals at x_star are exactly 0.0.
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


def save_least_squares(problem: LeastSquaresProblem, path):
    """Dump A and b as plain text: header "N n", N rows of A, one line for b."""
    lines = [f"{problem.N} {problem.n}"]
    for i in range(problem.N):
        lines.append(" ".join(repr(float(v)) for v in problem.A[i]))
    lines.append(" ".join(repr(float(v)) for v in problem.b))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_least_squares(path) -> LeastSquaresProblem:
    """Rebuild a least-squares instance from the plain-text matrix format.

    Spectral constants are recomputed from A. When the system is consistent
    (labels in the range of A) the minimum-norm solution is stored as x_star
    with f_star = 0; otherwise only the curvature constants are kept.
    """
    with open(path) as fh:
        tokens = fh.read().split("\n")
    header = tokens[0].split()
    if len(header) != 2:
        raise InvalidSpecError(f"malformed header line {tokens[0]!r}")
    N, n = int(header[0]), int(header[1])
    rows = []
    for i in range(N):
        vals = np.array([float(t) for t in tokens[1 + i].split()])
        if vals.shape != (n,):
            raise InvalidSpecError(f"row {i} has {vals.size} entries, expected {n}")
        rows.append(vals)
    A = np.stack(rows)
    b = np.array([float(t) for t in tokens[1 + N].split()])
    if b.shape != (N,):
        raise InvalidSpecError(f"b has {b.shape[0]} entries, expected {N}")

    s = np.linalg.svd(A, compute_uv=False)
    cutoff = s.max() * max(A.shape) * np.finfo(np.float64).eps if s.size else 0.0
    nonzero = s[s > cutoff]
    if nonzero.size == 0:
        raise InvalidSpecError("loaded matrix is identically zero")
    x_hat, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ x_hat - b))
    consistent = residual <= 1e-8 * max(1.0, float(np.linalg.norm(b)))
    row_sq = np.einsum("ij,ij->i", A, A)
    known = KnownConstants(
        L=float(nonzero.max() ** 2) / N,
        L_max=float(np.max(row_sq)),
        mu=float(nonzero.min() ** 2) / N,
        f_star=0.0 if consistent else None,
        x_star=x_hat if consistent else None,
    )
    problem = LeastSquaresProblem(A, b, known)
    problem.validate_known_constants()
    return problem
