"""Exact estimation of the statistical regularity constants.

All expectations are conditional on the current point and taken over the batch
draw. With singleton batches they are computed exactly as uniform averages
over the N component functions, which turns growth conditions, covariance
bounds, and the certified contraction coefficient into checkable numbers
instead of assumptions. var / cov are accumulated in centered form; the
uncentered identities then hold as genuine floating-point checks rather than
by construction.

The direction at each point is the optimizer's own recipe on every component
gradient, with the memory that optimizer.run_many writes: row 0 of a
MemoryRows, broadcast over a block of gradient rows, read and never written.
A fresh memory is ``MemoryRows(spec, 1, n)``. Without a memory it is -g.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _blas
from .directions import MemoryRows
from .errors import DomainError, NumericDomainError, UndefinedEstimateError, UnsupportedProblemError
from .problems import ResidualProblem, Vector, as_vector

__all__ = [
    "MomentReport",
    "TheoremConstants",
    "EtaReport",
    "LemmaBoundsReport",
    "exact_moments",
    "exact_moments_many",
    "estimate_c3",
    "estimate_rho",
    "estimate_wgc",
    "estimate_pl",
    "verify_lemma_bounds",
    "rho_from_moments",
    "c3_from_moments",
    "wgc_from_moments",
    "pl_from_moments",
    "lemma_bounds_from_moments",
    "compute_eta",
]


@dataclass(frozen=True, eq=False)
class MomentReport:
    """First and second moments of the sampled gradient and the direction.

    var_g and cov_dg come from centered accumulation (var_g clamped at 0);
    E_dTg should reconstruct E_d . E_g + cov_dg up to roundoff. f is the
    objective value at x, the mean of the N component values.
    """

    x: Vector
    E_g: Vector
    E_norm_g_sq: float
    var_g: float
    E_d: Vector
    E_dTg: float
    cov_dg: float
    f: float


# Bytes of one block of gradient (or direction) rows, about an L2 cache: a
# block is still cached when its row dots and column sums read it.
_BLOCK_BYTES = 256 * 1024


def _blocks(N: int, n: int) -> list[slice]:
    """The blocks of rows of an (N, n) matrix that exact_moments_many forms.

    Each holds _BLOCK_BYTES of rows, and at least two, since numpy's
    ``einsum`` dots a single long row in another order than the same row of
    a matrix: a last block of one row joins the block before it. numpy sums
    the rows of a matrix in order when n >= 2, which _ColumnSum continues
    block by block; a single column it sums pairwise, so that column is one
    block.
    """
    k = N if n == 1 else max(2, _BLOCK_BYTES // (8 * n))
    starts = list(range(0, N, k))
    if len(starts) > 1 and N - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [N])]


class _ColumnSum:
    """np.add.reduce(M, axis=0) of a matrix M written block by block.

    Each block of k rows is written into rows 1..k of a block buffer, and
    ``add(buf, k)`` reduces them with the running total copied into row 0
    above them: that continues numpy's in-order sum of the rows of the whole
    M (n >= 2, see _blocks). Only the total is kept, so the sums of several
    matrices can share one buffer.
    """

    def __init__(self):
        self.total = None

    def add(self, buf: np.ndarray, k: int):
        if self.total is None:
            self.total = np.add.reduce(buf[1 : k + 1], axis=0)
        else:
            buf[0] = self.total
            np.add.reduce(buf[: k + 1], axis=0, out=self.total)


def _row_dots(P, Q):
    return np.einsum("ij,ij->i", P, Q)


def exact_moments(problem: ResidualProblem, x, memory: MemoryRows | None = None) -> MomentReport:
    """Moments and f at x: exact_moments_many's group of one point."""
    return exact_moments_many(problem, [x], memory)[0]


@_blas.single_thread()
def exact_moments_many(
    problem: ResidualProblem, points, memory: MemoryRows | None = None
) -> list[MomentReport]:
    """Moments and f at each point, as exact uniform averages over the N singleton batches.

    One residual pass per point gives its f and every component gradient.
    The rows of each point's gradient matrix G, and of its direction matrix
    D where the recipe with row 0 of ``memory`` is not -g, are then formed
    in blocks (_blocks), in two sweeps shared by all points. Each sweep
    visits each block of rows once and, while that block of A is cached,
    forms it for every point in turn: the first sweep dots each row and
    adds the block to the point's column sums, the second forms the block
    again, centres it in place and dots it again. No N x n matrix is held, only one block
    buffer for all points and each point's running sums, yet every float
    is that of the point's whole matrices: G.mean(axis=0), the mean of the
    einsum row dots, the out-of-place G - E_g. Row i of D is the direction
    that row 0 of ``memory`` gives G[i] at x. Runs on one BLAS thread.
    """
    N, n = problem.N, problem.n
    xs = [as_vector(x, n) for x in points]
    fs, grads = [], []
    for xv in xs:
        r, point_grads = problem.component_pass(xv)
        fs.append(float((0.5 * r * r).mean()))
        grads.append(point_grads)
    blocks = _blocks(N, n)
    most = max(block.stop - block.start for block in blocks)
    with_d = memory is not None and memory.uses_memory(0)

    def directions(G, xv):
        return memory.broadcast(0, len(G)).propose(G, xv)

    # Row p of gg and dg holds point p's row dots.
    gg, dg = np.empty((len(xs), N)), np.empty((len(xs), N))
    buf_g = np.empty((most + 1, n))
    buf_d = np.empty((most + 1, n)) if with_d else None
    sums_g = [_ColumnSum() for _ in xs]
    sums_d = [_ColumnSum() for _ in xs]
    for block in blocks:
        k = block.stop - block.start
        for p, xv in enumerate(xs):
            G = grads[p](block, buf_g[1 : k + 1])
            gg[p, block] = _row_dots(G, G)
            if with_d:
                D = buf_d[1 : k + 1]
                D[...] = directions(G, xv)
                dg[p, block] = _row_dots(D, G)
                sums_d[p].add(buf_d, k)
            sums_g[p].add(buf_g, k)
    E_g = [sums.total / N for sums in sums_g]
    E_norm_g_sq = [float(row.mean()) for row in gg]
    if with_d:
        E_d = [sums.total / N for sums in sums_d]
        E_dTg = [float(row.mean()) for row in dg]
    # The second sweep forms each block in the first sweep's buffer.
    for block in blocks:
        k = block.stop - block.start
        for p, xv in enumerate(xs):
            G = grads[p](block, buf_g[1 : k + 1])
            if with_d:
                D = directions(G, xv)
                np.subtract(D, E_d[p], out=D)
            np.subtract(G, E_g[p], out=G)
            gg[p, block] = _row_dots(G, G)
            if with_d:
                dg[p, block] = _row_dots(D, G)
    reports = []
    for p, xv in enumerate(xs):
        var_g = float(gg[p].mean())
        if with_d:
            moments = E_d[p], E_dTg[p], float(dg[p].mean())
        else:
            # D = -G. Negating every term of a sum negates the rounded sum, so
            # these equal the moments of the explicit matrix -G (as values; a
            # sum that cancels to zero may differ in the sign of that zero).
            moments = -E_g[p], -E_norm_g_sq[p], -var_g
        reports.append(MomentReport(xv, E_g[p], E_norm_g_sq[p], max(var_g, 0.0), *moments, fs[p]))
    return reports


def _first_best(ratios: Iterable[float | None], better, undefined: str) -> tuple[float, int]:
    """The best ratio and the index of its first occurrence; None marks a skipped point."""
    best = point = None
    for i, ratio in enumerate(ratios):
        if ratio is not None and (best is None or better(ratio, best)):
            best, point = ratio, i
    if best is None:
        raise UndefinedEstimateError(undefined)
    return best, point


def rho_from_moments(moments: Iterable[MomentReport], tol: float = 1e-10) -> tuple[float, int]:
    """Strong-growth ratio max E||g||^2 / ||grad f||^2 and the first point attaining it.

    Points whose full gradient norm is at most tol are skipped; the ratio is
    always >= 1.
    """

    def ratio(m):
        denom = float(m.E_g @ m.E_g)
        return None if math.sqrt(denom) <= tol else m.E_norm_g_sq / denom

    best, point = _first_best(
        map(ratio, moments), operator.gt, "no sample had full gradient norm above the tolerance"
    )
    if best < 1.0 - 1e-9:
        raise NumericDomainError(
            f"growth ratio {best!r} < 1 contradicts the mean-square inequality"
        )
    return max(best, 1.0), point


def c3_from_moments(moments: Iterable[MomentReport]) -> tuple[float, int]:
    """Covariance coefficient max max(0, -cov_dg) / var_g and the first point attaining it.

    Points with zero gradient variance are skipped.
    """

    def ratio(m):
        return None if m.var_g <= 0.0 else max(0.0, -m.cov_dg) / m.var_g

    return _first_best(map(ratio, moments), operator.gt, "gradient variance vanished at every sample")


def wgc_from_moments(
    moments: Iterable[MomentReport], f_star: float, L: float, tol: float = 1e-12
) -> tuple[float, int]:
    """Weak-growth ratio max E||g||^2 / (2 L (f - f_star)) over exact_moments records."""
    if L <= 0:
        raise DomainError(f"L must be > 0, got {L}")

    def ratio(m):
        gap = m.f - f_star
        return None if gap <= tol else m.E_norm_g_sq / (2.0 * L * gap)

    return _first_best(map(ratio, moments), operator.gt, "no sample had a positive optimality gap")


def pl_from_moments(moments: Iterable[MomentReport], f_star: float, tol: float = 1e-12) -> tuple[float, int]:
    """Gradient-domination constant min ||grad f||^2 / (2 (f - f_star)) over exact_moments records."""

    def ratio(m):
        gap = m.f - f_star
        return None if gap <= tol else float(m.E_g @ m.E_g) / (2.0 * gap)

    return _first_best(map(ratio, moments), operator.lt, "no sample had a positive optimality gap")


def estimate_c3(problem: ResidualProblem, x_samples, memory: MemoryRows | None = None) -> float:
    """Smallest anti-correlation coefficient covering all sampled points.

    Returns max over samples of max(0, -cov_dg) / var_g, skipping points with
    zero gradient variance; errors out if every sample is degenerate.
    """
    return c3_from_moments(exact_moments_many(problem, x_samples, memory))[0]


def estimate_rho(problem: ResidualProblem, x_samples, tol: float = 1e-10) -> float:
    """Sampled strong-growth ratio max E||g||^2 / ||grad f||^2; always >= 1."""
    return rho_from_moments(exact_moments_many(problem, x_samples), tol)[0]


def _require_f_star(problem):
    if problem.known is None or problem.known.f_star is None:
        raise UnsupportedProblemError("this estimate needs a problem with known f_star")
    return problem.known.f_star


def estimate_wgc(problem: ResidualProblem, x_samples, L: float, tol: float = 1e-12) -> float:
    """Sampled weak-growth ratio max E||g||^2 / (2 L (f - f_star))."""
    if L <= 0:
        raise DomainError(f"L must be > 0, got {L}")
    f_star = _require_f_star(problem)
    return wgc_from_moments(exact_moments_many(problem, x_samples), f_star, L, tol)[0]


def estimate_pl(problem: ResidualProblem, x_samples, tol: float = 1e-12) -> float:
    """Largest gradient-domination constant valid on the sample set.

    Returns min over samples of ||grad f||^2 / (2 (f - f_star)); points at the
    optimum are excluded (0/0).
    """
    f_star = _require_f_star(problem)
    return pl_from_moments(exact_moments_many(problem, x_samples), f_star, tol)[0]


@dataclass(frozen=True)
class TheoremConstants:
    """Constants feeding the certified linear-rate bound.

    sigma = c2 - c3 (1 - 1/rho) is the effective expected-descent coefficient;
    the bound applies only when sigma > 0 (lemma_applicable).
    """

    c1: float
    c2: float
    c3: float
    rho: float
    mu: float
    L: float
    L_max: float
    gamma: float
    delta: float
    alpha_max: float

    def __post_init__(self):
        if self.rho < 1.0:
            raise DomainError(f"rho must be >= 1, got {self.rho}")
        for name in ("c1", "c2", "mu", "L", "L_max", "alpha_max"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")
        if self.c3 < 0:
            raise DomainError(f"c3 must be >= 0, got {self.c3}")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def sigma(self) -> float:
        return self.c2 - self.c3 * (1.0 - 1.0 / self.rho)

    @property
    def lemma_applicable(self) -> bool:
        return self.c2 > self.c3 * (1.0 - 1.0 / self.rho)


@dataclass(frozen=True)
class EtaReport:
    """Contraction coefficient and whether the certified bound is in force."""

    eta: float
    rate: float  # eta * alpha_max
    hypothesis_ok: bool  # c2 > c3 (1 - 1/rho)
    certified: bool  # hypothesis_ok and 0 < eta < 1/alpha_max


def compute_eta(constants: TheoremConstants) -> EtaReport:
    """Evaluate the rate coefficient

    eta = (L_max c1^2 / (2 c2)) (1/gamma + 1/(delta (1 - gamma))) - 2 sigma mu

    and flag whether 0 < eta < 1/alpha_max, which is meant to certify the
    geometric decay of the expected optimality gap at rate eta * alpha_max.

    The flag is not sound (ROADMAP item 1). On the orthonormal instance
    gen_interpolating_least_squares(4, 4, seed=6, singular_values=np.ones(4))
    with c1 = c2 = 1, gamma = 0.5, delta = 0.99, rho = 4, c3 = 1, mu = 0.25
    and L_max = 1, eta = 1.885101 flags every alpha_max < 0.5305, yet for
    alpha_max = a <= 1 every step is a and the exact expected one-step
    ratio is 1 - a (2 - a) / 4, above eta * a for every a < 0.4395 (0.995
    against 0.0189 at a = 0.01). tests/test_diagnostics.py pins this as a
    strict xfail.
    """
    c = constants
    eta = (c.L_max * c.c1 * c.c1 / (2.0 * c.c2)) * (
        1.0 / c.gamma + 1.0 / (c.delta * (1.0 - c.gamma))
    ) - 2.0 * c.sigma * c.mu
    hypothesis_ok = c.lemma_applicable
    certified = hypothesis_ok and 0.0 < eta < 1.0 / c.alpha_max
    return EtaReport(
        eta=eta, rate=eta * c.alpha_max, hypothesis_ok=hypothesis_ok, certified=certified
    )


@dataclass(frozen=True)
class LemmaBoundsReport:
    norm_ok: bool
    descent_ok: bool
    norm_slack: float
    descent_slack: float


def _require_lemma_applicable(constants: TheoremConstants):
    if not constants.lemma_applicable:
        raise DomainError(
            "constants violate the hypothesis c2 > c3 (1 - 1/rho): "
            f"c2={constants.c2}, c3={constants.c3}, rho={constants.rho}"
        )


def lemma_bounds_from_moments(m: MomentReport, constants: TheoremConstants) -> LemmaBoundsReport:
    """The expected-direction bounds of verify_lemma_bounds, from one moment record."""
    _require_lemma_applicable(constants)
    grad = m.E_g
    gnorm = float(np.linalg.norm(grad))
    norm_lhs = float(np.linalg.norm(m.E_d))
    norm_rhs = constants.c1 * math.sqrt(constants.rho) * gnorm
    descent_lhs = float(m.E_d @ grad)
    descent_rhs = -constants.sigma * (gnorm * gnorm)
    return LemmaBoundsReport(
        norm_ok=norm_lhs <= norm_rhs,
        descent_ok=descent_lhs <= descent_rhs,
        norm_slack=norm_rhs - norm_lhs,
        descent_slack=descent_rhs - descent_lhs,
    )


def verify_lemma_bounds(
    problem: ResidualProblem,
    x,
    constants: TheoremConstants,
    memory: MemoryRows | None = None,
) -> LemmaBoundsReport:
    """Check the expected-direction bounds at x with exact enumeration moments.

    The direction is the recipe with row 0 of ``memory`` (-g without one).

        ||E[d]|| <= c1 sqrt(rho) ||grad f||
        E[d] . grad f <= -sigma ||grad f||^2

    Requires sigma > 0; slacks are rhs - lhs, nonnegative when the bound holds.
    """
    _require_lemma_applicable(constants)
    return lemma_bounds_from_moments(exact_moments(problem, x, memory), constants)
