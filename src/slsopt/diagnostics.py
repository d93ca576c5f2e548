"""Exact estimation of the statistical regularity constants.

All expectations are conditional on the current point and taken over the batch
draw. With singleton batches they are computed exactly as uniform averages
over the N component functions, which turns growth conditions, covariance
bounds, and the certified contraction coefficient into checkable numbers
instead of assumptions. var / cov are accumulated in centered form; the
uncentered identities then hold as genuine floating-point checks rather than
by construction.

The direction at each point is the optimizer's own recipe: propose_direction
on every component gradient, with the memory of a DirectionState that is
read and never written; MemoryRows.broadcast builds the N rows at once.
Without a state it is -g.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .directions import DirectionState, MemoryRows
from .errors import DomainError, NumericDomainError, UndefinedEstimateError, UnsupportedProblemError
from .problems import ResidualProblem, Vector, as_vector

__all__ = [
    "MomentReport",
    "TheoremConstants",
    "EtaReport",
    "LemmaBoundsReport",
    "exact_moments",
    "point_moments",
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
    E_dTg should reconstruct E_d . E_g + cov_dg up to roundoff. f, the
    objective value at x, is set by point_moments only.
    """

    x: Vector
    E_g: Vector
    E_norm_g_sq: float
    var_g: float
    E_d: Vector
    E_dTg: float
    cov_dg: float
    f: float | None = None


def _moments_from_samples(x, G: np.ndarray, D: np.ndarray | None) -> MomentReport:
    """Moments of the rows of G and D; D None stands for -G.

    Takes ownership of G and D: both are centred in their own buffers, after
    every uncentred moment has been read from them, so a point holds no
    second N x n matrix. The floats are those of the out-of-place G - E_g.
    """
    E_g = G.mean(axis=0)
    E_norm_g_sq = float(np.einsum("ij,ij->i", G, G).mean())
    if D is not None:
        E_d = D.mean(axis=0)
        E_dTg = float(np.einsum("ij,ij->i", D, G).mean())
        np.subtract(D, E_d, out=D)
    np.subtract(G, E_g, out=G)
    var_g = float(np.einsum("ij,ij->i", G, G).mean())
    if D is None:
        # D = -G. Negating every term of a sum negates the rounded sum, so
        # these equal the moments of the explicit matrix -G (as values; a sum
        # that cancels to zero may differ in the sign of that zero).
        E_d, E_dTg, cov_dg = -E_g, -E_norm_g_sq, -var_g
    else:
        cov_dg = float(np.einsum("ij,ij->i", D, G).mean())
    return MomentReport(x, E_g, E_norm_g_sq, max(var_g, 0.0), E_d, E_dTg, cov_dg)


def exact_moments(problem: ResidualProblem, x, state: DirectionState | None = None) -> MomentReport:
    """Moments as exact uniform averages over the N singleton batches.

    Builds the N x n component-gradient matrix once, centres it in place and
    drops it on return. Row i of the direction matrix is
    propose_direction(state, G[i], x), built only when the recipe with that
    memory is not -g.
    """
    xv = as_vector(x, problem.n)
    G = problem.component_grads(xv)
    D = None
    if state is not None and not state.negates_gradient:
        D = MemoryRows.broadcast(state, *G.shape).propose(G, xv)
    return _moments_from_samples(xv, G, D)


def point_moments(problem: ResidualProblem, x, state: DirectionState | None = None) -> MomentReport:
    """Everything the estimators read at x, from one exact pass.

    exact_moments plus the objective value f: component values and component
    gradients are each evaluated once. The *_from_moments reducers take a
    sequence of these records, so several estimates share one pass per point.
    """
    xv = as_vector(x, problem.n)
    f = float(problem.component_values(xv).mean())
    return replace(exact_moments(problem, xv, state), f=f)


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
    """Weak-growth ratio max E||g||^2 / (2 L (f - f_star)) over point_moments records."""
    if L <= 0:
        raise DomainError(f"L must be > 0, got {L}")

    def ratio(m):
        gap = m.f - f_star
        return None if gap <= tol else m.E_norm_g_sq / (2.0 * L * gap)

    return _first_best(map(ratio, moments), operator.gt, "no sample had a positive optimality gap")


def pl_from_moments(moments: Iterable[MomentReport], f_star: float, tol: float = 1e-12) -> tuple[float, int]:
    """Gradient-domination constant min ||grad f||^2 / (2 (f - f_star)) over point_moments records."""

    def ratio(m):
        gap = m.f - f_star
        return None if gap <= tol else float(m.E_g @ m.E_g) / (2.0 * gap)

    return _first_best(map(ratio, moments), operator.lt, "no sample had a positive optimality gap")


def estimate_c3(problem: ResidualProblem, x_samples, state: DirectionState | None = None) -> float:
    """Smallest anti-correlation coefficient covering all sampled points.

    Returns max over samples of max(0, -cov_dg) / var_g, skipping points with
    zero gradient variance; errors out if every sample is degenerate.
    """
    return c3_from_moments(exact_moments(problem, x, state) for x in x_samples)[0]


def estimate_rho(problem: ResidualProblem, x_samples, tol: float = 1e-10) -> float:
    """Sampled strong-growth ratio max E||g||^2 / ||grad f||^2; always >= 1."""
    return rho_from_moments((exact_moments(problem, x) for x in x_samples), tol)[0]


def _require_f_star(problem):
    if problem.known is None or problem.known.f_star is None:
        raise UnsupportedProblemError("this estimate needs a problem with known f_star")
    return problem.known.f_star


def estimate_wgc(problem: ResidualProblem, x_samples, L: float, tol: float = 1e-12) -> float:
    """Sampled weak-growth ratio max E||g||^2 / (2 L (f - f_star))."""
    if L <= 0:
        raise DomainError(f"L must be > 0, got {L}")
    f_star = _require_f_star(problem)
    return wgc_from_moments((point_moments(problem, x) for x in x_samples), f_star, L, tol)[0]


def estimate_pl(problem: ResidualProblem, x_samples, tol: float = 1e-12) -> float:
    """Largest gradient-domination constant valid on the sample set.

    Returns min over samples of ||grad f||^2 / (2 (f - f_star)); points at the
    optimum are excluded (0/0).
    """
    f_star = _require_f_star(problem)
    return pl_from_moments((point_moments(problem, x) for x in x_samples), f_star, tol)[0]


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

    and flag whether 0 < eta < 1/alpha_max, which certifies the geometric
    decay of the expected optimality gap at rate eta * alpha_max.
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
    state: DirectionState | None = None,
) -> LemmaBoundsReport:
    """Check the expected-direction bounds at x with exact enumeration moments.

    The direction is the recipe of state with its memory (-g without one).

        ||E[d]|| <= c1 sqrt(rho) ||grad f||
        E[d] . grad f <= -sigma ||grad f||^2

    Requires sigma > 0; slacks are rhs - lhs, nonnegative when the bound holds.
    """
    _require_lemma_applicable(constants)
    return lemma_bounds_from_moments(exact_moments(problem, x, state), constants)
