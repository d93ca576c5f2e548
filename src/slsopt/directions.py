"""Search-direction proposals and the gradient-related safeguard.

Raw directions follow the classic recipes: plain negative gradient, heavy-ball
momentum, nonlinear conjugate-gradient mixing, and diagonal adaptive
preconditioning. Before use, every raw direction is tested against the two
realized bounds

    ||d|| <= c1 ||g||        and        d . g <= -c2 ||g||^2

and replaced by -g (with direction history cleared) when either fails, so the
direction actually taken always ties to the sampled gradient.

A DirectionState is a recipe: its kind and constants. The memory a recipe
reads lives only in MemoryRows, one row per run of a lockstep group of
optimizer.run_many; diagnostics.exact_moments_many broadcasts one row over
the N component gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, UnsatisfiableSafeguardError
from .problems import Vector

__all__ = [
    "KINDS",
    "CG_VARIANTS",
    "SgrParams",
    "DirectionState",
    "DirectionOutcome",
    "safeguarded_direction",
    "update_memory",
    "MemoryRows",
]

KINDS = ("sgd", "momentum", "cg", "adagrad_diag")
CG_VARIANTS = ("fr", "pr+")

NORM_BOUND = "norm_bound"
DESCENT_BOUND = "descent_bound"


@dataclass(frozen=True)
class SgrParams:
    """Constants of the direction admissibility test.

    c1 caps the direction norm relative to the sampled gradient, c2 is the
    sufficient-descent coefficient. Requires 0 < c2 <= c1 < inf: an infinite
    c1 bounds nothing and leaves the step floor alpha_low at 0.
    """

    c1: float = 10.0
    c2: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.c2 <= self.c1 < math.inf):
            raise InvalidSpecError(
                f"need 0 < c2 <= c1 < inf, got c1={self.c1}, c2={self.c2}"
            )

    def fallback_admissible(self) -> bool:
        """Whether -g itself passes the test (requires c1 >= 1 and c2 <= 1)."""
        return self.c1 >= 1.0 and self.c2 <= 1.0

    def require_fallback_admissible(self):
        if not self.fallback_admissible():
            raise UnsatisfiableSafeguardError(
                "the restart direction -g violates the configured bounds: "
                f"need c1 >= 1 and c2 <= 1, got c1={self.c1}, c2={self.c2}"
            )


@dataclass(frozen=True)
class DirectionState:
    """A direction recipe: its kind and constants, and no memory.

    The memory of a run, the previous iterate, gradient and direction and
    the squared-gradient accumulator, is a row of a MemoryRows.
    """

    kind: str = "sgd"
    beta: float = 0.9
    cg_variant: str = "pr+"
    beta_cap: float = 10.0
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.cg_variant not in CG_VARIANTS:
            raise InvalidSpecError(f"cg_variant must be one of {CG_VARIANTS}, got {self.cg_variant!r}")
        if not math.isfinite(self.beta):
            raise InvalidSpecError(f"beta must be finite, got {self.beta}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise InvalidSpecError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (self.beta_cap > 0 and math.isfinite(self.beta_cap)):
            raise InvalidSpecError(f"beta_cap must be finite and > 0, got {self.beta_cap}")


@dataclass(frozen=True, eq=False)
class DirectionOutcome:
    """Direction actually taken plus the safeguard bookkeeping for the trace.

    g_norm, d_norm and dTg are ||g||, ||d|| and d . g for the direction
    actually taken, computed once by the safeguard for the trace and the
    line search. A restart is exactly a failed test.
    """

    d: Vector
    sgr_pass: bool
    violated: frozenset
    g_norm: float
    d_norm: float
    dTg: float

    @property
    def restarted(self) -> bool:
        return not self.sgr_pass


# The bounds a direction breaks, keyed by (norm bound fails, descent bound fails).
_VIOLATED = {
    (False, False): frozenset(),
    (True, False): frozenset({NORM_BOUND}),
    (False, True): frozenset({DESCENT_BOUND}),
    (True, True): frozenset({NORM_BOUND, DESCENT_BOUND}),
}


def _violated(rows, params: SgrParams) -> list[frozenset]:
    """The admissibility bounds each (||g||, ||d||, d . g, g . g) row breaks."""
    c1, c2 = params.c1, params.c2
    # Written as not (lhs <= rhs), so that a non-finite operand fails a bound.
    return [_VIOLATED[not dn <= c1 * gn, not dg <= -c2 * gg] for gn, dn, dg, gg in rows]


def _restart(d, g) -> tuple[float, float]:
    """Write -g into d; return the new ||d|| and d . g.

    Callers hold errstate(over="ignore").
    """
    np.negative(g, out=d)
    return math.sqrt(float(d.dot(d))), float(d.dot(g))


def safeguarded_direction(memory: "MemoryRows", g, x, params: SgrParams) -> DirectionOutcome:
    """MemoryRows.propose and safeguard on one gradient g at x, for a memory of one row.

    Raises at once if the configured (c1, c2) make the fallback -g itself
    inadmissible, since no run could proceed under such a configuration.
    """
    params.require_fallback_admissible()
    G = np.asarray(g, float)[None]
    D = memory.propose(G, np.asarray(x, float)[None])
    violated, g_norm, d_norm, dTg = memory.safeguard(D, G, memory.gradient_squares(G), params)
    return DirectionOutcome(D[0], not violated[0], violated[0], g_norm[0], d_norm[0], dTg[0])


def update_memory(memory: "MemoryRows", x_old, g, d) -> None:
    """MemoryRows.update of a memory of one row with one accepted step, stored by reference."""
    memory.update(None, *(np.asarray(v, float)[None] for v in (x_old, g, d)))


class MemoryRows:
    """The direction memories of K rows of one recipe, for stacks of gradients.

    The package's one direction memory. Row k is one run's: ``x_prev``,
    ``g_prev`` and ``d_prev`` are (K, n) stacks of the previous accepted
    iterate, its sampled gradient and the direction taken, read where
    ``has_history`` is True; ``accum`` is the running sum of squared
    gradients, zeros before the first step, since 0 + eps is eps and
    g*g + 0 is g*g. A recipe holds only the stacks it reads (FIELDS). Each
    method treats every row alone, so a row's floats do not depend on the
    other rows or on K.

    ``MemoryRows(spec, K, n)`` holds K fresh memories, one per run of a
    lockstep group; ``memory.broadcast(k, K)`` holds K read-only views of
    row k, for the N-row matrices of the diagnostics.
    """

    # The memory fields each recipe reads.
    FIELDS = {"sgd": (), "momentum": ("x_prev",), "cg": ("g_prev", "d_prev"), "adagrad_diag": ("accum",)}

    def __init__(self, spec: DirectionState, K: int, n: int):
        self.spec = spec
        self.has_history = np.zeros(K, dtype=bool)
        self.x_prev = self.g_prev = self.d_prev = self.accum = None
        for name in self.FIELDS[spec.kind]:
            setattr(self, name, np.zeros((K, n)))

    def broadcast(self, k: int, K: int) -> "MemoryRows":
        """K rows that each hold row k's memory, as np.broadcast_to views of it.

        ``propose(G, x)`` then gives every row of G the direction that row
        k's memory gives it. The views are read-only, so nothing writes
        this memory through them.
        """
        rows = MemoryRows(self.spec, 0, 0)
        rows.has_history = np.full(K, self.has_history[k])
        for name in self.FIELDS[self.spec.kind]:
            row = getattr(self, name)[k]
            setattr(rows, name, np.broadcast_to(row, (K, len(row))))
        return rows

    def uses_memory(self, k: int) -> bool:
        """Whether row k's direction reads its memory, so is not -g.

        adagrad_diag's always does, momentum's and cg's with history, sgd's never.
        """
        kind = self.spec.kind
        return kind == "adagrad_diag" or kind != "sgd" and bool(self.has_history[k])

    def propose(self, G, X):
        """The raw (pre-safeguard) direction of every row, each from its own memory.

        sgd: -g. momentum: -g + beta (x - x_prev). cg: -g + beta_k d_prev
        with beta_k from the Fletcher-Reeves or nonnegative Polak-Ribiere
        formula, clipped at beta_cap. adagrad_diag: -g / sqrt(accum +
        epsilon) elementwise. A momentum or cg row without history gives -g.
        The operations are those of the formulas, reordered only where IEEE
        arithmetic is exact about it: b - a == -a + b, and -(a / b) ==
        -a / b. G is the rows' gradients and X their iterates, a (K, n)
        stack or one (n,) iterate they share. The memory is read, never
        written.
        """
        spec = self.spec
        if spec.kind == "adagrad_diag":
            D = np.add(self.accum, spec.epsilon)
            np.sqrt(D, out=D)
            np.divide(G, D, out=D)
            np.negative(D, out=D)
            return D
        # any and all on Python bools cost a tenth of numpy's reductions here
        history = self.has_history.tolist()
        if spec.kind == "sgd" or not any(history):
            return -G
        if spec.kind == "momentum":
            D = np.subtract(X, self.x_prev)
            D *= spec.beta
            D -= G
        else:
            denom = np.vecdot(self.g_prev, self.g_prev)
            pr = spec.cg_variant == "pr+"
            # pr+ dots G with G - g_prev, held in D until the direction overwrites it
            R = np.subtract(G, self.g_prev) if pr else G
            # Per row, as Python float division gives beta_k: 0 where the
            # stored gradient is zero, pr+ maps NaN and -0.0 to +0.0, fr
            # keeps a NaN, and an overflow is inf, all with no warning.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                beta = np.vecdot(G, R) / denom
            beta[denom == 0.0] = 0.0
            if pr:
                beta = np.where(beta > 0.0, beta, 0.0)
            beta = np.minimum(beta, spec.beta_cap)
            D = np.multiply(self.d_prev, beta[:, None], out=R if pr else None)
            D -= G
        if not all(history):
            fresh = ~self.has_history
            D[fresh] = -G[fresh]
        return D

    # The dots of gradient_squares, safeguard and _restart run under
    # errstate(over="ignore"): a finite vector whose products overflow
    # measures inf, which the bounds read, so the overflow needs no warning.
    @staticmethod
    @np.errstate(over="ignore")
    def gradient_squares(G) -> list[float]:
        """The g . g of each row of G, one np.vecdot, as safeguard takes them."""
        return np.vecdot(G, G).tolist()

    @np.errstate(over="ignore")
    def safeguard(self, D, G, ggs, params: SgrParams):
        """The (c1, c2) test of every row of D, and the restart of each row that fails it.

        ``ggs`` is gradient_squares(G). The other two dots per row are one
        np.vecdot each. Returns the lists (violated, g_norm, d_norm, dTg):
        the bounds each row breaks, and ||g||, ||d|| and d . g of the
        direction it takes. A row that violates a bound gets -g written
        into its row of D, its norm and slope re-measured, and its history
        cleared.
        """
        g_norm = [math.sqrt(gg) for gg in ggs]
        d_norm = [math.sqrt(dd) for dd in np.vecdot(D, D).tolist()]
        # With one variable, d . g is the product itself, -0.0 included, as
        # ndarray.dot gives it for a one-entry operand; np.vecdot adds the
        # product to +0.0.
        dTg = (D[:, 0] * G[:, 0] if D.shape[1] == 1 else np.vecdot(D, G)).tolist()
        violated = _violated(zip(g_norm, d_norm, dTg, ggs), params)
        for k in [k for k, v in enumerate(violated) if v]:
            d_norm[k], dTg[k] = _restart(D[k], G[k])
            self.has_history[k] = False
        return violated, g_norm, d_norm, dTg

    def update(self, step, X, G, D):
        """Record each accepted step on the rows where ``step`` is True (None: on all).

        Each stepping row keeps what its recipe reads: X as the previous
        iterate, G as the previous sampled gradient, D as the previous
        direction, and its accumulator plus G*G.

        With every row stepping the stacks are stored by reference; the
        caller must not write into X, G or D afterwards.
        """
        kind = self.spec.kind
        if kind == "adagrad_diag":
            if step is None:
                self.accum += np.multiply(G, G)
            else:
                self.accum[step] += np.multiply(G[step], G[step])
            return
        if kind == "sgd":
            return
        stored = {"x_prev": X, "g_prev": G, "d_prev": D}
        for name in self.FIELDS[kind]:
            if step is None:
                setattr(self, name, stored[name])
            else:
                getattr(self, name)[step] = stored[name][step]
        self.has_history[slice(None) if step is None else step] = True

    def keep(self, rows):
        """Drop every row not selected by the boolean mask ``rows``."""
        self.has_history = self.has_history[rows]
        for name in self.FIELDS[self.spec.kind]:
            setattr(self, name, getattr(self, name)[rows])
