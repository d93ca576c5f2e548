"""Search-direction proposals and the gradient-related safeguard.

Raw directions follow the classic recipes: plain negative gradient, heavy-ball
momentum, nonlinear conjugate-gradient mixing, and diagonal adaptive
preconditioning. Before use, every raw direction is tested against the two
realized bounds

    ||d|| <= c1 ||g||        and        d . g <= -c2 ||g||^2

and replaced by -g (with direction history cleared) when either fails, so the
direction actually taken always ties to the sampled gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpecError, ShapeError, UnsatisfiableSafeguardError
from .problems import Vector

__all__ = [
    "KINDS",
    "CG_VARIANTS",
    "SgrParams",
    "DirectionState",
    "DirectionOutcome",
    "propose_direction",
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


@dataclass
class DirectionState:
    """Per-run mutable memory of a direction recipe; single-owner.

    x_prev / g_prev / d_prev hold the previous accepted iterate, its sampled
    gradient, and the direction actually taken; accum is the running sum of
    squared gradients for the diagonal preconditioner.
    """

    kind: str = "sgd"
    beta: float = 0.9
    cg_variant: str = "pr+"
    beta_cap: float = 10.0
    epsilon: float = 1e-8
    x_prev: Vector | None = None
    g_prev: Vector | None = None
    d_prev: Vector | None = None
    accum: Vector | None = None

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

    def fresh(self) -> "DirectionState":
        """Copy with all memory cleared, for starting a new run."""
        return replace(self, x_prev=None, g_prev=None, d_prev=None, accum=None)

    @property
    def negates_gradient(self) -> bool:
        """Whether the recipe with this memory is d = -g.

        So are sgd, and momentum and cg before their first update.
        """
        kind = self.kind
        if kind == "momentum":
            return self.x_prev is None
        if kind == "cg":
            return self.d_prev is None or self.g_prev is None
        return kind == "sgd"

    def reset_history(self):
        """Drop momentum / conjugate history; the preconditioner accumulator stays."""
        self.x_prev = None
        self.g_prev = None
        self.d_prev = None


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


# The dots of _measure, _restart and MemoryRows.safeguard run under
# errstate(over="ignore"): a finite vector whose products overflow measures
# inf, which the bounds read, so the overflow needs no warning.
@np.errstate(over="ignore")
def _measure(d, g, params: SgrParams) -> tuple[frozenset, float, float, float]:
    """Both admissibility bounds, plus the ||g||, ||d|| and d . g they read."""
    # np.asarray(v, float) is dtype=np.float64, and cheaper when v already is.
    d = np.asarray(d, float)
    g = np.asarray(g, float)
    if d.shape != g.shape:
        raise ShapeError(f"d has shape {d.shape}, g has shape {g.shape}")
    # np.linalg.norm of a 1-D float array is sqrt(x.dot(x)); the same
    # expression here gives the same floats without the wrapper's overhead.
    # For 1-D operands, d @ g and d.dot(g) run the same kernel, except
    # that d.dot(g) multiplies a one-entry operand as a scalar (see
    # MemoryRows.safeguard).
    gg = float(g.dot(g))
    g_norm = math.sqrt(gg)
    d_norm = math.sqrt(float(d.dot(d)))
    dTg = float(d.dot(g))
    return _violated([(g_norm, d_norm, dTg, gg)], params)[0], g_norm, d_norm, dTg


def _restart(d, g) -> tuple[float, float]:
    """Write -g into d; return the new ||d|| and d . g, as _measure takes them.

    Callers hold errstate(over="ignore").
    """
    np.negative(g, out=d)
    return math.sqrt(float(d.dot(d))), float(d.dot(g))


def propose_direction(state: DirectionState, g, x) -> Vector:
    """Raw (pre-safeguard) direction for the configured recipe.

    sgd: -g. momentum: -g + beta (x - x_prev). cg: -g + beta_k d_prev with
    beta_k from the Fletcher-Reeves or nonnegative Polak-Ribiere formula,
    clipped at beta_cap. adagrad_diag: -g / sqrt(accum + epsilon) elementwise.
    With empty memory momentum and cg fall back to -g (see negates_gradient).

    g is one sampled gradient (n,); the memory is read, never written. Each
    recipe builds its direction in one new array, in place. The operations
    are those of the formulas above, reordered only where IEEE arithmetic is
    exact about it: b - a == -a + b, and -(a / b) == -a / b. MemoryRows gives
    a stack of gradients, each row with its own memory, the same floats.
    """
    g = np.asarray(g, float)
    kind = state.kind
    if kind == "adagrad_diag":  # no history; an empty accumulator is zeros
        if state.accum is None:
            d = np.full(len(g), state.epsilon)
        else:
            d = np.add(state.accum, state.epsilon)
        np.sqrt(d, out=d)
        np.divide(g, d, out=d)
        np.negative(d, out=d)
        return d
    if state.negates_gradient:
        return -g
    if kind == "momentum":
        x, x_prev = np.asarray(x, float), state.x_prev
        # x_prev is a stored iterate, 1-D; this is x.shape != x_prev.shape
        if x.ndim != 1 or len(x) != len(x_prev):
            raise ShapeError("direction memory does not match the iterate shape")
        d = np.subtract(x, x_prev)
        d *= state.beta
        d -= g
        return d
    # cg. For 1-D operands g.dot(v) and g @ v run the same kernel.
    denom = float(state.g_prev.dot(state.g_prev))
    d = np.empty_like(g)
    if denom == 0.0:
        beta_k = 0.0
    else:
        pr = state.cg_variant == "pr+"
        # pr+ dots g with g - g_prev, held in d until the direction overwrites it
        r = np.subtract(g, state.g_prev, out=d) if pr else g
        beta_k = float(g.dot(r)) / denom
        beta_k = min(max(0.0, beta_k) if pr else beta_k, state.beta_cap)
    np.multiply(state.d_prev, beta_k, out=d)
    d -= g
    return d


def safeguarded_direction(state: DirectionState, g, x, params: SgrParams) -> DirectionOutcome:
    """Propose a direction and enforce the bounds, restarting to -g on failure.

    On restart the momentum / conjugate history is cleared and -g is written
    into the rejected proposal's own buffer. Raises at once if
    the configured (c1, c2) make the fallback itself inadmissible, since no
    run could proceed under such a configuration.
    """
    params.require_fallback_admissible()
    d = propose_direction(state, g, x)
    violated, g_norm, d_norm, dTg = _measure(d, g, params)
    if not violated:
        return DirectionOutcome(d=d, sgr_pass=True, violated=violated, g_norm=g_norm, d_norm=d_norm, dTg=dTg)
    state.reset_history()
    with np.errstate(over="ignore"):
        d_norm, dTg = _restart(d, g)
    return DirectionOutcome(d=d, sgr_pass=False, violated=violated, g_norm=g_norm, d_norm=d_norm, dTg=dTg)


def update_memory(state: DirectionState, x_old, g, d) -> None:
    """Record the accepted step so the next proposal sees this iteration's data.

    Stores x_old as the previous point (the momentum term at the next iterate
    x_new is beta * (x_new - x_old)), g as the previous sampled gradient, d as the
    previous direction, and grows the squared-gradient accumulator.

    Float arrays are stored by reference, not copied: the caller must not
    mutate x_old, g or d afterwards.
    """
    g = np.asarray(g, float)
    state.x_prev = np.asarray(x_old, float)
    state.g_prev = g
    state.d_prev = np.asarray(d, float)
    if state.kind == "adagrad_diag":
        # accum + g*g, formed in the g*g buffer; with no accum yet, 0 + g*g
        # is g*g exactly.
        accum = np.multiply(g, g)
        if state.accum is not None:
            accum += state.accum
        state.accum = accum


class MemoryRows:
    """The memories of K rows of one recipe, for stacks of gradients.

    Row k holds what a DirectionState would: ``x_prev``, ``g_prev`` and
    ``d_prev`` are (K, n) stacks, read where ``has_history`` is True (where
    the state's fields are set), and ``accum`` is zeros where the state's is
    None, since 0 + eps is eps and g*g + 0 is g*g. Each method gives every
    row the floats the one-gradient function gives that row's state:
    ``propose`` those of propose_direction, ``safeguard`` those of
    safeguarded_direction, ``update`` those of update_memory.

    ``MemoryRows(spec, K, n)`` holds K fresh memories, one per run of a
    lockstep group; ``MemoryRows.broadcast(state, K, n)`` holds K read-only
    views of one state's memory, for the N-row matrices of the diagnostics.
    """

    # The memory fields each recipe reads.
    FIELDS = {"sgd": (), "momentum": ("x_prev",), "cg": ("g_prev", "d_prev"), "adagrad_diag": ("accum",)}

    def __init__(self, spec: DirectionState, K: int, n: int):
        self.spec = spec
        self.has_history = np.zeros(K, dtype=bool)
        self.x_prev = self.g_prev = self.d_prev = self.accum = None
        for name in self.FIELDS[spec.kind]:
            setattr(self, name, np.zeros((K, n)))

    @classmethod
    def broadcast(cls, state: DirectionState, K: int, n: int) -> "MemoryRows":
        """K rows that each hold state's memory, as np.broadcast_to views of it.

        ``propose(G, x)`` is then np.stack of propose_direction(state, g, x)
        over the rows g of G. The views are read-only, so nothing writes the
        state.
        """
        rows = cls(state, 0, n)
        rows.has_history = np.full(K, not state.negates_gradient)
        for name in cls.FIELDS[state.kind]:
            value = getattr(state, name)
            setattr(rows, name, np.broadcast_to(0.0 if value is None else value, (K, n)))
        return rows

    def propose(self, G, X):
        """propose_direction for every row, each from its own memory.

        X is the rows' iterates, a (K, n) stack or one (n,) iterate they share.
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
            # Per row as in propose_direction: beta_k = 0 where the stored
            # gradient is zero, pr+ maps NaN and -0.0 to +0.0, fr keeps a
            # NaN, and an overflow is inf, all with no warning, as in float
            # division.
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

    @staticmethod
    @np.errstate(over="ignore")  # as _measure
    def gradient_squares(G) -> list[float]:
        """The g . g of each row of G, one np.vecdot, as safeguard takes them."""
        return np.vecdot(G, G).tolist()

    @np.errstate(over="ignore")  # as _measure
    def safeguard(self, D, G, ggs, params: SgrParams):
        """safeguarded_direction's test and restart on every row of D.

        ``ggs`` is gradient_squares(G). The other two dots per row are one
        np.vecdot each, and each row then takes _measure's bound test.
        Returns the lists (violated, g_norm, d_norm, dTg). A row that
        violates a bound gets -g written into its row of D, its norm and
        slope re-measured, and its history cleared.
        """
        g_norm = [math.sqrt(gg) for gg in ggs]
        d_norm = [math.sqrt(dd) for dd in np.vecdot(D, D).tolist()]
        # ndarray.dot takes a one-entry operand as a scalar, so _measure's
        # d . g of one variable is the product itself, -0.0 included, where
        # np.vecdot adds the product to +0.0.
        dTg = (D[:, 0] * G[:, 0] if D.shape[1] == 1 else np.vecdot(D, G)).tolist()
        violated = _violated(zip(g_norm, d_norm, dTg, ggs), params)
        for k in [k for k, v in enumerate(violated) if v]:
            d_norm[k], dTg[k] = _restart(D[k], G[k])
            self.has_history[k] = False
        return violated, g_norm, d_norm, dTg

    def update(self, step, X, G, D):
        """update_memory on the rows where ``step`` is True (None: on all).

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
