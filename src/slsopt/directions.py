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
    "sgr_check",
    "propose_direction",
    "safeguarded_direction",
    "update_memory",
]

KINDS = ("sgd", "momentum", "cg", "adagrad_diag")
CG_VARIANTS = ("fr", "pr+")

NORM_BOUND = "norm_bound"
DESCENT_BOUND = "descent_bound"


@dataclass(frozen=True)
class SgrParams:
    """Constants of the direction admissibility test.

    c1 caps the direction norm relative to the sampled gradient, c2 is the
    sufficient-descent coefficient. Requires 0 < c2 <= c1.
    """

    c1: float = 10.0
    c2: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.c2 <= self.c1):
            raise InvalidSpecError(
                f"need 0 < c2 <= c1, got c1={self.c1}, c2={self.c2}"
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
        if self.epsilon <= 0:
            raise InvalidSpecError(f"epsilon must be > 0, got {self.epsilon}")
        if self.beta_cap <= 0:
            raise InvalidSpecError(f"beta_cap must be > 0, got {self.beta_cap}")

    def fresh(self) -> "DirectionState":
        """Copy with all memory cleared, for starting a new run."""
        return replace(self, x_prev=None, g_prev=None, d_prev=None, accum=None)

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
    line search.
    """

    d: Vector
    raw_d: Vector
    sgr_pass: bool
    violated: frozenset
    restarted: bool
    g_norm: float
    d_norm: float
    dTg: float


def _measure(d, g, params: SgrParams) -> tuple[frozenset, float, float, float]:
    """Both admissibility bounds, plus the ||g||, ||d|| and d . g they read."""
    d = np.asarray(d, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if d.shape != g.shape:
        raise ShapeError(f"d has shape {d.shape}, g has shape {g.shape}")
    gg = float(g @ g)
    g_norm = float(np.linalg.norm(g))
    d_norm = float(np.linalg.norm(d))
    dTg = float(d @ g)
    violated = set()
    if d_norm > params.c1 * g_norm:
        violated.add(NORM_BOUND)
    if dTg > -params.c2 * gg:
        violated.add(DESCENT_BOUND)
    return frozenset(violated), g_norm, d_norm, dTg


def sgr_check(d, g, params: SgrParams) -> tuple[bool, frozenset]:
    """Test both admissibility bounds with no slack.

    Returns (passed, violated) where violated names each failed inequality.
    A zero gradient passes only with a zero direction.
    """
    violated = _measure(d, g, params)[0]
    return (not violated, violated)


def propose_direction(state: DirectionState, g, x) -> Vector:
    """Raw (pre-safeguard) direction for the configured recipe.

    sgd: -g. momentum: -g + beta (x - x_prev). cg: -g + beta_k d_prev with
    beta_k from the Fletcher-Reeves or nonnegative Polak-Ribiere formula,
    clipped at beta_cap. adagrad_diag: -g / sqrt(accum + epsilon) elementwise.
    First iterations with empty memory fall back to -g.
    """
    g = np.asarray(g, dtype=np.float64)
    if state.kind == "sgd":
        return -g
    if state.kind == "momentum":
        if state.x_prev is None:
            return -g
        x = np.asarray(x, dtype=np.float64)
        if state.x_prev.shape != x.shape:
            raise ShapeError("direction memory does not match the iterate shape")
        return -g + state.beta * (x - state.x_prev)
    if state.kind == "cg":
        if state.d_prev is None or state.g_prev is None:
            return -g
        denom = float(state.g_prev @ state.g_prev)
        if denom == 0.0:
            beta_k = 0.0
        elif state.cg_variant == "fr":
            beta_k = float(g @ g) / denom
        else:  # pr+
            beta_k = max(0.0, float(g @ (g - state.g_prev)) / denom)
        beta_k = min(beta_k, state.beta_cap)
        return -g + beta_k * state.d_prev
    # adagrad_diag
    acc = state.accum if state.accum is not None else np.zeros_like(g)
    return -g / np.sqrt(acc + state.epsilon)


def safeguarded_direction(state: DirectionState, g, x, params: SgrParams) -> DirectionOutcome:
    """Propose a direction and enforce the bounds, restarting to -g on failure.

    On restart the momentum / conjugate history is cleared. Raises at once if
    the configured (c1, c2) make the fallback itself inadmissible, since no
    run could proceed under such a configuration.
    """
    params.require_fallback_admissible()
    g = np.asarray(g, dtype=np.float64)
    raw = propose_direction(state, g, x)
    violated, g_norm, d_norm, dTg = _measure(raw, g, params)
    if not violated:
        return DirectionOutcome(
            d=raw, raw_d=raw, sgr_pass=True, violated=violated, restarted=False,
            g_norm=g_norm, d_norm=d_norm, dTg=dTg,
        )
    state.reset_history()
    d = -g
    return DirectionOutcome(
        d=d, raw_d=raw, sgr_pass=False, violated=violated, restarted=True,
        g_norm=g_norm, d_norm=float(np.linalg.norm(d)), dTg=float(d @ g),
    )


def update_memory(state: DirectionState, x_new, x_old, g, d) -> DirectionState:
    """Record the accepted step so the next proposal sees this iteration's data.

    Stores x_old as the previous point (the momentum term at the next iterate
    is beta * (x_new - x_old)), g as the previous sampled gradient, d as the
    previous direction, and grows the squared-gradient accumulator.
    """
    g = np.asarray(g, dtype=np.float64)
    state.x_prev = np.array(x_old, dtype=np.float64)
    state.g_prev = g.copy()
    state.d_prev = np.array(d, dtype=np.float64)
    if state.kind == "adagrad_diag":
        if state.accum is None:
            state.accum = np.zeros_like(g)
        state.accum = state.accum + g * g
    return state
