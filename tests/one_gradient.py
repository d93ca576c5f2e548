"""The one-gradient direction kernels: the byte reference for a row of MemoryRows.

One run's memory is a Memory, one array per vector. propose_direction,
safeguarded_direction and update_memory on it must give the floats that
MemoryRows.propose, safeguard and update give that run's row, and
conftest.reference_run runs them in place of the stacked kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from slsopt.directions import DirectionOutcome, DirectionState, MemoryRows, SgrParams, _restart, _violated
from slsopt.errors import ShapeError
from slsopt.problems import Vector


@dataclass
class Memory:
    """One run's direction memory for the recipe ``spec``; None where not yet set.

    x_prev / g_prev / d_prev hold the previous accepted iterate, its sampled
    gradient, and the direction actually taken; accum is the running sum of
    squared gradients for the diagonal preconditioner.
    """

    spec: DirectionState
    x_prev: Vector | None = None
    g_prev: Vector | None = None
    d_prev: Vector | None = None
    accum: Vector | None = None

    @property
    def negates_gradient(self) -> bool:
        """Whether the recipe with this memory is d = -g.

        So are sgd, and momentum and cg before their first update.
        """
        kind = self.spec.kind
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


def row_memory(rows: MemoryRows, k: int) -> Memory:
    """Row k of a MemoryRows as a Memory of copies: the history only where it is set."""
    memory = Memory(rows.spec)
    for name in MemoryRows.FIELDS[rows.spec.kind]:
        if name == "accum" or rows.has_history[k]:
            setattr(memory, name, getattr(rows, name)[k].copy())
    return memory


def memory_rows(memories, n: int) -> MemoryRows:
    """A MemoryRows whose row k holds memories[k], Memory objects of one spec."""
    spec = memories[0].spec
    rows = MemoryRows(spec, len(memories), n)
    for k, memory in enumerate(memories):
        # MemoryRows.update marks history only for the recipes that keep it
        rows.has_history[k] = spec.kind in ("momentum", "cg") and not memory.negates_gradient
        for name in MemoryRows.FIELDS[spec.kind]:
            if getattr(memory, name) is not None:
                getattr(rows, name)[k] = getattr(memory, name)
    return rows


def one_row(spec: DirectionState, n: int, **fields) -> MemoryRows:
    """A MemoryRows of one row that holds Memory(spec, **fields)."""
    return memory_rows([Memory(spec, **fields)], n)


# The dots of _measure run under errstate(over="ignore"): a finite vector
# whose products overflow measures inf, which the bounds read, so the
# overflow needs no warning.
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


def propose_direction(state: Memory, g, x) -> Vector:
    """Raw (pre-safeguard) direction for the configured recipe.

    sgd: -g. momentum: -g + beta (x - x_prev). cg: -g + beta_k d_prev with
    beta_k from the Fletcher-Reeves or nonnegative Polak-Ribiere formula,
    clipped at beta_cap. adagrad_diag: -g / sqrt(accum + epsilon) elementwise.
    With empty memory momentum and cg fall back to -g (see negates_gradient).

    g is one sampled gradient (n,); the memory is read, never written. Each
    recipe builds its direction in one new array, in place. The operations
    are those of the formulas above, reordered only where IEEE arithmetic is
    exact about it: b - a == -a + b, and -(a / b) == -a / b.
    """
    g = np.asarray(g, float)
    spec = state.spec
    kind = spec.kind
    if kind == "adagrad_diag":  # no history; an empty accumulator is zeros
        if state.accum is None:
            d = np.full(len(g), spec.epsilon)
        else:
            d = np.add(state.accum, spec.epsilon)
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
        d *= spec.beta
        d -= g
        return d
    # cg. For 1-D operands g.dot(v) and g @ v run the same kernel.
    denom = float(state.g_prev.dot(state.g_prev))
    d = np.empty_like(g)
    if denom == 0.0:
        beta_k = 0.0
    else:
        pr = spec.cg_variant == "pr+"
        # pr+ dots g with g - g_prev, held in d until the direction overwrites it
        r = np.subtract(g, state.g_prev, out=d) if pr else g
        beta_k = float(g.dot(r)) / denom
        beta_k = min(max(0.0, beta_k) if pr else beta_k, spec.beta_cap)
    np.multiply(state.d_prev, beta_k, out=d)
    d -= g
    return d


def safeguarded_direction(state: Memory, g, x, params: SgrParams) -> DirectionOutcome:
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


def update_memory(state: Memory, x_old, g, d) -> None:
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
    if state.spec.kind == "adagrad_diag":
        # accum + g*g, formed in the g*g buffer; with no accum yet, 0 + g*g
        # is g*g exactly.
        accum = np.multiply(g, g)
        if state.accum is not None:
            accum += state.accum
        state.accum = accum
