"""Backtracking on the sampled objective with sufficient-decrease acceptance.

The accepted step is alpha0 * delta**j for the smallest j whose trial point
passes

    f_B(x + a d) <= f_B(x) + gamma * a * (d . g),

evaluated on the current batch only; j and the exact trial count are reported
for complexity accounting. The search sees only the scalar function
phi(a) = f_B(x + a d) and the slope d . g. Companion formulas give
the step threshold below which acceptance is guaranteed for a smooth batch,
and the resulting worst-case backtrack count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, LineSearchStallError, NonDescentError

__all__ = [
    "LineSearchParams",
    "LineSearchResult",
    "backtrack",
    "alpha_low",
    "jstar",
    "next_alpha0",
]

logger = logging.getLogger(__name__)

ALPHA0_POLICIES = ("constant", "warm_increase")


@dataclass(frozen=True)
class LineSearchParams:
    """Backtracking hyperparameters.

    gamma is the sufficient-decrease coefficient, delta the backtrack factor,
    alpha_max the cap on the initial trial step. alpha0_policy "constant"
    always starts at alpha_max; "warm_increase" starts from the previous
    accepted step grown by 1/delta, clamped to alpha_max.
    max_backtracks is a hard safety cap; exhausting it, or reaching a trial
    step that underflows to 0, is an error, never a silent zero step.
    """

    gamma: float = 0.1
    delta: float = 0.5
    alpha_max: float = 10.0
    alpha0_policy: str = "constant"
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must be in (0, 1), got {self.delta}")
        # An infinite alpha_max makes every trial inf * delta**j = inf.
        if not (self.alpha_max > 0.0 and math.isfinite(self.alpha_max)):
            raise DomainError(f"alpha_max must be finite and > 0, got {self.alpha_max}")
        if self.alpha0_policy not in ALPHA0_POLICIES:
            raise DomainError(f"unknown alpha0 policy {self.alpha0_policy!r}")
        if self.max_backtracks < 1:
            raise DomainError(f"max_backtracks must be >= 1, got {self.max_backtracks}")


@dataclass(frozen=True)
class LineSearchResult:
    """Accepted step and its cost accounting.

    alpha equals alpha0 * delta**backtracks by the very expression used during
    the search; accepted_f is the batch value at the accepted trial point so
    the caller never recomputes it; f_trial_count == backtracks + 1.
    """

    alpha: float
    backtracks: int
    f_trial_count: int
    accepted_f: float
    alpha0: float


def backtrack(
    phi: Callable[[float], float],
    slope: float,
    params: LineSearchParams,
    alpha0: float,
    f_x: float,
) -> LineSearchResult:
    """Largest step of the form alpha0 * delta**j passing the decrease test.

    phi(a) = f_B(x + a d) is the batch value along the search ray and slope
    = d . g its derivative at 0, which must be negative; f_x = phi(0) is the
    batch value at x, reused across all trials, and 0 < alpha0 <= alpha_max.
    Scans j = 0, 1, ... and accepts the first a = alpha0 * delta**j with
    phi(a) <= f_x + gamma a slope, which is exactly the largest admissible
    step on the grid; ties accept. A non-finite phi(a) rejects that trial; a
    search that meets any logs one warning when it ends, with their count
    and the first and last such step. A search that exhausts
    max_backtracks, or whose next trial step underflows to 0, raises
    LineSearchStallError with the last step it tried.
    """
    if not 0.0 < alpha0 <= params.alpha_max:
        raise DomainError(
            f"alpha0 must be in (0, alpha_max={params.alpha_max}], got {alpha0}"
        )
    if not slope < 0.0:
        raise NonDescentError(f"d.g = {slope!r} is not negative")
    f_x = float(f_x)
    non_finite = []
    result = None
    for j in range(params.max_backtracks + 1):
        step = alpha0 * params.delta**j
        if step == 0.0:
            # delta**j has underflowed: the trial point would be x itself,
            # which passes the test, phi(0) = f_x, with no step taken
            break
        alpha, trials = step, j + 1
        trial = float(phi(alpha))
        if not math.isfinite(trial):
            non_finite.append(alpha)
        elif trial <= f_x + params.gamma * alpha * slope:
            result = LineSearchResult(
                alpha=alpha,
                backtracks=j,
                f_trial_count=j + 1,
                accepted_f=trial,
                alpha0=alpha0,
            )
            break
    if non_finite:
        logger.warning(
            "%d of %d trials non-finite (alpha=%g .. %g), treated as rejected; search %s",
            len(non_finite),
            trials,
            non_finite[0],
            non_finite[-1],
            "stalled" if result is None else f"accepted alpha={result.alpha:g}",
        )
    if result is not None:
        return result
    raise LineSearchStallError(
        f"no step accepted after {trials} trials "
        f"(alpha0={alpha0!r}, final alpha={alpha!r})",
        alpha0=alpha0,
        last_alpha=alpha,
        trials=trials,
    )


def alpha_low(c1: float, c2: float, gamma: float, L_k: float) -> float:
    """Step threshold below which acceptance is guaranteed on an L_k-smooth batch.

    Equals 2 c2 (1 - gamma) / (c1^2 L_k) for directions obeying the (c1, c2)
    bounds.
    """
    if c1 <= 0 or c2 <= 0 or gamma <= 0 or L_k <= 0:
        raise DomainError("c1, c2, gamma, L_k must all be > 0")
    if gamma >= 1:
        raise DomainError(f"gamma must be < 1, got {gamma}")
    return 2.0 * c2 * (1.0 - gamma) / (c1 * c1 * L_k)


def jstar(alpha_max: float, alpha_low_val: float, delta: float) -> int:
    """Worst-case backtrack count: max(0, ceil(log_{1/delta}(alpha_max / alpha_low)))."""
    if alpha_max <= 0 or alpha_low_val <= 0:
        raise DomainError("alpha_max and alpha_low must be > 0")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    ratio = alpha_max / alpha_low_val
    return max(0, math.ceil(math.log(ratio) / math.log(1.0 / delta)))


def next_alpha0(params: LineSearchParams, prev_result: LineSearchResult | None) -> float:
    """Initial trial step for the next search; always in (0, alpha_max]."""
    if params.alpha0_policy == "constant" or prev_result is None:
        return params.alpha_max
    grown = prev_result.alpha / params.delta
    return min(params.alpha_max, grown)
