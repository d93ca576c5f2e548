import math

import numpy as np
import pytest

from slsopt import LeastSquaresProblem
from slsopt.errors import DomainError, ShapeError


def make_toy2():
    """Two scalar components f1 = x^2/2 and f2 = (2x)^2/2 = 2x^2, with distinct curvature."""
    return LeastSquaresProblem(A=np.array([[1.0], [2.0]]), b=np.zeros(2))


@pytest.fixture
def toy2():
    return make_toy2()


def central_diff_grad(value_fn, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * h)
    return g


def armijo_holds(f_batch, x, d, g, alpha, gamma, f_x) -> bool:
    """Sufficient-decrease test at step alpha on a point function.

    The reference for the search: it forms the trial point x + alpha d and
    evaluates f_batch there. f_x is the batch value at x. Ties accept; a
    non-finite trial value fails the test.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    slope = float(np.dot(d, g))
    trial = float(f_batch(x + alpha * d))
    return math.isfinite(trial) and trial <= f_x + gamma * alpha * slope


def sgr_check(d, g, params) -> tuple[bool, frozenset]:
    """Both admissibility bounds with no slack, written out from their definitions.

    ||d|| <= c1 ||g|| and d . g <= -c2 ||g||^2, each as not (lhs <= rhs) so
    that a non-finite operand fails it. Returns (passed, violated), where
    violated names each failed bound. A zero gradient passes only with a
    zero direction.
    """
    d = np.asarray(d, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if d.shape != g.shape:
        raise ShapeError(f"d has shape {d.shape}, g has shape {g.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        gg = float(g @ g)
        d_norm = math.sqrt(float(d @ d))
        dTg = float(d @ g)
    violated = set()
    if not d_norm <= params.c1 * math.sqrt(gg):
        violated.add("norm_bound")
    if not dTg <= -params.c2 * gg:
        violated.add("descent_bound")
    return not violated, frozenset(violated)
