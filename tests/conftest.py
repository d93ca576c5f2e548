import math

import numpy as np
import pytest

from slsopt import LeastSquaresProblem, TwoFactorProblem, _blas, as_vector
from slsopt.diagnostics import MomentReport
from slsopt.errors import DomainError, ShapeError
from slsopt.optimizer import RunConfig, RunResult, _Lane, _start
from slsopt.problems import evaluate_batch

from one_gradient import Memory, safeguarded_direction, update_memory


@pytest.fixture(autouse=True)
def instance_store(tmp_path, monkeypatch):
    """Each test's instance store: its own empty directory, never ~/.cache.

    config.build_problem reads and publishes instances there, so no test
    sees an entry another test or an earlier session wrote.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg_cache"))
    return tmp_path / "xdg_cache" / "slsopt"


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


def component_grads(problem, x):
    """The whole N x n matrix of component gradients at x, in a new array.

    The reference for the blocks that problem.component_pass gives.
    """
    r = problem.residuals(x)
    if isinstance(problem, TwoFactorProblem):
        u, V = problem.unpack(x)
        Gu = r[:, None] * (problem.A @ V.T)
        GV = np.einsum("i,u,iv->iuv", r, u, problem.A).reshape(problem.N, -1)
        return np.hstack([Gu, GV])
    return r[:, None] * problem.A


def moments_from_samples(x, G, D, f=math.nan) -> MomentReport:
    """Moments of the rows of G and D, each a whole matrix; D None stands for -G.

    The reference for exact_moments' two sweeps over blocks of rows. Takes
    ownership of G and D: both are centred in their own buffers after every
    uncentred moment has been read, which gives the floats of the
    out-of-place G - E_g.
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
        E_d, E_dTg, cov_dg = -E_g, -E_norm_g_sq, -var_g
    else:
        cov_dg = float(np.einsum("ij,ij->i", D, G).mean())
    return MomentReport(x, E_g, E_norm_g_sq, max(var_g, 0.0), E_d, E_dTg, cov_dg, f)


def reference_moments(problem, x, memory=None) -> MomentReport:
    """exact_moments from the whole gradient and direction matrices.

    Row i of the direction matrix is the direction that row 0 of memory
    gives G[i] at x, built only when that row's recipe is not -g; f is the
    mean of the component values 0.5 r_i^2.
    """
    xv = as_vector(x, problem.n)
    G = component_grads(problem, xv)
    D = None
    if memory is not None and memory.uses_memory(0):
        D = memory.broadcast(0, len(G)).propose(G, xv)
    r = problem.residuals(xv)
    return moments_from_samples(xv, G, D, float((0.5 * r * r).mean()))


@_blas.single_thread()
def reference_run(config: RunConfig) -> RunResult:
    """optimizer.run on the one-gradient kernels, one array per vector.

    The reference that optimizer.run_many must match byte for byte in a
    group of any size: the same _Lane per seed, with evaluate_batch and
    one_gradient's safeguarded_direction and update_memory on a Memory in
    place of the stacked kernels. Raises what run raises, with no seed
    prefix.
    """
    problem = config.problem
    x, sampler = _start(config, config.run.seed)
    lane = _Lane(config, "", sampler)
    state = Memory(config.direction)
    every = config.run.trace_every
    for k in range(config.run.max_iters):
        if k % every == 0 and lane.sample(x):
            break
        # The search runs on phi(a) = f_i(x + a d); see evaluate_batch.
        f_b, g_b, ray = evaluate_batch(problem, sampler.draw(), x)
        outcome = safeguarded_direction(state, g_b, x, config.sgr)
        d = outcome.d
        alpha = lane.step(k, x, f_b, outcome.g_norm, outcome.d_norm, outcome.dTg, outcome.restarted, ray(d))
        if alpha is not None:
            # x_new comes before update_memory frees the arrays it replaces:
            # freed first, they let the allocator trim the heap top, and each
            # wide iteration then faults those pages back in.
            x_new = x + alpha * d
            update_memory(state, x, g_b, d)
            x = x_new
        elif lane.result is not None:
            break
    else:
        lane.finish(x, "max_iters")
    return lane.result
