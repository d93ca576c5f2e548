"""Outer iteration: draw batch, safeguard direction, line-search, step, trace.

One run is strictly sequential and fully determined by its seed: a single
seed feeds a splittable generator whose children drive the starting point and
the batch stream. Exact full-sum values are logged only periodically so the
per-iteration cost model stays stochastic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import DirectionState, SgrParams, safeguarded_direction, update_memory
from .errors import CertificateError, ConfigError, InsufficientDataError, LineSearchStallError
from .linesearch import LineSearchParams, Ray, alpha_low, backtrack, jstar, next_alpha0
from .problems import (
    BatchSampler,
    FiniteSumProblem,
    Vector,
    as_vector,
    evaluate_batch,
    full_oracle,
)

__all__ = [
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "run",
    "contraction_estimate",
    "fit_geometric_rate",
    "TraceViolation",
    "verify_trace_bounds",
]

STATUSES = ("converged_grad", "converged_fgap", "max_iters", "stalled")


@dataclass
class RunConfig:
    """Everything one optimization run depends on."""

    problem: FiniteSumProblem
    direction: DirectionState
    linesearch: LineSearchParams
    sgr: SgrParams
    max_iters: int = 1000
    grad_tol: float = 1e-10
    fgap_tol: float = 1e-8
    seed: int = 0
    trace_full_oracle_every: int = 10
    batch_size: int = 1
    x0: Vector | None = None

    def validate(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol < 0 or self.fgap_tol < 0:
            raise ConfigError("tolerances must be >= 0")
        if self.trace_full_oracle_every < 1:
            raise ConfigError(
                f"trace period must be >= 1, got {self.trace_full_oracle_every}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        self.sgr.require_fallback_admissible()


@dataclass
class IterationRecord:
    """Per-iteration observables; f_full / grad_full_norm only on trace points."""

    k: int
    f_full: float | None
    grad_full_norm: float | None
    f_batch: float
    g_batch_norm: float
    d_norm: float
    dTg: float
    alpha0: float
    alpha: float
    backtracks: int
    sgr_pass: bool
    restarted: bool


@dataclass
class RunResult:
    trajectory: list[IterationRecord]
    final_x: Vector
    status: str


def default_x0(n: int, rng: np.random.Generator) -> Vector:
    return rng.standard_normal(n) / math.sqrt(n)


def run(config: RunConfig) -> RunResult:
    """Iterate x <- x + alpha d until a tolerance, the cap, or a stall.

    Each iteration draws one batch, evaluates its value and gradient once,
    forms one safeguarded direction, runs one backtracking search, and takes
    one step. Convergence is decided on the periodic exact-oracle samples
    (batch gradients vanish spuriously only where stopping is correct anyway);
    a vanishing batch gradient skips the step, forces an exact check, and
    moves on to the next draw. The trajectory is reproducible bit for bit
    given the config and seed.
    """
    config.validate()
    problem = config.problem
    ls = config.linesearch
    every = config.trace_full_oracle_every

    init_ss, batch_ss = np.random.SeedSequence(config.seed).spawn(2)
    if config.x0 is not None:
        x = as_vector(config.x0, problem.n, "x0").copy()
    else:
        x = default_x0(problem.n, np.random.default_rng(init_ss))
    mode = "singleton" if config.batch_size == 1 else "with_replacement"
    sampler = BatchSampler(problem.N, mode=mode, batch_size=config.batch_size, seed=batch_ss)
    state = config.direction.fresh()
    f_star = problem.known.f_star if problem.known is not None else None

    records: list[IterationRecord] = []
    prev_result = None
    status = "max_iters"

    def converged(f_full, grad_norm):
        if grad_norm <= config.grad_tol:
            return "converged_grad"
        if f_star is not None and f_full - f_star <= config.fgap_tol:
            return "converged_fgap"
        return None

    for k in range(config.max_iters):
        f_full = grad_full_norm = None
        if k % every == 0:
            f_full, grad_full = full_oracle(problem, x)
            grad_full_norm = float(np.linalg.norm(grad_full))
            verdict = converged(f_full, grad_full_norm)
            if verdict is not None:
                status = verdict
                break

        batch = sampler.draw()
        f_b, g_b = evaluate_batch(problem, batch, x)
        outcome = safeguarded_direction(state, g_b, x, config.sgr)
        d = outcome.d
        g_norm, d_norm, dTg = outcome.g_norm, outcome.d_norm, outcome.dTg
        alpha0 = next_alpha0(ls, prev_result)

        verdict = None
        if g_norm == 0.0:
            # Stationary for this batch: no admissible search. Check the exact
            # gradient now in case this is a true interpolation point.
            if f_full is None:
                f_full, grad_full = full_oracle(problem, x)
                grad_full_norm = float(np.linalg.norm(grad_full))
            alpha, backtracks = 0.0, 0
            verdict = converged(f_full, grad_full_norm)
        else:
            # The search runs on phi(a) = f_B(x + a d). Problems without a ray
            # oracle of their own get the generic one, which calls batch_value.
            ray = getattr(problem, "batch_ray", None)
            if ray is not None:
                phi = ray(batch.indices, x, d)
            else:
                phi = FiniteSumProblem.batch_ray(problem, batch.indices, x, d)
            try:
                result = backtrack(Ray(phi, dTg), x, d, g_b, ls, alpha0, f_x=f_b)
            except LineSearchStallError:
                status = "stalled"
                break

            # Acceptance certificate: same floats the search just tested. An
            # explicit check, so that running with -O cannot strip it.
            if not result.accepted_f <= f_b + ls.gamma * result.alpha * dTg:
                raise CertificateError(
                    f"k={k}: accepted f={result.accepted_f!r} at alpha={result.alpha!r} "
                    f"exceeds f_B + gamma*alpha*d.g = {f_b + ls.gamma * result.alpha * dTg!r}"
                )
            alpha0, alpha, backtracks = result.alpha0, result.alpha, result.backtracks
            x_new = x + alpha * d
            update_memory(state, x_new, x, g_b, d)
            prev_result = result
            x = x_new

        records.append(
            IterationRecord(
                k=k,
                f_full=f_full,
                grad_full_norm=grad_full_norm,
                f_batch=f_b,
                g_batch_norm=g_norm,
                d_norm=d_norm,
                dTg=dTg,
                alpha0=alpha0,
                alpha=alpha,
                backtracks=backtracks,
                sgr_pass=outcome.sgr_pass,
                restarted=outcome.restarted,
            )
        )
        if verdict is not None:
            status = verdict
            break

    return RunResult(trajectory=records, final_x=x, status=status)


def fit_geometric_rate(ks, gaps) -> tuple[float, float]:
    """Per-iteration geometric rate fitted to log(gap) vs k, with r^2 quality."""
    ks = np.asarray(ks, dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)
    y = np.log(gaps)
    slope, intercept = np.polyfit(ks, y, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    return float(np.exp(slope)), r2


def contraction_estimate(trajectory, f_star: float) -> tuple[float, float]:
    """Geometric decay rate of the exact-oracle gap along a trajectory.

    Uses every record carrying an exact value with f_full > f_star; needs at
    least 10 of them.
    """
    ks = [r.k for r in trajectory if r.f_full is not None and r.f_full > f_star]
    gaps = [r.f_full - f_star for r in trajectory if r.f_full is not None and r.f_full > f_star]
    if len(ks) < 10:
        raise InsufficientDataError(
            f"need >= 10 exact samples above f_star, got {len(ks)}"
        )
    return fit_geometric_rate(ks, gaps)


@dataclass(frozen=True)
class TraceViolation:
    k: int
    bound: str
    detail: str


def verify_trace_bounds(
    records,
    sgr: SgrParams,
    ls: LineSearchParams,
    L_max: float,
    rel_tol: float = 1e-12,
) -> TraceViolation | None:
    """Re-assert the per-iteration guarantees on a finished trace.

    Checks, for every record: the exact step expression alpha == alpha0 *
    delta**backtracks, the step floor min(alpha0, delta * alpha_low), the
    backtrack ceiling, and both direction bounds on the realized quantities.
    Inequalities re-derived from stored floats get a tiny relative slack; the
    step expression is checked exactly. Returns the first violation or None.
    """
    a_low = alpha_low(sgr.c1, sgr.c2, ls.gamma, L_max)
    j_cap = jstar(ls.alpha_max, a_low, ls.delta)
    for r in records:
        if r.g_batch_norm == 0.0:
            if r.alpha != 0.0 or r.d_norm != 0.0:
                return TraceViolation(r.k, "stationary_batch", "nonzero step or direction at zero batch gradient")
            continue
        expected_alpha = r.alpha0 * ls.delta**r.backtracks
        if r.alpha != expected_alpha:
            return TraceViolation(
                r.k,
                "step_expression",
                f"alpha={r.alpha!r} but alpha0*delta^j={expected_alpha!r}",
            )
        floor = min(r.alpha0, ls.delta * a_low)
        if r.alpha < floor * (1.0 - rel_tol):
            return TraceViolation(
                r.k, "step_floor", f"alpha={r.alpha!r} below floor {floor!r}"
            )
        if r.backtracks > j_cap:
            return TraceViolation(
                r.k, "backtrack_ceiling", f"j={r.backtracks} exceeds j*={j_cap}"
            )
        gn2 = r.g_batch_norm * r.g_batch_norm
        if r.d_norm > sgr.c1 * r.g_batch_norm * (1.0 + rel_tol):
            return TraceViolation(
                r.k,
                "norm_bound",
                f"||d||={r.d_norm!r} exceeds c1*||g||={sgr.c1 * r.g_batch_norm!r}",
            )
        if r.dTg > -sgr.c2 * gn2 * (1.0 - rel_tol):
            return TraceViolation(
                r.k,
                "descent_bound",
                f"d.g={r.dTg!r} above -c2*||g||^2={-sgr.c2 * gn2!r}",
            )
        if r.alpha <= 0.0:
            return TraceViolation(r.k, "positive_step", "alpha must be > 0 when g != 0")
    return None
