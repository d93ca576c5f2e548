"""Outer iteration: draw a component, safeguard direction, line-search, step, trace.

One run is strictly sequential and fully determined by its seed: a single
seed feeds a splittable generator whose children drive the starting point and
the stream of sampled component indices. Exact full-sum values are logged
only periodically so the per-iteration cost model stays stochastic.
``run_many`` advances the seeds of one config together as the rows of one
array; ``run`` is its group of one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas
# No loop here calls evaluate_batch, safeguarded_direction or update_memory.
# They are bound in this module only because bench/tracer.py wraps them here.
from .directions import DirectionState, MemoryRows, SgrParams, safeguarded_direction, update_memory
from .errors import (
    CertificateError,
    DomainError,
    InsufficientDataError,
    LineSearchStallError,
    NumericDomainError,
    SlsoptError,
)
from .linesearch import LineSearchParams, alpha_low, backtrack, jstar, next_alpha0
from .problems import (
    BatchSampler,
    _all_finite,
    ResidualProblem,
    Vector,
    as_vector,
    evaluate_batch,
    full_oracle,
    ray_phi,
)

__all__ = [
    "RunSettings",
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "run",
    "run_many",
    "contraction_estimate",
    "fit_geometric_rate",
    "TraceViolation",
    "verify_trace_bounds",
]

STATUSES = ("converged_grad", "converged_fgap", "max_iters", "stalled")


@dataclass(frozen=True)
class RunSettings:
    """The limits of a run, the config section [run] without its output paths.

    Checked when built: seed >= 0, max_iters >= 1, both tolerances >= 0 and
    trace_every >= 1, the iterations between exact full-oracle samples. A
    failing value, NaN included, raises DomainError.
    """

    max_iters: int = 1000
    grad_tol: float = 1e-10
    fgap_tol: float = 1e-8
    seed: int = 0
    trace_every: int = 10

    def __post_init__(self):
        for name, bound in (
            ("seed", 0),
            ("max_iters", 1),
            ("grad_tol", 0.0),
            ("fgap_tol", 0.0),
            ("trace_every", 1),
        ):
            value = getattr(self, name)
            if not value >= bound:
                raise DomainError(f"{name} must be >= {bound}, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one optimization run depends on: the section objects, and x0.

    Each section object checks itself when built; RunConfig adds that the
    restart direction -g passes the (c1, c2) bounds.
    """

    problem: ResidualProblem
    direction: DirectionState
    linesearch: LineSearchParams
    sgr: SgrParams
    run: RunSettings = RunSettings()
    x0: Vector | None = None

    def __post_init__(self):
        self.sgr.require_fallback_admissible()


@dataclass(slots=True)
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
    """A finished run; ``stall`` is the search's error when status is "stalled"."""

    trajectory: list[IterationRecord]
    final_x: Vector
    status: str
    stall: LineSearchStallError | None = None


def _start(config: RunConfig, seed: int) -> tuple[Vector, BatchSampler]:
    """The starting point (x0, else N(0, I/n)) and the index sampler of the run with this seed."""
    problem = config.problem
    init_ss, batch_ss = np.random.SeedSequence(seed).spawn(2)
    if config.x0 is not None:
        x = as_vector(config.x0, problem.n, "x0").copy()
    else:
        x = np.random.default_rng(init_ss).standard_normal(problem.n) / math.sqrt(problem.n)
    return x, BatchSampler(problem.N, seed=batch_ss)


def _verdict(config: RunConfig, f_star, f_full, grad_norm) -> str | None:
    """The converged status an exact sample shows, or None."""
    if grad_norm <= config.run.grad_tol:
        return "converged_grad"
    if f_star is not None and f_full - f_star <= config.run.fgap_tol:
        return "converged_fgap"
    return None


class _Lane:
    """One seed of a run: everything it does outside the arrays of its iterate.

    The trace points' verdict, the initial trial step, the search with its
    stall and Armijo certificate, the zero-batch-gradient path and the
    records. run_many advances K lanes with the stacked kernels: ``sample``
    at each trace point, then ``step``. ``name`` prefixes the errors the
    lane meets. A lane that has ended holds its RunResult in ``result``.
    """

    __slots__ = ("config", "f_star", "name", "sampler", "records", "prev_result", "f_full", "grad_full_norm", "result")

    def __init__(self, config: RunConfig, name: str, sampler: BatchSampler):
        self.config = config
        known = config.problem.known
        self.f_star = known.f_star if known is not None else None
        self.name = name
        self.sampler = sampler
        self.records: list[IterationRecord] = []
        self.prev_result = None
        self.f_full = self.grad_full_norm = None
        self.result: RunResult | None = None

    def finish(self, x, status, stall=None):
        self.result = RunResult(trajectory=self.records, final_x=x.copy(), status=status, stall=stall)

    def _exact(self, x) -> str | None:
        """Sample the exact oracle at x; the converged status it shows, or None.

        ||grad f|| is sqrt(g . g) of the dot full_oracle's finiteness test
        takes, the float np.linalg.norm gives; a finite gradient whose
        square overflows has norm inf.
        """
        self.f_full, _, self.grad_full_norm = full_oracle(self.config.problem, x, norm=True)
        return _verdict(self.config, self.f_star, self.f_full, self.grad_full_norm)

    def sample(self, x) -> bool:
        """The exact sample of a trace point at x; True if its verdict ends the lane."""
        verdict = self._exact(x)
        if verdict is not None:
            self.finish(x, verdict)
        return verdict is not None

    def step(self, k: int, x, f_b, g_norm, d_norm, dTg, restarted, phi) -> float | None:
        """Search from x along the safeguarded direction, and record iteration k.

        f_b is the sampled component's value at x and phi(a) its value along
        the direction; the rest are the safeguard's measures. Returns the
        accepted step, or None at a zero batch gradient or a stall (which
        ends the lane).
        """
        ls = self.config.linesearch
        alpha0 = next_alpha0(ls, self.prev_result)
        verdict = step = None
        if g_norm == 0.0:
            # Stationary for this batch: no admissible search. Check the exact
            # gradient now in case this is a true interpolation point; a trace
            # point this iteration has checked it already.
            if self.f_full is None:
                verdict = self._exact(x)
            alpha, backtracks = 0.0, 0
        else:
            try:
                result = backtrack(phi, dTg, ls, alpha0, f_b)
            except LineSearchStallError as exc:
                self.finish(x, "stalled", exc)
                return None
            # Acceptance certificate: same floats the search just tested. An
            # explicit check, so that running with -O cannot strip it.
            if not result.accepted_f <= f_b + ls.gamma * result.alpha * dTg:
                raise CertificateError(
                    f"k={k}: accepted f={result.accepted_f!r} at alpha={result.alpha!r} "
                    f"exceeds f_B + gamma*alpha*d.g = {f_b + ls.gamma * result.alpha * dTg!r}"
                )
            alpha0, alpha, backtracks = result.alpha0, result.alpha, result.backtracks
            step = alpha
            self.prev_result = result
        # The fields in order, positionally: keywords cost a dataclass about
        # three times as much, and this runs once per seed-iteration.
        self.records.append(
            IterationRecord(
                k, self.f_full, self.grad_full_norm, f_b, g_norm, d_norm, dTg,
                alpha0, alpha, backtracks, not restarted, restarted,
            )
        )
        self.f_full = self.grad_full_norm = None
        if verdict is not None:
            self.finish(x, verdict)
        return step


def run(config: RunConfig) -> RunResult:
    """Iterate x <- x + alpha d until a tolerance, the cap, or a stall.

    Each iteration draws one component, evaluates its value and gradient once,
    forms one safeguarded direction, runs one backtracking search, and takes
    one step. Convergence is decided on the periodic exact-oracle samples
    (batch gradients vanish spuriously only where stopping is correct anyway);
    a vanishing batch gradient skips the step, forces an exact check, and
    moves on to the next draw.

    A run is the group of one seed of ``run_many``, so it holds numpy's
    OpenBLAS to one thread: the trajectory is reproducible bit for bit given
    the config and seed, whatever the core count or OPENBLAS_NUM_THREADS.
    """
    return run_many(config, [config.run.seed])[0]


@_blas.single_thread()
def run_many(config: RunConfig, seeds) -> list[RunResult]:
    """One run per seed s, config's run with its seed set to s, advanced in lockstep.

    The K seeds' iterates are the rows of one (K, n) stack: the sampled
    rows, the finiteness checks, the direction recipe (MemoryRows), the
    (c1, c2) safeguard, the ray coefficients and the step are each one
    operation on the stack. Each seed is a _Lane, and leaves the stack when
    it ends. So result i is the same bytes in a group of any size, K = 1
    (``run``) included. In a group of several seeds, the error a seed meets
    is raised after "seed=S: ". The call holds OpenBLAS to one thread.

    The loop runs in three (K, n) stacks, X, G and D, and takes views of
    their first rows when seeds leave the group. The gradients are written
    into G and the directions into D; once the memory has copied what it
    keeps, each step alpha d is written into G and added into X. sgd's
    direction -G is never formed: its measures, its rays and its step are
    read off G (MemoryRows.safeguard with D None), and D is None.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    problem = config.problem
    lanes, starts = [], []
    for seed in seeds:
        x, sampler = _start(config, seed)
        lanes.append(_Lane(config, f"seed={seed}: " if len(seeds) > 1 else "", sampler))
        starts.append(x)
    results = list(lanes)
    X = np.stack(starts)
    memory = MemoryRows(config.direction, len(lanes), problem.n)
    G = np.empty(X.shape)
    D = None if config.direction.kind == "sgd" else np.empty(X.shape)

    every = config.run.trace_every
    for k in range(config.run.max_iters):
        if k % every == 0:
            for j, lane in enumerate(lanes):
                try:
                    lane.sample(X[j])
                except SlsoptError as exc:
                    raise _named(lane, exc)
            if any(lane.result is not None for lane in lanes):
                lanes, X, G, D = _drop_finished(lanes, memory, X, G, D)
                if not lanes:
                    break

        # evaluate_batch's checks, one row each: a finite iterate, then a
        # finite value and gradient of the sampled component. As in
        # problems._all_finite, a finite dot clears every row at once: the
        # dot of the stack X with itself, and the sum of the rows' g . g,
        # which the safeguard then reads. Only a non-finite one needs the
        # elementwise test, so the verdict is always that test's. Python
        # float sums overflow to inf without a warning.
        j = None if _all_finite(X) else _first_non_finite(X)
        if j is not None:
            raise _named(lanes[j], NumericDomainError("x contains non-finite entries"))
        idx = np.array([lane.sampler.draw() for lane in lanes])
        R0, G, ray_rows = problem.batch_eval_rows(idx, X, out=G)
        r0s = R0.tolist()
        fs = [0.5 * r0 * r0 for r0 in r0s]
        ggs = memory.gradient_squares(G)
        j = None if math.isfinite(sum(fs)) and math.isfinite(sum(ggs)) else _first_non_finite(G, fs)
        if j is not None:
            raise _named(lanes[j], NumericDomainError(f"non-finite evaluation of component {idx[j]}"))
        if D is None:
            # sgd takes d = -g, which passes the safeguard (RunConfig requires
            # c1 >= 1 >= c2). Negation is exact, so the ray along -g is the
            # ray along g with C1 negated; a zero C1 may change sign, which
            # phi, a square, does not see.
            violated, gns, dns, dTgs = memory.safeguard(None, G, ggs, config.sgr)
            C1, C2 = ray_rows(G)
            c1s, c2s = [-c for c in C1.tolist()], C2.tolist()
        else:
            D = memory.propose(G, X, out=D)
            violated, gns, dns, dTgs = memory.safeguard(D, G, ggs, config.sgr)
            c1s, c2s = (v.tolist() for v in ray_rows(D))

        alphas = []
        for j, lane in enumerate(lanes):
            phi = ray_phi(r0s[j], c1s[j], c2s[j])
            try:
                alphas.append(lane.step(k, X[j], fs[j], gns[j], dns[j], dTgs[j], bool(violated[j]), phi))
            except SlsoptError as exc:
                raise _named(lane, exc)

        # The memory update, then the step, on the rows that searched; a row
        # on the zero-gradient path, or one that stalled, keeps its x and
        # its memory, and takes alpha = 0, which where= leaves out. The
        # update comes first: it copies the old X and the G it reads, so
        # alpha d can then be formed in G. alpha d + x is x + alpha d (IEEE
        # addition is commutative), and sgd's alpha (-g) is (-alpha) g,
        # since negation is exact.
        step = True if None not in alphas else np.array([[alpha is not None] for alpha in alphas])
        memory.update(step, X, G, D)
        V, sign = (G, -1.0) if D is None else (D, 1.0)
        A = np.array([0.0 if alpha is None else sign * alpha for alpha in alphas])[:, None]
        np.multiply(V, A, out=G)
        np.add(X, G, out=X, where=step)
        if step is not True and any(lane.result is not None for lane in lanes):
            lanes, X, G, D = _drop_finished(lanes, memory, X, G, D)
            if not lanes:
                break

    for lane, x in zip(lanes, X):
        lane.finish(x, "max_iters")
    return [lane.result for lane in results]


def _named(lane: _Lane, exc: SlsoptError) -> SlsoptError:
    """exc as run_many raises it: after "seed=S: " in a group of several seeds."""
    return type(exc)(f"{lane.name}{exc}") if lane.name else exc


def _drop_finished(lanes, memory, X, G, D):
    """The lanes, the memory and the stacks without the finished lanes.

    X keeps the rows of the lanes that go on; G and D, whose rows the next
    iteration overwrites, become views of their first rows.
    """
    keep = np.array([lane.result is None for lane in lanes])
    memory.keep(keep)
    K = int(keep.sum())
    return [lane for lane in lanes if lane.result is None], X[keep], G[:K], None if D is None else D[:K]


def _first_non_finite(V, values=None) -> int | None:
    """The first row whose value (if given) or entries are not all finite."""
    for j, v in enumerate(V):
        if values is not None and not math.isfinite(values[j]) or not np.isfinite(v).all():
            return j
    return None


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

    Checks, for every record: that sgr_pass and restarted disagree (a
    restart is exactly a failed safeguard test). For every record that
    searched: the initial step 0 < alpha0 <= alpha_max, a backtrack count
    j >= 0, the exact step expression alpha == alpha0 * delta**j, the step
    floor min(alpha0, delta * alpha_low), the backtrack ceiling, and both
    direction bounds on the realized quantities. Inequalities re-derived
    from stored floats get a tiny relative slack; the step expression is
    checked exactly. Each bound is written as not (lhs <= rhs), so a
    non-finite field fails it. Returns the first violation or None.
    """
    a_low = alpha_low(sgr.c1, sgr.c2, ls.gamma, L_max)
    j_cap = jstar(ls.alpha_max, a_low, ls.delta)
    for r in records:
        if r.sgr_pass == r.restarted:
            return TraceViolation(r.k, "restart_flag", f"sgr_pass and restarted both {r.sgr_pass}")
        if r.g_batch_norm == 0.0:
            if r.alpha != 0.0 or r.d_norm != 0.0:
                return TraceViolation(r.k, "stationary_batch", "nonzero step or direction at zero batch gradient")
            continue
        if not 0.0 < r.alpha0 <= ls.alpha_max:
            return TraceViolation(r.k, "initial_step", f"alpha0={r.alpha0!r} outside (0, {ls.alpha_max!r}]")
        if not r.backtracks >= 0:
            return TraceViolation(r.k, "backtrack_count", f"j={r.backtracks} is negative")
        expected_alpha = r.alpha0 * ls.delta**r.backtracks
        if r.alpha != expected_alpha:
            return TraceViolation(
                r.k,
                "step_expression",
                f"alpha={r.alpha!r} but alpha0*delta^j={expected_alpha!r}",
            )
        floor = min(r.alpha0, ls.delta * a_low)
        if not r.alpha >= floor * (1.0 - rel_tol):
            return TraceViolation(
                r.k, "step_floor", f"alpha={r.alpha!r} below floor {floor!r}"
            )
        if not r.backtracks <= j_cap:
            return TraceViolation(
                r.k, "backtrack_ceiling", f"j={r.backtracks} exceeds j*={j_cap}"
            )
        gn2 = r.g_batch_norm * r.g_batch_norm
        if not r.d_norm <= sgr.c1 * r.g_batch_norm * (1.0 + rel_tol):
            return TraceViolation(
                r.k,
                "norm_bound",
                f"||d||={r.d_norm!r} exceeds c1*||g||={sgr.c1 * r.g_batch_norm!r}",
            )
        if not r.dTg <= -sgr.c2 * gn2 * (1.0 - rel_tol):
            return TraceViolation(
                r.k,
                "descent_bound",
                f"d.g={r.dTg!r} above -c2*||g||^2={-sgr.c2 * gn2!r}",
            )
        if not r.alpha > 0.0:
            return TraceViolation(r.k, "positive_step", "alpha must be > 0 when g != 0")
    return None
