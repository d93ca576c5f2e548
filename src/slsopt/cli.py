"""Command-line front end: run, diagnose, verify, sweep.

Exit codes: 0 success / converged, 1 configuration error (an unwritable
output path included) or other package error, 2 iteration cap hit, 3
line-search stall, 4 undefined estimator, 5 per-iteration bound or Armijo
certificate violated.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import os
import sys

import numpy as np

from . import _blas
from . import config as cfgmod
from . import diagnostics, optimizer, traceio
from .directions import MemoryRows
from .errors import (
    CertificateError,
    ConfigError,
    InsufficientDataError,
    SlsoptError,
    UndefinedEstimateError,
    UnsatisfiableSafeguardError,
    UnsupportedProblemError,
)
from .plotting import convergence_svg

__all__ = ["main", "main_entry", "cmd_run", "cmd_diagnose", "cmd_verify", "cmd_sweep"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITERS = 2
EXIT_STALL = 3
EXIT_UNDEFINED = 4
EXIT_VIOLATION = 5

# Exception types -> exit code and stderr prefix; the first match wins.
# Unwritable output paths surface as OSError and count as config errors.
_EXITS = (
    (CertificateError, EXIT_VIOLATION, "violation: armijo_certificate"),
    ((UndefinedEstimateError, UnsupportedProblemError), EXIT_UNDEFINED, "estimator undefined for this instance"),
    ((ConfigError, UnsatisfiableSafeguardError, OSError), EXIT_CONFIG, "config error"),
    (SlsoptError, EXIT_CONFIG, "error"),
)


def _exit_on_error(command):
    """Map the errors in ``_EXITS`` to their exit code and one stderr line."""

    @functools.wraps(command)
    def wrapped(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (SlsoptError, OSError) as exc:
            code, prefix = next((c, p) for types, c, p in _EXITS if isinstance(exc, types))
            print(f"{prefix}: {exc}", file=sys.stderr)
            return code

    return wrapped


def _load(config_path, overrides, seed):
    overrides = list(overrides or [])
    if seed is not None:
        overrides.append(f"run.seed={seed}")
    return cfgmod.read_config(config_path, overrides=overrides)


def _require_output_dirs(*paths):
    """Reject an output path whose directory does not exist, before any work."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: directory {os.path.dirname(path)} does not exist")


def _stall_line(stall) -> str:
    return f"stall: alpha0={stall.alpha0!r} last_alpha={stall.last_alpha!r} trials={stall.trials}"


# Run status -> exit code, one entry per optimizer.STATUSES; a worse end has
# a larger code, so a sweep exits with its worst seed's code.
_STATUS_EXIT = {
    "converged_grad": EXIT_OK,
    "converged_fgap": EXIT_OK,
    "max_iters": EXIT_MAX_ITERS,
    "stalled": EXIT_STALL,
}


@_exit_on_error
def cmd_run(config_path, overrides=(), seed=None) -> int:
    """Execute one run, write the CSV trace (and optional SVG), print a summary."""
    cfg = _load(config_path, overrides, seed)
    _require_output_dirs(cfg.run.out_csv, cfg.run.out_svg)
    problem = cfgmod.build_problem(cfg)
    result = optimizer.run(cfgmod.build_run_config(cfg, problem=problem))

    out_csv = cfg.run.out_csv
    if out_csv:
        traceio.write_trace(out_csv, result.trajectory)
        print(f"trace: {out_csv} ({len(result.trajectory)} rows)")

    f_star = problem.known.f_star if problem.known is not None else None
    n_restarts = sum(1 for r in result.trajectory if r.restarted)
    print(f"status: {result.status}")
    if result.stall is not None:
        print(_stall_line(result.stall))
    print(f"iterations: {len(result.trajectory)}")
    if result.trajectory:
        print(f"restart_fraction: {n_restarts / len(result.trajectory):.4f}")
    if f_star is not None:
        try:
            rate, r2 = optimizer.contraction_estimate(result.trajectory, f_star)
            print(f"contraction_rate: {rate!r}")
            print(f"fit_r_squared: {r2!r}")
        except InsufficientDataError:
            print("contraction_rate: n/a (fewer than 10 exact samples)")

    if cfg.run.out_svg and f_star is not None:
        pts = [
            (r.k, r.f_full - f_star)
            for r in result.trajectory
            if r.f_full is not None and r.f_full - f_star > 0
        ]
        if pts:
            svg = convergence_svg(
                [("gap", [p[0] for p in pts], [p[1] for p in pts])],
                title="optimality gap",
            )
            with open(cfg.run.out_svg, "w", newline="\n") as fh:
                fh.write(svg)
            print(f"plot: {cfg.run.out_svg}")

    return _STATUS_EXIT[result.status]


def _sample_points(problem, rng, count):
    return [rng.standard_normal(problem.n) for _ in range(count)]


@_exit_on_error
def cmd_diagnose(config_path, num_points: int = 100, overrides=(), seed=None, samples_csv=None) -> int:
    """Estimate the regularity constants on sampled points and print them.

    One exact_moments_many call reduces the N component gradients of every
    point to a moment record, with one residual pass per point and two
    sweeps over blocks of rows shared by all points, on one BLAS thread;
    every estimate, slack and samples-CSV row then reads the records. The
    directions come from a fresh memory of one row, as at a run's start.
    """
    if num_points < 1:
        raise ConfigError(f"--points must be >= 1, got {num_points}")
    cfg = _load(config_path, overrides, seed)
    _require_output_dirs(samples_csv)
    problem = cfgmod.build_problem(cfg)
    memory = MemoryRows(cfgmod.build_direction_state(cfg), 1, problem.n)
    ls = cfgmod.build_linesearch_params(cfg)
    sgr = cfgmod.build_sgr_params(cfg)

    rng = np.random.default_rng(cfg.run.seed)
    points = _sample_points(problem, rng, num_points)
    known = problem.known
    moments = diagnostics.exact_moments_many(problem, points, memory)

    rho_hat, rho_point = diagnostics.rho_from_moments(moments)
    try:
        c3_hat, c3_point = diagnostics.c3_from_moments(moments)
    except UndefinedEstimateError:
        # zero gradient variance everywhere makes the covariance bound
        # vacuous; any nonnegative constant works, so report the infimum
        c3_hat, c3_point = 0.0, "n/a"
        print("note: gradient variance vanished at every sample; covariance bound is vacuous")

    print(f"rho_hat = {rho_hat!r}")
    print(f"c3_hat = {c3_hat!r}")

    if known is None or known.f_star is None or known.L is None:
        raise UnsupportedProblemError(
            "growth and gradient-domination estimates need known f_star and L; "
            "this instance records neither smoothness constant"
        )
    wgc_hat, _ = diagnostics.wgc_from_moments(moments, known.f_star, known.L)
    mu_hat, _ = diagnostics.pl_from_moments(moments, known.f_star)
    print(f"mu_hat = {mu_hat!r}")
    print(f"wgc_hat = {wgc_hat!r}")

    mu = known.mu if known is not None and known.mu is not None else mu_hat
    constants = diagnostics.TheoremConstants(
        c1=sgr.c1,
        c2=sgr.c2,
        c3=c3_hat,
        rho=rho_hat,
        mu=mu,
        L=known.L,
        L_max=known.L_max,
        gamma=ls.gamma,
        delta=ls.delta,
        alpha_max=ls.alpha_max,
    )
    report = diagnostics.compute_eta(constants)
    print(f"sigma = {constants.sigma!r}")
    print(f"eta = {report.eta!r}")
    print(f"eta_alpha_max = {report.rate!r}")
    print(f"theorem_hypothesis_ok = {'true' if report.hypothesis_ok else 'false'}")
    print(f"rate_certified = {'true' if report.certified else 'false'}")

    if constants.lemma_applicable:
        reps = [diagnostics.lemma_bounds_from_moments(m, constants) for m in moments]
        print(f"lemma_norm_min_slack = {min(r.norm_slack for r in reps)!r}")
        print(f"lemma_descent_min_slack = {min(r.descent_slack for r in reps)!r}")
    else:
        print("lemma bounds skipped: hypothesis c2 > c3 (1 - 1/rho) fails")

    if samples_csv:
        lines = ["index,f,grad_norm,e_norm_g_sq,var_g,rho_ratio"]
        for i, m in enumerate(moments):
            gn = float(np.linalg.norm(m.E_g))
            ratio = m.E_norm_g_sq / (gn * gn) if gn > 0 else float("nan")
            lines.append(
                f"{i},{m.f!r},{gn!r},{m.E_norm_g_sq!r},{m.var_g!r},{ratio!r}"
            )
        with open(samples_csv, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"samples: {samples_csv}")

    print(f"rho_hat_point = {rho_point}")
    print(f"c3_hat_point = {c3_point}")
    return EXIT_OK


@_exit_on_error
def cmd_verify(config_path, trace_path=None, overrides=(), seed=None) -> int:
    """Replay a run (or read a trace) and re-assert every per-iteration bound."""
    cfg = _load(config_path, overrides, seed)
    problem = cfgmod.build_problem(cfg)
    sgr = cfgmod.build_sgr_params(cfg)
    ls = cfgmod.build_linesearch_params(cfg)

    known = problem.known
    if known is None or known.L_max is None:
        raise ConfigError("verification needs a generator with known L_max")

    if trace_path is not None:
        records = traceio.read_trace(trace_path)
        print(f"checking {len(records)} rows from {trace_path}")
    else:
        run_config = cfgmod.build_run_config(cfg, problem=problem)
        result = optimizer.run(run_config)
        if result.status == "stalled":
            print("status: stalled (verification not reached)", file=sys.stderr)
            print(_stall_line(result.stall), file=sys.stderr)
            return EXIT_STALL
        records = result.trajectory
        print(f"status: {result.status}; checking {len(records)} rows")

    violation = optimizer.verify_trace_bounds(records, sgr, ls, known.L_max)
    if violation is not None:
        print(
            f"violation at k={violation.k}: {violation.bound}: {violation.detail}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    print("all per-iteration bounds hold")
    return EXIT_OK


# The most seeds one lockstep group holds; a group keeps its seeds'
# trajectories in memory until the last of them ends.
SWEEP_GROUP = 8
# The widest x a sweep runs in groups of several seeds; wider sweeps run
# groups of one. Measured on 2 cores (momentum, CPU time per seed-iteration,
# a group of 4 / a group of 1): least squares 0.39 at n = 200, 0.91 at 6000
# and 1.01 at 10,000; the two-factor model 0.73 at n = 10,100 and 1.25 at
# 40,200.
SWEEP_LOCKSTEP_MAX_N = 6000


@_blas.single_thread()
def _sweep_worker(args):
    # One task is one group: the sweep's RunConfig, built once, and the seeds
    # it runs in lockstep; a group of one is what run does for its seed.
    # Every trace is then written, and each final gap evaluated, on one BLAS
    # thread: the groups are the parallelism (--jobs).
    run_config, seeds, paths = args
    results = optimizer.run_many(run_config, seeds)
    from .problems import full_oracle

    problem = run_config.problem
    f_star = problem.known.f_star if problem.known is not None else None
    outcomes = []
    for seed, path, result in zip(seeds, paths, results):
        traceio.write_trace(path, result.trajectory)
        final_gap = None
        if f_star is not None:
            final_gap = full_oracle(problem, result.final_x)[0] - f_star
        outcomes.append((seed, result.status, len(result.trajectory), final_gap))
    return outcomes


def _sweep_groups(seeds: list[int], workers: int, n: int) -> list[list[int]]:
    """Split the seeds into contiguous lockstep groups, as even as they go.

    Every worker gets the same number of groups, each of at most
    SWEEP_GROUP seeds: 6 seeds on one worker are one group of 6, on two
    workers two groups of 3. Above SWEEP_LOCKSTEP_MAX_N variables every
    group is one seed.
    """
    size = SWEEP_GROUP if n <= SWEEP_LOCKSTEP_MAX_N else 1
    per_worker = -(-len(seeds) // workers)
    count = workers * -(-per_worker // size)
    return [g.tolist() for g in np.array_split(seeds, count) if len(g)]


def _parse_seed_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse seeds {text!r}: {exc}") from exc
    if not seeds:
        raise ConfigError(f"seed range {text!r} is empty: {hi.strip()} < {lo.strip()}")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {min(seeds)} in {text!r}")
    seen = set()
    for s in seeds:
        if s in seen:
            raise ConfigError(f"seed {s} appears more than once in {text!r}")
        seen.add(s)
    return seeds


def _sweep_workers(jobs: int | None, tasks: int, cpu_count: int | None) -> int:
    """Worker processes for a sweep.

    The requested count (default: one per CPU), capped at the CPU count and
    at the number of tasks, so no flag value can ask for more processes.
    """
    cpus = cpu_count or 1
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs or cpus, cpus, tasks)


@_exit_on_error
def cmd_sweep(config_path, seeds: str, jobs: int | None = None, overrides=()) -> int:
    """Run one independent trajectory per seed, writing one CSV each."""
    seed_list = _parse_seed_range(seeds)
    workers = _sweep_workers(jobs, len(seed_list), os.cpu_count())
    cfg = _load(config_path, overrides, None)

    base, ext = os.path.splitext(cfg.run.out_csv or "trace.csv")
    paths = [f"{base}_seed{s}{ext}" for s in seed_list]
    _require_output_dirs(*paths)
    run_config = cfgmod.build_run_config(cfg, problem=cfgmod.build_problem(cfg))
    path_of = dict(zip(seed_list, paths))
    groups = _sweep_groups(seed_list, workers, run_config.problem.n)
    tasks = [(run_config, g, [path_of[s] for s in g]) for g in groups]

    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for group in pool.map(_sweep_worker, tasks) for o in group]
    else:
        outcomes = [o for t in tasks for o in _sweep_worker(t)]

    for seed, status, iters, gap in sorted(outcomes):
        gap_text = "" if gap is None else f" gap={gap!r}"
        print(f"seed={seed} status={status} iters={iters}{gap_text}")
    return max(_STATUS_EXIT[status] for _, status, _, _ in outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slsopt",
        description="stochastic line-search optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one optimization run")
    p_run.add_argument("config")
    p_run.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p_run.add_argument("--seed", type=int, default=None, help="override run.seed")

    p_diag = sub.add_parser("diagnose", help="estimate regularity constants")
    p_diag.add_argument("config")
    p_diag.add_argument("--points", type=int, default=100)
    p_diag.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p_diag.add_argument("--seed", type=int, default=None)
    p_diag.add_argument("--samples-csv", default=None)

    p_ver = sub.add_parser("verify", help="re-assert per-iteration bounds")
    p_ver.add_argument("config")
    p_ver.add_argument("--trace", default=None, help="check an existing trace CSV instead of replaying")
    p_ver.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p_ver.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="independent runs over a seed range")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seeds", required=True, help="range a..b or comma list")
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, overrides=args.override, seed=args.seed)
    if args.command == "diagnose":
        return cmd_diagnose(
            args.config,
            num_points=args.points,
            overrides=args.override,
            seed=args.seed,
            samples_csv=args.samples_csv,
        )
    if args.command == "verify":
        return cmd_verify(args.config, trace_path=args.trace, overrides=args.override, seed=args.seed)
    return cmd_sweep(args.config, seeds=args.seeds, jobs=args.jobs, overrides=args.override)


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
