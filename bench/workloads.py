"""The three benchmark workloads, each driven through slsopt's CLI functions.

A workload is an endless sequence of calls into one public entry point
(``cmd_sweep``, ``cmd_run`` or ``cmd_diagnose``), generated from the
benchmark seed. Each call is timed on its own, its outputs are read back and
checked, and its deterministic counts are kept for the fingerprint. Load is a
closed loop: the next call starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Relative slack for inequalities re-derived from stored floats; the same
# value verify_trace_bounds uses. The step expression is checked exactly.
REL_TOL = 1e-12

# Bounds that hold in exact arithmetic only: the step floor and backtrack
# ceiling follow from L-smoothness of the batch value, which the computed
# value loses once its residual is within its own rounding error.
ROUNDING_BOUNDS = ("step_floor", "backtrack_ceiling")


@dataclass
class CallOutcome:
    """Timing, checks and exact counts of one call into the program."""

    wall: float
    cpu: float
    units: int  # optimizer iterations or diagnose sample points
    run_times: list[float]  # wall time of each run the call made
    attempted: int
    failed: int
    counts: list = field(default_factory=list)  # exact, per run; JSON-able
    digest: str = ""  # SHA-256 of the call's output files
    rounding_breaks: list[str] = field(default_factory=list)  # see LsSweep._check_run
    final_gaps: list[float] = field(default_factory=list)  # log10(f - f*) per run
    errors: list[str] = field(default_factory=list)


def trial_bytes_computed(problem) -> int:
    """Bytes one line-search trial reads and writes, from array shapes.

    Computed, not measured. A trial forms x + a d (a * d reads n and writes n
    doubles; the sum reads 2n and writes n) and evaluates one singleton
    batch: a row dot product (2n reads) for least squares; u @ V (n_u +
    n_u n_v reads, n_v writes) and then a row dot product (2 n_v reads) for
    the two-factor model.
    """
    n = problem.n
    if hasattr(problem, "n_u"):
        n_u, n_v = problem.n_u, problem.n_v
        oracle = n_u + n_u * n_v + n_v + 2 * n_v
    else:
        oracle = 2 * n
    return 8 * (5 * n + oracle)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _trace_counts(records) -> dict:
    trials = Counter(r.backtracks + 1 for r in records if r.alpha > 0.0)
    return {
        "iterations": len(records),
        "batch_oracle_calls": len(records),
        "trace_points": sum(1 for r in records if r.f_full is not None),
        "trials_hist": {str(k): v for k, v in sorted(trials.items())},
        "restarts": sum(1 for r in records if r.restarted),
    }


def _check_rows(records, sgr, ls) -> str | None:
    """Step expression and both direction bounds on every row; first failure."""
    for r in records:
        if r.g_batch_norm == 0.0:
            continue
        if r.alpha != r.alpha0 * ls.delta**r.backtracks:
            return f"k={r.k}: alpha != alpha0*delta**j"
        if r.alpha <= 0.0:
            return f"k={r.k}: non-positive step"
        if r.d_norm > sgr.c1 * r.g_batch_norm * (1.0 + REL_TOL):
            return f"k={r.k}: norm bound"
        if r.dTg > -sgr.c2 * r.g_batch_norm**2 * (1.0 - REL_TOL):
            return f"k={r.k}: descent bound"
    return None


class Workload:
    name = ""
    config = ""
    unit = ""
    # Calls at the start of every run whose counts are exact: they depend on
    # the seed only, never on the time budget.
    exact_calls = 1
    # Calls cycle through this many direction kinds, in a fixed order.
    cycle = 1

    def __init__(self, mods, seed: int, tmpdir: str):
        self.m = mods
        self.seed = seed
        self.tmp = tmpdir
        self.config_path = os.path.join(HERE, "configs", self.config)
        self.cfg = mods["config"].read_config(self.config_path)
        self.problem = mods["config"].build_problem(self.cfg)

    def setup_probe(self) -> list[str]:
        """Arguments for setup_probe.py: config path and what to build."""
        return [self.config_path, "run"]

    def _invoke(self, fn, *args, **kwargs):
        """Call fn with stdout and stderr captured.

        Returns (exit code or exception text, captured text, wall seconds,
        process CPU seconds, start time).
        """
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                rc = fn(*args, **kwargs)
            except Exception as exc:  # counted as a failed call, never fatal
                rc = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        return rc, buf.getvalue(), wall, cpu, t0

    def _read_trace(self, path):
        try:
            return self.m["traceio"].read_trace(path)
        except (self.m["errors"].ConfigError, ValueError, OSError):
            return None

    def _count(self, out, seed, records):
        """Units, exact counts and the final gap of one run's trace."""
        out.units += len(records)
        out.counts.append({"seed": seed, **_trace_counts(records)})
        # The last trace point: a run's final iterate is not always traced.
        traced = [r.f_full for r in records if r.f_full is not None]
        if traced:
            gap = traced[-1] - self.problem.known.f_star
            out.final_gaps.append(math.log10(gap) if gap > 0 else float("-inf"))

    def jstar_plus_1(self) -> int:
        return 0

    def trial_bytes(self) -> int:
        return trial_bytes_computed(self.problem)


class LsSweep(Workload):
    """`slsopt sweep --jobs 1` on the acceptance instance, one sweep per kind."""

    name = "ls_sweep"
    config = "ls_sweep.ini"
    unit = "iterations"
    seeds_per_call = 4
    kinds = {
        "sgd": ["direction.kind=sgd", "direction.c1=1.0", "direction.c2=1.0"],
        "momentum": [
            "direction.kind=momentum",
            "direction.beta=0.9",
            "direction.c1=10.0",
            "direction.c2=0.1",
        ],
        "cg": [
            "direction.kind=cg",
            "direction.cg_variant=pr+",
            "direction.beta_cap=0.3",
            "direction.c1=10.0",
            "direction.c2=0.1",
        ],
    }
    exact_calls = len(kinds)
    cycle = len(kinds)
    _line = re.compile(r"^seed=(\d+) status=(\S+) iters=(\d+)")

    def __init__(self, mods, seed, tmpdir):
        super().__init__(mods, seed, tmpdir)
        cfgmod = mods["config"]
        self.params = {}
        for kind, overrides in self.kinds.items():
            cfg = cfgmod.read_config(self.config_path, overrides=overrides)
            self.params[kind] = (cfgmod.build_sgr_params(cfg), cfgmod.build_linesearch_params(cfg))
        self.L_max = self.problem.known.L_max
        self.rounding_residual = self._rounding_residual()
        # Per-run wall times: a sweep writes each run's trace as the run
        # ends, so the gaps between trace writes are the runs' wall times.
        self.stamps: list[float] = []
        traceio = mods["traceio"]
        write_trace = traceio.write_trace
        stamps = self.stamps

        def stamped_write_trace(path, records):
            write_trace(path, records)
            stamps.append(time.perf_counter())

        traceio.write_trace = stamped_write_trace

    def _rounding_residual(self) -> float:
        """Worst-case rounding error of a computed residual, over all rows.

        fl(a_i . x) - b_i is off by at most (n + 1) u (||a_i|| ||x|| + |b_i|).
        Every direction kind here ends near x0 + pinv(A)(b - A x0), whose norm
        is at most ||pinv(A) b|| + ||x0||, with ||x0|| about 1; R doubles that
        bound (taking ||x0|| <= 2) to cover the approach. Traces do not record
        the sampled row, so the largest row envelope applies to all.
        """
        A, b = self.problem.A, self.problem.b
        R = 2.0 * (float(np.linalg.norm(np.linalg.pinv(A) @ b)) + 2.0)
        u = np.finfo(np.float64).eps / 2.0
        row_norm = float(np.linalg.norm(A, axis=1).max())
        return (A.shape[1] + 1) * u * (row_norm * R + float(np.abs(b).max()))

    def specs(self):
        for r in itertools.count():
            first = self.seed * 100_000 + r * self.seeds_per_call
            for kind in self.kinds:
                yield kind, first

    def execute(self, spec) -> CallOutcome:
        kind, first = spec
        k = self.seeds_per_call
        seeds = list(range(first, first + k))
        base = os.path.join(self.tmp, f"ls_{kind}")
        self.stamps.clear()
        rc, text, wall, cpu, t0 = self._invoke(
            self.m["cli"].cmd_sweep,
            self.config_path,
            seeds=f"{seeds[0]}..{seeds[-1]}",
            jobs=1,
            overrides=self.kinds[kind] + [f"run.out_csv={base}.csv"],
        )
        out = CallOutcome(wall=wall, cpu=cpu, units=0, run_times=[], attempted=k, failed=0)
        if len(self.stamps) != k:
            out.failed = k
            out.errors.append(f"{kind} seeds {seeds}: exit {rc!r}, {len(self.stamps)} traces written")
            return out
        marks = [t0] + self.stamps
        out.run_times = [b - a for a, b in zip(marks, marks[1:])]
        status = {}
        for line in text.splitlines():
            match = self._line.match(line)
            if match:
                status[int(match.group(1))] = (match.group(2), int(match.group(3)))
        paths = [f"{base}_seed{s}.csv" for s in seeds]
        for s, path in zip(seeds, paths):
            problem = self._check_run(s, status.get(s), path, self.params[kind], out)
            if problem is not None:
                out.failed += 1
                out.errors.append(f"{kind} seed {s}: {problem}")
        out.digest = _digest(paths)
        return out

    def _check_run(self, s, status, path, params, out) -> str | None:
        records = self._read_trace(path)
        if records is None:
            return "trace unreadable"
        self._count(out, s, records)
        if status is None:
            return "no summary line"
        if status[0] != "converged_fgap":
            return f"status {status[0]}"
        if len(records) != status[1]:
            return f"trace has {len(records)} rows, summary says {status[1]}"
        verify = self.m["optimizer"].verify_trace_bounds
        if verify(records, *params, self.L_max) is None:
            return None
        # A known program defect: once the sampled residual is within its own
        # rounding error, the computed Armijo test decides on rounding noise
        # and may backtrack past the floor (to alpha ~ 1e-17). Such a search is
        # recorded in rounding_breaks and still has to pass every other bound;
        # any other violation fails the run.
        for r in records:
            violation = verify([r], *params, self.L_max)
            if violation is None:
                continue
            residual = math.sqrt(2.0 * r.f_batch)
            if violation.bound in ROUNDING_BOUNDS and residual <= self.rounding_residual:
                problem = _check_rows([r], *params)
                if problem is not None:
                    return problem
                out.rounding_breaks.append(
                    f"seed {s} k={r.k}: {violation.bound} at residual {residual:.3g}: {violation.detail}"
                )
                continue
            return f"k={violation.k}: {violation.bound}: {violation.detail}"
        return None

    def jstar_plus_1(self) -> int:
        ls_mod = self.m["linesearch"]
        worst = 0
        for sgr, ls in self.params.values():
            a_low = ls_mod.alpha_low(sgr.c1, sgr.c2, ls.gamma, self.L_max)
            worst = max(worst, ls_mod.jstar(ls.alpha_max, a_low, ls.delta) + 1)
        return worst


class TwoFactorWide(Workload):
    """`slsopt run` on the 40,200-variable two-factor model, fixed budget."""

    name = "twofactor_wide"
    config = "twofactor_wide.ini"
    unit = "iterations"
    kinds = ("sgd", "momentum")
    exact_calls = 4
    cycle = len(kinds)

    def __init__(self, mods, seed, tmpdir):
        super().__init__(mods, seed, tmpdir)
        cfgmod = mods["config"]
        self.sgr = cfgmod.build_sgr_params(self.cfg)
        self.ls = cfgmod.build_linesearch_params(self.cfg)
        self.budget = self.cfg.run.max_iters

    def specs(self):
        for call in itertools.count():
            yield self.kinds[call % 2], self.seed * 100_000 + call // 2

    def execute(self, spec) -> CallOutcome:
        kind, run_seed = spec
        path = os.path.join(self.tmp, "tf_trace.csv")
        rc, text, wall, cpu, _ = self._invoke(
            self.m["cli"].cmd_run,
            self.config_path,
            overrides=[f"direction.kind={kind}", f"run.out_csv={path}"],
            seed=run_seed,
        )
        out = CallOutcome(wall=wall, cpu=cpu, units=0, run_times=[wall], attempted=1, failed=0)
        problem = self._check(rc, text, path, run_seed, out)
        if problem is not None:
            out.failed = 1
            out.errors.append(f"{kind} seed {run_seed}: {problem}")
        return out

    def _check(self, rc, text, path, run_seed, out) -> str | None:
        if rc != 2 or "status: max_iters" not in text.splitlines():
            return f"exit {rc!r}, expected 2 with status max_iters"
        records = self._read_trace(path)
        if records is None:
            return "trace unreadable"
        self._count(out, run_seed, records)
        out.digest = _digest([path])
        if len(records) != self.budget:
            return f"trace has {len(records)} rows, budget is {self.budget}"
        return _check_rows(records, self.sgr, self.ls)


class DiagnoseWide(Workload):
    """`slsopt diagnose --samples-csv` on 1000 x 2000 least squares."""

    name = "diagnose_wide"
    config = "diagnose_wide.ini"
    unit = "points"
    points_per_call = 8
    _value = re.compile(r"^(\w+) = (\S+)$")

    def setup_probe(self) -> list[str]:
        return [self.config_path, "diagnose"]

    def specs(self):
        for call in itertools.count():
            yield self.seed * 100_000 + call

    def execute(self, spec) -> CallOutcome:
        path = os.path.join(self.tmp, "samples.csv")
        rc, text, wall, cpu, _ = self._invoke(
            self.m["cli"].cmd_diagnose,
            self.config_path,
            num_points=self.points_per_call,
            seed=spec,
            samples_csv=path,
        )
        out = CallOutcome(wall=wall, cpu=cpu, units=0, run_times=[wall], attempted=1, failed=0)
        problem = self._check(rc, text, path, spec, out)
        if problem is not None:
            out.failed = 1
            out.errors.append(f"seed {spec}: {problem}")
        return out

    def _check(self, rc, text, path, spec, out) -> str | None:
        if rc != 0:
            return f"exit {rc!r}"
        with open(path) as fh:
            points = len(fh.read().splitlines()) - 1
        out.units = points
        out.counts.append({"seed": spec, "sample_points": points})
        out.digest = _digest([path])
        if points != self.points_per_call:
            return f"samples CSV has {points} points, expected {self.points_per_call}"
        values = dict(m.groups() for m in map(self._value.match, text.splitlines()) if m)
        try:
            mu_hat = float(values["mu_hat"])
            rho_hat = float(values["rho_hat"])
        except (KeyError, ValueError):
            return "mu_hat or rho_hat missing from the report"
        mu = 4.0 / self.problem.N
        if not abs(mu_hat - mu) <= 1e-9 * mu:
            return f"mu_hat={mu_hat!r}, expected 4/N={mu!r}"
        if not rho_hat >= 1.0:
            return f"rho_hat={rho_hat!r} < 1"
        if "lemma_norm_min_slack" not in values:
            return "lemma-bound stage did not run"
        return None

    def trial_bytes(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (LsSweep, TwoFactorWide, DiagnoseWide)}
