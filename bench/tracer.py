"""In-memory span tracer that wraps slsopt's public functions from outside.

Each wrapped function records one span (name, start, end, parent) while the
tracer is enabled. Spans live in flat arrays until the run ends, when they
are aggregated into per-layer numbers and written out as one .npz file.

Names are rebound where callers look them up: ``optimizer`` imports
``evaluate_batch``, ``backtrack`` and friends with ``from .problems import``,
so the names in ``slsopt.optimizer`` are wrapped, not those in the defining
modules. Methods are wrapped on the concrete problem classes.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Span store plus exact counters taken at the same boundaries."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.trial_hist: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, on_result=None):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None):
        """Rebind ``owner.attr`` to a traced wrapper; undone by ``unpatch_all``.

        ``owner`` must define ``attr`` itself, so restoring never shadows an
        inherited attribute.
        """
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, name, on_result))
        self._restore.append((owner, attr, original))

    def unpatch_all(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name_id, parent, start, end

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap, so that equals the part
        of the interval no child covers.
        """
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        self_t = np.bincount(name_id, weights=dur - child, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_t[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: str):
        name_id, parent, start, end = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
        )


def install(tracer: Tracer, slsopt_modules) -> None:
    """Wrap the public functions of every measured layer.

    ``slsopt_modules`` maps module short names to the imported modules of the
    checkout under test.
    """
    m = slsopt_modules
    problems, optimizer = m["problems"], m["optimizer"]
    norm_bound = m["directions"].NORM_BOUND
    counts, hist = tracer.counts, tracer.trial_hist

    def on_search(args, result):
        hist[result.f_trial_count] += 1

    def on_direction(args, outcome):
        if outcome.restarted:
            v = outcome.violated
            bound = "both" if len(v) == 2 else ("norm" if norm_bound in v else "descent")
            counts["restarts"] += 1
            counts["restarts_" + bound] += 1

    def on_run(args, result):
        counts["iterations"] += len(result.trajectory)

    def on_write(args, result):
        counts["rows_written"] += len(args[1])
        counts["bytes_written"] += os.path.getsize(args[0])

    tracer.patch(problems.BatchSampler, "draw", "problems.draw")
    tracer.patch(optimizer, "evaluate_batch", "problems.evaluate_batch")
    for cls in (problems.LeastSquaresProblem, problems.TwoFactorProblem):
        tracer.patch(cls, "batch_value", "problems.batch_value")
        tracer.patch(cls, "component_grads", "problems.component_grads")
    # optimizer.run traces through its own binding; sweep's final gap imports
    # the problems binding at call time.
    tracer.patch(optimizer, "full_oracle", "problems.full_oracle")
    tracer.patch(problems, "full_oracle", "problems.full_oracle")
    tracer.patch(optimizer, "backtrack", "linesearch.backtrack", on_search)
    tracer.patch(optimizer, "safeguarded_direction", "directions.safeguarded_direction", on_direction)
    tracer.patch(optimizer, "update_memory", "directions.update_memory")
    tracer.patch(optimizer, "run", "optimizer.run", on_run)
    tracer.patch(m["traceio"], "write_trace", "traceio.write_trace", on_write)
    for fn in ("read_config", "parse_config", "build_problem"):
        tracer.patch(m["config"], fn, "config." + fn)
    for fn in ("exact_moments", "estimate_rho", "estimate_wgc", "estimate_pl", "verify_lemma_bounds"):
        tracer.patch(m["diagnostics"], fn, "diagnostics." + fn)
    for fn, name in (("cmd_sweep", "sweep"), ("cmd_run", "run"), ("cmd_diagnose", "diagnose")):
        tracer.patch(m["cli"], fn, "cli." + name)
