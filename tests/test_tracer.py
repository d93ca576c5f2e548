"""bench/tracer.py wraps names of the package where callers look them up.

A refactor that moves or renames one of them breaks ``bench/run.py --trace
1``; this test makes that a suite failure. It loads the tracer from its file
and changes nothing under bench/.
"""

import importlib.util
from pathlib import Path

from slsopt import cli, config, diagnostics, directions, optimizer, problems, traceio


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The (owner, attribute) pairs the tracer wraps, each defined by its owner.
BOUND = [
    *[(optimizer, name) for name in
      ("evaluate_batch", "safeguarded_direction", "update_memory", "full_oracle", "backtrack", "run")],
    (problems, "full_oracle"),
    (problems.BatchSampler, "draw"),
    *[(cls, name) for cls in (problems.LeastSquaresProblem, problems.TwoFactorProblem)
      for name in ("batch_value", "component_grads")],
    *[(diagnostics, name) for name in
      ("exact_moments", "estimate_rho", "estimate_wgc", "estimate_pl", "verify_lemma_bounds")],
    *[(config, name) for name in ("read_config", "parse_config", "build_problem")],
    *[(cli, name) for name in ("cmd_run", "cmd_sweep", "cmd_diagnose")],
    (traceio, "write_trace"),
]


def test_tracer_binds_and_restores_every_name():
    assert isinstance(directions.NORM_BOUND, str)
    missing = [(owner.__name__, name) for owner, name in BOUND if name not in vars(owner)]
    assert missing == []
    originals = {(id(owner), name): vars(owner)[name] for owner, name in BOUND}
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    modules = {
        "cli": cli, "config": config, "diagnostics": diagnostics, "directions": directions,
        "optimizer": optimizer, "problems": problems, "traceio": traceio,
    }
    try:
        tracer_module.install(tracer, modules)
        patched = {(id(owner), name) for owner, name, _ in tracer._restore}
        assert patched == set(originals)
        for owner, name in BOUND:
            assert vars(owner)[name] is not originals[(id(owner), name)]
    finally:
        tracer.unpatch_all()
    for owner, name in BOUND:
        assert vars(owner)[name] is originals[(id(owner), name)], (owner.__name__, name)
