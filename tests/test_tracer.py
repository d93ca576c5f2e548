"""bench/tracer.py wraps names of the package where callers look them up.

A refactor that moves or renames one of them breaks ``bench/run.py --trace
1``, and one that stops calling them makes their rows read 0; these tests
make both a suite failure. They load the tracer from its file and change
nothing under bench/.
"""

import importlib.util
from pathlib import Path

from slsopt import cli, config, diagnostics, directions, optimizer, problems, traceio

ROOT = Path(__file__).resolve().parents[1]
MODULES = {
    "cli": cli, "config": config, "diagnostics": diagnostics, "directions": directions,
    "optimizer": optimizer, "problems": problems, "traceio": traceio,
}
DIAGNOSTICS = ("exact_moments", "estimate_rho", "estimate_wgc", "estimate_pl", "verify_lemma_bounds")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
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
    *[(diagnostics, name) for name in DIAGNOSTICS],
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
    try:
        tracer_module.install(tracer, MODULES)
        patched = {(id(owner), name) for owner, name, _ in tracer._restore}
        assert patched == set(originals)
        for owner, name in BOUND:
            assert vars(owner)[name] is not originals[(id(owner), name)]
    finally:
        tracer.unpatch_all()
    for owner, name in BOUND:
        assert vars(owner)[name] is originals[(id(owner), name)], (owner.__name__, name)


def test_tracer_sees_every_diagnostics_call_of_diagnose(capsys):
    # the diagnostics rows of a traced diagnose are diagnose's own calls
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer, MODULES)
        tracer.enabled = True
        code = cli.cmd_diagnose(
            str(ROOT / "configs" / "least_squares.ini"), num_points=3, overrides=["problem.N=20", "problem.n=40"]
        )
        tracer.enabled = False
        totals = tracer.layer_totals()
    finally:
        tracer.unpatch_all()
    assert code == 0, capsys.readouterr().err
    assert [name for name in DIAGNOSTICS if totals["diagnostics." + name][0] < 1] == []
