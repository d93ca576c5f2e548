import dataclasses
import functools
import gc
import math
import os
import pathlib
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsopt import (
    CG_VARIANTS,
    KINDS,
    TheoremConstants,
    cli,
    compute_eta,
    estimate_c3,
    estimate_pl,
    estimate_rho,
    estimate_wgc,
    exact_moments,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
    optimizer,
    problems,
    verify_lemma_bounds,
)
from slsopt import _blas, _store
from slsopt import config as cfgmod
from slsopt.config import (
    PROBLEM_KINDS,
    ExperimentConfig,
    RunPaths,
    build_direction_state,
    build_linesearch_params,
    build_problem,
    build_run_config,
    build_sgr_params,
    parse_config,
    parse_spectrum,
    read_config,
    serialize_config,
)
from slsopt.directions import DirectionState, MemoryRows, SgrParams
from slsopt.errors import ConfigError, DomainError, InvalidSpecError
from slsopt.linesearch import ALPHA0_POLICIES, LineSearchParams
from slsopt.optimizer import RunSettings
from slsopt.traceio import CSV_HEADER, read_trace, write_trace

TOY = """
[problem]
kind = least_squares
N = 1
n = 1
seed = 0
spectrum = const:1.0

[direction]
kind = sgd
c1 = 1.0
c2 = 1.0

[linesearch]
gamma = 0.5
delta = 0.5
alpha_max = 1.0

[run]
max_iters = 50
trace_every = 1
"""

LS = """
[problem]
kind = least_squares
N = 40
n = 60
seed = 2024
spectrum = const:2.0

[direction]
kind = sgd
c1 = 1.0
c2 = 1.0

[linesearch]
gamma = 0.1
delta = 0.5
alpha_max = 10.0

[run]
max_iters = 3000
grad_tol = 0.0
fgap_tol = 1e-8
trace_every = 10
"""


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_path = st.text("abcXYZ019_./-", max_size=12)

# One strategy of valid values per config key, for the round-trip property.
VALID_SETTINGS = {
    "problem.kind": st.sampled_from(PROBLEM_KINDS),
    "problem.N": st.integers(1, 10**9),
    "problem.n": st.integers(1, 10**9),
    "problem.seed": st.integers(0, 2**63),
    "problem.spectrum": st.sampled_from(["const:1.0", "const:2.0:3", "linear:1:2", "geom:0.5:5.0:4", "1,2,3"]),
    "direction.kind": st.sampled_from(KINDS),
    "direction.beta": st.floats(allow_nan=False, allow_infinity=False),
    "direction.cg_variant": st.sampled_from(CG_VARIANTS),
    "direction.beta_cap": _positive,
    "direction.epsilon": _positive,
    "direction.c1": _positive,
    "direction.c2": _positive,
    "linesearch.gamma": _unit,
    "linesearch.delta": _unit,
    "linesearch.alpha_max": _positive,
    "linesearch.alpha0_policy": st.sampled_from(ALPHA0_POLICIES),
    "linesearch.max_backtracks": st.integers(1, 10**6),
    "run.max_iters": st.integers(1, 10**9),
    "run.grad_tol": st.floats(min_value=0.0, allow_infinity=False),
    "run.fgap_tol": st.floats(min_value=0.0, allow_infinity=False),
    "run.seed": st.integers(0, 2**63),
    "run.trace_every": st.integers(1, 10**6),
    "run.out_csv": _path,
    "run.out_svg": _path,
}


_word = st.text("abcxyz_:+-019", max_size=12)
_non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
_not_positive = st.floats(max_value=0.0, allow_infinity=False) | _non_finite
_not_unit = st.floats(max_value=0.0) | st.floats(min_value=1.0) | st.just(math.nan)
_negative = st.floats(max_value=-5e-324) | st.just(math.nan)

# One strategy of invalid values per [direction] and [linesearch] key and per
# [run] limit, each invalid with every other key at its default (c1 = 10,
# c2 = 0.1).
INVALID_SETTINGS = {
    "direction.kind": _word.filter(lambda t: t not in KINDS),
    "direction.beta": _non_finite,
    "direction.cg_variant": _word.filter(lambda t: t not in CG_VARIANTS),
    "direction.beta_cap": _not_positive,
    "direction.epsilon": _not_positive,
    "direction.c1": st.floats(max_value=0.1, exclude_max=True) | _non_finite,
    "direction.c2": st.floats(max_value=0.0) | st.floats(min_value=10.0, exclude_min=True) | st.just(math.nan),
    "linesearch.gamma": _not_unit,
    "linesearch.delta": _not_unit,
    "linesearch.alpha_max": _not_positive,
    "linesearch.alpha0_policy": st.just("warm_increase:2") | _word.filter(lambda t: t not in ALPHA0_POLICIES),
    "linesearch.max_backtracks": st.integers(max_value=0),
    "run.max_iters": st.integers(max_value=0),
    "run.grad_tol": _negative,
    "run.fgap_tol": _negative,
    "run.seed": st.integers(max_value=-1),
    "run.trace_every": st.integers(max_value=0),
}

# The section of each ExperimentConfig field, where it is not the field's name.
SECTION_OF = {"sgr": "direction", "paths": "run"}


def _consistent(values):
    """Order c1 and c2 so that 0 < c2 <= c1."""
    c2, c1 = sorted((values["direction.c1"], values["direction.c2"]))
    return {**values, "direction.c1": c1, "direction.c2": c2}


def _text(value):
    return repr(value) if isinstance(value, float) else str(value)


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigFormat:
    def test_parse_applies_defaults(self):
        cfg = parse_config(TOY)
        assert cfg.problem.N == 1
        assert cfg.run.seed == 0
        assert cfg.paths.out_csv == "trace.csv"
        assert cfg.direction.beta == 0.9

    def test_round_trip_is_lossless(self):
        cfg = parse_config(TOY)
        assert parse_config(serialize_config(cfg)) == cfg
        cfg2 = ExperimentConfig.default()
        assert parse_config(serialize_config(cfg2)) == cfg2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(TOY + "\nlearning_rate = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[mystery]\nx = 1\n" + TOY)

    def test_invariant_violation_names_the_key(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(TOY, overrides=["linesearch.gamma=1.5"])

    def test_nan_alpha_max_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="alpha_max"):
            parse_config(TOY, overrides=["linesearch.alpha_max=nan"])

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            parse_config(TOY, overrides=["justakey"])
        with pytest.raises(ConfigError):
            parse_config(TOY, overrides=["noseparator=1"])

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config(TOY, overrides=["run.max_iters=ten"])

    def test_infinite_c1_rejected_at_parse(self):
        # c1 = inf bounds nothing and makes the step floor alpha_low zero
        with pytest.raises(ConfigError, match=r"^direction: need 0 < c2 <= c1 < inf"):
            parse_config(TOY, overrides=["direction.c1=inf"])

    @given(values=st.fixed_dictionaries(VALID_SETTINGS))
    @settings(max_examples=200, deadline=None)
    def test_overrides_round_trip(self, values):
        values = _consistent(values)
        cfg = parse_config("", overrides=[f"{k}={_text(v)}" for k, v in values.items()])
        default, unset, changed = ExperimentConfig.default(), dict(values), {}
        for f in dataclasses.fields(default):
            obj, section = getattr(default, f.name), SECTION_OF.get(f.name, f.name)
            changed[f.name] = dataclasses.replace(
                obj, **{g.name: unset.pop(f"{section}.{g.name}") for g in dataclasses.fields(obj)}
            )
        assert unset == {}  # VALID_SETTINGS names every key once
        assert cfg == ExperimentConfig(**changed)
        assert parse_config(serialize_config(cfg)) == cfg

    @given(values=st.fixed_dictionaries(
        {k: v for k, v in VALID_SETTINGS.items() if k.startswith(("direction.", "linesearch.", "run."))}
    ))
    @settings(max_examples=200, deadline=None)
    def test_direction_and_linesearch_parse_into_their_domain_objects(self, values):
        values = _consistent(values)
        cfg = parse_config("", overrides=[f"{k}={_text(v)}" for k, v in values.items()])
        v = {k.split(".")[1]: value for k, value in values.items()}
        assert cfg.direction == DirectionState(
            kind=v["kind"], beta=v["beta"], cg_variant=v["cg_variant"], beta_cap=v["beta_cap"], epsilon=v["epsilon"]
        )
        assert cfg.sgr == SgrParams(c1=v["c1"], c2=v["c2"])
        assert cfg.linesearch == LineSearchParams(
            gamma=v["gamma"], delta=v["delta"], alpha_max=v["alpha_max"],
            alpha0_policy=v["alpha0_policy"], max_backtracks=v["max_backtracks"],
        )
        assert cfg.run == RunSettings(
            max_iters=v["max_iters"], grad_tol=v["grad_tol"], fgap_tol=v["fgap_tol"], seed=v["seed"],
            trace_every=v["trace_every"],
        )
        assert cfg.paths == RunPaths(out_csv=v["out_csv"], out_svg=v["out_svg"])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_invalid_domain_value_is_the_domain_error_under_its_section(self, data):
        dotted = data.draw(st.sampled_from(sorted(INVALID_SETTINGS)))
        value = data.draw(INVALID_SETTINGS[dotted])
        section, key = dotted.split(".")
        cls = {"direction": DirectionState, "linesearch": LineSearchParams, "run": RunSettings}[section]
        if key in ("c1", "c2"):
            cls = SgrParams
        with pytest.raises((InvalidSpecError, DomainError)) as direct:
            cls(**{key: value})
        with pytest.raises(ConfigError) as parsed:
            parse_config("", overrides=[f"{dotted}={_text(value)}"])
        assert str(parsed.value) == f"{section}: {direct.value}"

    def test_warm_increase_power_rejected(self):
        with pytest.raises(ConfigError, match=r"^linesearch: unknown alpha0 policy 'warm_increase:2'$"):
            parse_config(TOY, overrides=["linesearch.alpha0_policy=warm_increase:2"])

    # configparser would fold a [DEFAULT] section's keys into every section
    @pytest.mark.parametrize(
        "text", ["[DEFAULT]\nseed = 3\n" + TOY, "[DEFAULT]\n", "[DEFAULT]\nmax_iters = 7\n" + TOY]
    )
    def test_default_section_rejected(self, text):
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_config(text)


class TestSpectrumParser:
    def test_const(self):
        s = parse_spectrum("const:2.0", N=5, n=8)
        assert np.array_equal(s, np.full(5, 2.0))

    def test_const_with_count(self):
        assert parse_spectrum("const:1.5:3", N=10, n=10).shape == (3,)

    def test_linear_and_geom(self):
        lin = parse_spectrum("linear:1:2:5", N=10, n=10)
        assert lin[0] == 1.0 and lin[-1] == 2.0
        geo = parse_spectrum("geom:1:4:3", N=10, n=10)
        np.testing.assert_allclose(geo, [1.0, 2.0, 4.0], rtol=1e-12)

    def test_explicit_list(self):
        np.testing.assert_array_equal(parse_spectrum("1,2,3", N=5, n=5), [1.0, 2.0, 3.0])

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_spectrum("const:", N=2, n=2)
        with pytest.raises(ConfigError):
            parse_spectrum("spline:1:2", N=2, n=2)

    @pytest.mark.parametrize("form", ["const:2.0", "linear:1:2", "geom:1:2"])
    def test_count_above_the_rank_cap_rejected_before_allocating(self, form):
        # 10**15 doubles lie beyond a 47-bit address space, so an allocation
        # attempt fails at once instead of touching memory.
        with pytest.raises(ConfigError, match=r"spectrum count 1000000000000000 exceeds .*=5"):
            parse_spectrum(f"{form}:{10**15}", N=5, n=8)


class TestBuilders:
    def test_build_problem_kinds(self):
        ls_cfg = parse_config(LS)
        p = build_problem(ls_cfg)
        assert p.N == 40 and p.n == 60
        nc_cfg = parse_config(TOY, overrides=["problem.kind=nonconvex", "problem.n=3", "problem.N=4"])
        q = build_problem(nc_cfg)
        assert q.N == 4 and q.n == 3 + 9

    def test_build_run_config_carries_sections(self):
        cfg = parse_config(LS, overrides=["run.seed=5"])
        rc = build_run_config(cfg, problem=build_problem(cfg))
        assert rc.run is cfg.run
        assert rc.run.seed == 5
        assert rc.linesearch.gamma == 0.1
        assert rc.sgr.c1 == 1.0


class TestCmdRun:
    def test_toy_run_exits_zero_and_writes_trace(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        out = tmp_path / "t.csv"
        code = cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"])
        assert code == 0
        text = out.read_text()
        assert text.startswith(CSV_HEADER)
        assert len(text.strip().split("\n")) >= 2
        assert "status: converged" in capsys.readouterr().out

    def test_invalid_gamma_exits_one_naming_invariant(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_run(cfg_path, overrides=["linesearch.gamma=1.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "gamma" in err and "(0, 1)" in err

    def test_missing_config_exits_one(self, tmp_path):
        assert cli.cmd_run(str(tmp_path / "nope.ini")) == 1

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LS)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"], seed=7)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LS)
        blobs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"], seed=seed)
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_max_iters_exit_code(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LS)
        out = tmp_path / "m.csv"
        code = cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}", "run.max_iters=5", "run.fgap_tol=0.0"])
        assert code == 2

    def test_stall_exit_code(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path,
            TOY,
        )
        out = tmp_path / "s.csv"
        code = cli.cmd_run(
            cfg_path,
            overrides=[
                f"run.out_csv={out}",
                "problem.spectrum=const:10000.0",
                "linesearch.gamma=0.1",
                "linesearch.alpha_max=10.0",
                "linesearch.max_backtracks=2",
            ],
        )
        assert code == 3

    def test_svg_written_and_self_contained(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LS)
        out_csv = tmp_path / "r.csv"
        out_svg = tmp_path / "r.svg"
        code = cli.cmd_run(
            cfg_path, overrides=[f"run.out_csv={out_csv}", f"run.out_svg={out_svg}"]
        )
        assert code == 0
        svg = out_svg.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "href" not in svg  # no external assets
        assert svg.rstrip().endswith("</svg>")

    def test_environment_does_not_change_the_run(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path, LS)
        out_plain, out_env = tmp_path / "plain.csv", tmp_path / "env.csv"
        assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out_plain}"]) == 0
        monkeypatch.setenv("SLSOPT_RUN__MAX_ITERS", "5")
        monkeypatch.setenv("SLSOPT_RUN__SEED", "9")
        assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out_env}"]) == 0
        assert out_env.read_bytes() == out_plain.read_bytes()


class TestCmdDiagnose:
    def test_least_squares_constants(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, LS)
        code = cli.cmd_diagnose(cfg_path, num_points=40)
        assert code == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().split("\n"):
            if " = " in line:
                key, val = line.split(" = ", 1)
                try:
                    values[key] = float(val)
                except ValueError:
                    values[key] = val
        cfg = parse_config(LS)
        p = build_problem(cfg)
        assert abs(values["mu_hat"] - p.known.mu) <= 1e-6 * p.known.mu
        assert values["rho_hat"] >= 1.0
        assert values["c3_hat"] == 1.0  # plain negative-gradient rule
        assert "eta" in values and "eta_alpha_max" in values

    def test_single_component_rho_is_one(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_diagnose(cfg_path, num_points=10)
        assert code == 0
        out = capsys.readouterr().out
        rho_line = next(ln for ln in out.split("\n") if ln.startswith("rho_hat"))
        assert float(rho_line.split(" = ")[1]) == 1.0

    def test_nonconvex_exits_four(self, tmp_path, capsys):
        # the two-factor model records neither f_star nor L: rho_hat and
        # c3_hat are printed, then the growth and PL estimates are refused
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_diagnose(
            cfg_path, num_points=5, overrides=["problem.kind=nonconvex", "problem.n=2", "problem.N=3"]
        )
        assert code == 4
        out, err = capsys.readouterr()
        assert [line.split(" = ")[0] for line in out.splitlines()] == ["rho_hat", "c3_hat"]
        assert err.startswith("estimator undefined for this instance: ")
        assert "need known f_star and L" in err

    def test_samples_csv(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LS)
        out = tmp_path / "samples.csv"
        code = cli.cmd_diagnose(cfg_path, num_points=5, samples_csv=str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("index,")
        assert len(lines) == 6


    def test_points_below_one_exit_one_before_the_build(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_cfg(tmp_path, LS)

        def no_build(cfg):
            raise AssertionError("instance built for an invalid --points")

        monkeypatch.setattr(cli.cfgmod, "build_problem", no_build)
        for k in (0, -3):
            assert cli.cmd_diagnose(cfg_path, num_points=k) == 1
            assert "--points must be >= 1" in capsys.readouterr().err
        assert cli.main(["diagnose", cfg_path, "--points", "0"]) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_public_estimators(self, tmp_path, capsys, kind):
        # one shared pass per point gives exactly what the per-estimator
        # public functions give on the same points
        cfg_path = write_cfg(tmp_path, LS)
        out = tmp_path / "samples.csv"
        k, seed = 9, 4
        ov = [f"direction.kind={kind}"]
        assert cli.cmd_diagnose(cfg_path, num_points=k, overrides=ov, seed=seed, samples_csv=str(out)) == 0
        printed = [ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines() if " = " in ln]

        cfg = parse_config(LS, overrides=ov + [f"run.seed={seed}"])
        p = build_problem(cfg)
        state = MemoryRows(build_direction_state(cfg), 1, p.n)
        ls, sgr = build_linesearch_params(cfg), build_sgr_params(cfg)
        rng = np.random.default_rng(seed)
        pts = [rng.standard_normal(p.n) for _ in range(k)]

        singles = [exact_moments(p, [x], state)[0] for x in pts]
        plain = exact_moments(p, pts)
        rho_each = [estimate_rho([m])[0] for m in singles]
        c3_each = [estimate_c3([m])[0] for m in singles]
        rho, c3 = estimate_rho(plain)[0], max(c3_each)
        mu, _ = estimate_pl(plain, p.known.f_star)
        wgc, _ = estimate_wgc(plain, p.known.f_star, p.known.L)
        constants = TheoremConstants(
            sgr=sgr, ls=ls, c3=c3, rho=rho, mu=p.known.mu, L=p.known.L, L_max=p.known.L_max,
        )
        eta = compute_eta(constants)
        expected = [
            ("rho_hat", rho), ("c3_hat", c3), ("mu_hat", mu), ("wgc_hat", wgc),
            ("sigma", constants.sigma), ("eta", eta.eta), ("eta_alpha_max", eta.rate),
            ("theorem_hypothesis_ok", str(constants.lemma_applicable).lower()),
            ("rate_certified", str(eta.certified).lower()),
        ]
        if constants.lemma_applicable:
            reps = [verify_lemma_bounds(m, constants) for m in singles]
            expected += [
                ("lemma_norm_min_slack", min(r.norm_slack for r in reps)),
                ("lemma_descent_min_slack", min(r.descent_slack for r in reps)),
            ]
        expected += [
            ("rho_hat_point", str(rho_each.index(max(rho_each)))),
            ("c3_hat_point", str(c3_each.index(c3))),
        ]
        assert [key for key, _ in printed] == [key for key, _ in expected]
        for (key, text), (_, value) in zip(printed, expected):
            assert (float(text) if isinstance(value, float) else text) == value, key

        rows = ["index,f,grad_norm,e_norm_g_sq,var_g,rho_ratio"]
        for i, (x, m) in enumerate(zip(pts, singles)):
            r = p.A @ x - p.b
            f = float((0.5 * r * r).mean())
            gn = float(np.linalg.norm(m.E_g))
            rows.append(f"{i},{f!r},{gn!r},{m.E_norm_g_sq!r},{m.var_g!r},{m.E_norm_g_sq / (gn * gn)!r}")
        assert out.read_text() == "\n".join(rows) + "\n"

    @pytest.mark.parametrize("kind", ["sgd", "adagrad_diag"])
    def test_one_residual_pass_per_point(self, tmp_path, monkeypatch, kind):
        # f and every block of gradient (and direction) rows of a point come
        # from one pass over all N residuals
        cfg_path = write_cfg(tmp_path, LS)
        problem = build_problem(parse_config(LS))
        monkeypatch.setattr(cli.cfgmod, "build_problem", lambda cfg: problem)
        passes = []
        residuals = problems.ResidualProblem._residuals

        def counted(self, idx, X):
            if idx is None:
                passes.append(X.copy())
            return residuals(self, idx, X)

        monkeypatch.setattr(problems.ResidualProblem, "_residuals", counted)
        code = cli.cmd_diagnose(
            cfg_path, num_points=7, overrides=[f"direction.kind={kind}"],
            samples_csv=str(tmp_path / "s.csv"),
        )
        assert code == 0
        rng = np.random.default_rng(parse_config(LS).run.seed)
        assert [X.tobytes() for X in passes] == [rng.standard_normal((1, problem.n)).tobytes() for _ in range(7)]


class TestCmdVerify:
    def test_replay_passes(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, LS)
        assert cli.cmd_verify(cfg_path) == 0
        assert "all per-iteration bounds hold" in capsys.readouterr().out

    def test_stall_propagates_exit_three(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_verify(
            cfg_path,
            overrides=[
                "problem.spectrum=const:10000.0",
                "linesearch.gamma=0.1",
                "linesearch.alpha_max=10.0",
                "linesearch.max_backtracks=2",
            ],
        )
        assert code == 3

    def test_tampered_trace_exits_five_naming_row(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, LS)
        out = tmp_path / "v.csv"
        assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"]) == 0
        records = read_trace(out)
        victim = next(r for r in records if r.alpha > 0)
        victim.alpha = victim.alpha / 2.0
        write_trace(out, records)
        capsys.readouterr()
        code = cli.cmd_verify(cfg_path, trace_path=str(out))
        assert code == 5
        err = capsys.readouterr().err
        assert f"k={victim.k}" in err

    def test_non_finite_direction_in_trace_exits_five(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, LS)
        out = tmp_path / "v.csv"
        assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"]) == 0
        records = read_trace(out)
        victim = next(r for r in records if r.alpha > 0)
        victim.d_norm = victim.dTg = float("nan")
        write_trace(out, records)
        capsys.readouterr()
        assert cli.cmd_verify(cfg_path, trace_path=str(out)) == 5
        captured = capsys.readouterr()
        assert f"violation at k={victim.k}: norm_bound" in captured.err
        assert "all per-iteration bounds hold" not in captured.out

    @pytest.mark.parametrize(
        "fields, bound",
        [
            ({"alpha0": 10.0, "alpha": 20.0, "backtracks": -1}, "backtrack_count"),
            ({"alpha0": 50.0, "sgr_pass": True, "restarted": True}, "restart_flag"),
            ({"alpha0": 50.0}, "initial_step"),
        ],
    )
    def test_impossible_row_in_trace_exits_five(self, tmp_path, capsys, fields, bound):
        # each row keeps alpha == alpha0 * delta**j, so only the new checks
        # can reject it
        cfg_path = str(CONFIGS / "least_squares.ini")
        out = tmp_path / "v.csv"
        assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"]) == 0
        records = read_trace(out)
        victim = next(r for r in records if r.alpha > 0)
        for name, value in fields.items():
            setattr(victim, name, value)
        victim.alpha = victim.alpha0 * 0.5**victim.backtracks
        write_trace(out, records)
        capsys.readouterr()
        assert cli.cmd_verify(cfg_path, trace_path=str(out)) == 5
        captured = capsys.readouterr()
        assert captured.err.startswith(f"violation at k={victim.k}: {bound}: ")
        assert "all per-iteration bounds hold" not in captured.out

    @pytest.mark.parametrize("column, bad", [(0, "x"), (9, "1.5")])
    def test_malformed_number_in_trace_exits_one_naming_line(self, tmp_path, capsys, column, bad):
        # k = x, or backtracks = 1.5, on the second data row (file line 3)
        cfg_path = write_cfg(tmp_path, LS)
        out = tmp_path / "v.csv"
        assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"]) == 0
        lines = out.read_text().split("\n")
        parts = lines[2].split(",")
        parts[column] = bad
        lines[2] = ",".join(parts)
        out.write_text("\n".join(lines))
        capsys.readouterr()
        assert cli.cmd_verify(cfg_path, trace_path=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: trace line 3: ")
        assert repr(bad) in err

    def test_nonconvex_lacks_constants(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_verify(
            cfg_path, overrides=["problem.kind=nonconvex", "problem.n=2", "problem.N=3"]
        )
        assert code == 1


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


class TestRoundingLevelResiduals:
    """Searches at a sampled residual within rounding of zero.

    Along the ray, the batch value is an exact polynomial in the step whose
    coefficients scale with the residual, so the decrease test decides on the
    same grid point at any residual scale instead of on rounding noise.
    """

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_least_squares_verify_passes(self, seed, capsys):
        assert cli.cmd_verify(str(CONFIGS / "least_squares.ini"), seed=seed) == 0
        assert "all per-iteration bounds hold" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", range(5))
    def test_toy_converges_in_one_accepted_step(self, seed):
        cfg = read_config(str(CONFIGS / "toy.ini"), overrides=[f"run.seed={seed}"])
        result = optimizer.run(build_run_config(cfg, problem=build_problem(cfg)))
        assert result.status == "converged_grad"
        [step] = result.trajectory
        assert (step.alpha, step.backtracks) == (1.0, 0)


class TestOnPathPL:
    """The gradient-domination inequality at the points a run visits."""

    @pytest.mark.parametrize("name", ["least_squares.ini", "momentum.ini"])
    def test_ratio_at_every_trace_point_is_at_least_mu(self, name):
        # ||grad f||^2 / (2 (f - f*)) at each exact sample of the trace; with
        # equal singular values the bound mu = 4/N is attained, so only
        # rounding separates the two
        cfg = read_config(str(CONFIGS / name))
        problem = build_problem(cfg)
        known = problem.known
        result = optimizer.run(build_run_config(cfg, problem=problem))
        points = [r for r in result.trajectory if r.f_full is not None]
        assert len(points) > 100
        for r in points:
            gap = r.f_full - known.f_star
            assert gap > 0.0, r.k
            assert r.grad_full_norm ** 2 / (2.0 * gap) >= known.mu * (1.0 - 1e-12), r.k


class TestDivergenceWitness:
    """A shipped config on which every per-iteration check passes while f grows.

    configs/momentum.ini with the cg recipe: each direction passes the
    (c1, c2) safeguard and each search ends within its backtrack bound, yet
    the exact objective grows. The safeguard gives finite termination and a
    bounded backtrack count; linear convergence needs more, which this run
    lacks (c1 = 10 and beta_cap = 10 allow too large a step times direction
    norm). This pins how the algorithm behaves, not a program defect.
    """

    def test_verify_passes_while_the_objective_grows(self, monkeypatch, capsys):
        results = []
        real = optimizer.run

        def kept(config):
            results.append(real(config))
            return results[-1]

        monkeypatch.setattr(optimizer, "run", kept)
        code = cli.cmd_verify(
            str(CONFIGS / "momentum.ini"), overrides=["direction.kind=cg", "run.max_iters=2000"], seed=0
        )
        assert code == 0
        assert "all per-iteration bounds hold" in capsys.readouterr().out
        [result] = results
        assert result.status == "max_iters"
        f_full = [r.f_full for r in result.trajectory if r.f_full is not None]
        assert f_full[-1] > 1e6 * f_full[0]


class TestCmdSweep:
    def test_writes_one_trace_per_seed(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, LS)
        base = tmp_path / "sweep.csv"
        code = cli.cmd_sweep(
            cfg_path, seeds="0..2", jobs=1, overrides=[f"run.out_csv={base}"]
        )
        assert code == 0
        for s in range(3):
            assert (tmp_path / f"sweep_seed{s}.csv").exists()
        out = capsys.readouterr().out
        assert out.count("status=converged_fgap") == 3

    def test_seed_list_form(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TOY)
        base = tmp_path / "t.csv"
        code = cli.cmd_sweep(cfg_path, seeds="3,5", jobs=1, overrides=[f"run.out_csv={base}"])
        assert code == 0
        assert (tmp_path / "t_seed3.csv").exists()
        assert (tmp_path / "t_seed5.csv").exists()


    def test_seed_trace_equals_run_trace(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LS)
        code = cli.cmd_sweep(cfg_path, seeds="0..2", jobs=1, overrides=[f"run.out_csv={tmp_path / 'sw.csv'}"])
        assert code == 0
        for s in range(3):
            out = tmp_path / f"run{s}.csv"
            assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={out}"], seed=s) == 0
            assert (tmp_path / f"sw_seed{s}.csv").read_bytes() == out.read_bytes()

    def test_one_parse_and_one_run_config_per_sweep(self, tmp_path, monkeypatch):
        calls = {"parse_config": 0, "build_run_config": 0}
        for name in calls:
            original = getattr(cli.cfgmod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli.cfgmod, name, counted)
        cfg_path = write_cfg(tmp_path, TOY)
        assert cli.cmd_sweep(cfg_path, seeds="0..3", jobs=1, overrides=[f"run.out_csv={tmp_path / 't.csv'}"]) == 0
        assert calls == {"parse_config": 1, "build_run_config": 1}

    def test_converged_and_capped_seeds_exit_two(self, tmp_path, capsys):
        # at max_iters=500, seeds 0 and 2 converge (480 and 440 iterations)
        # and seed 1 (540) reaches the cap
        cfg_path = write_cfg(tmp_path, LS)
        code = cli.cmd_sweep(
            cfg_path, seeds="0..2", jobs=1,
            overrides=[f"run.out_csv={tmp_path / 't.csv'}", "run.max_iters=500"],
        )
        assert code == 2
        statuses = [ln.split()[1] for ln in capsys.readouterr().out.splitlines()]
        assert statuses == ["status=converged_fgap", "status=max_iters", "status=converged_fgap"]

    def test_stalled_seed_exits_three(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_sweep(
            cfg_path, seeds="0..1", jobs=1,
            overrides=[
                f"run.out_csv={tmp_path / 't.csv'}",
                "problem.spectrum=const:10000.0",
                "linesearch.gamma=0.1",
                "linesearch.alpha_max=10.0",
                "linesearch.max_backtracks=2",
            ],
        )
        assert code == 3
        assert capsys.readouterr().out.count("status=stalled") == 2

    def test_stalled_and_capped_seeds_exit_three(self, tmp_path, capsys):
        # rows of unequal norm: seed 0 draws one whose search needs more than
        # five backtracks, seed 1 does not within its two iterations
        cfg_path = write_cfg(tmp_path, LS)
        code = cli.cmd_sweep(
            cfg_path, seeds="0..1", jobs=1,
            overrides=[
                f"run.out_csv={tmp_path / 't.csv'}",
                "problem.spectrum=geom:0.5:5.0",
                "linesearch.max_backtracks=5",
                "run.max_iters=2",
            ],
        )
        assert code == 3
        statuses = [ln.split()[1] for ln in capsys.readouterr().out.splitlines()]
        assert statuses == ["status=stalled", "status=max_iters"]

    def test_every_status_has_an_exit_code(self):
        assert set(cli._STATUS_EXIT) == set(optimizer.STATUSES)
        assert cli._STATUS_EXIT["converged_grad"] == cli._STATUS_EXIT["converged_fgap"] == 0
        assert (cli._STATUS_EXIT["max_iters"], cli._STATUS_EXIT["stalled"]) == (2, 3)

    @pytest.mark.parametrize("seeds", ["5..1", "1,,3", "", "a..b", "0..-1", "1,1,2", "3,1,3"])
    def test_bad_seed_specs_exit_one(self, tmp_path, capsys, seeds):
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_sweep(cfg_path, seeds=seeds, jobs=1, overrides=[f"run.out_csv={tmp_path / 't.csv'}"])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("t_seed*.csv"))

    def test_repeated_seed_is_named(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        assert cli.main(["sweep", cfg_path, "--seeds", "3,1,3"]) == 1
        assert "seed 3 appears more than once in '3,1,3'" in capsys.readouterr().err

    def test_groups_split_each_workers_seeds_evenly(self):
        # pure helper: no process pool is started
        assert cli._sweep_groups(list(range(6)), 1, 200) == [[0, 1, 2, 3, 4, 5]]
        assert cli._sweep_groups(list(range(6)), 2, 200) == [[0, 1, 2], [3, 4, 5]]
        assert [len(g) for g in cli._sweep_groups(list(range(20)), 1, 200)] == [7, 7, 6]
        assert [len(g) for g in cli._sweep_groups(list(range(20)), 2, 200)] == [5, 5, 5, 5]
        assert cli._sweep_groups([9, 4], 1, 200) == [[9, 4]]
        for workers in (1, 3):
            for count in (1, 5, 17, 40):
                groups = cli._sweep_groups(list(range(count)), min(workers, count), 200)
                assert [s for g in groups for s in g] == list(range(count))
                assert max(map(len, groups)) <= cli.SWEEP_GROUP
        wide = cli.SWEEP_LOCKSTEP_MAX_N + 1
        assert cli._sweep_groups([0, 1, 2], 1, wide) == [[0], [1], [2]]

    def test_every_group_is_lockstep(self, tmp_path, monkeypatch):
        calls = []
        for name in ("run", "run_many"):
            original = getattr(cli.optimizer, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cli.optimizer, name, counted)
        cfg_path = write_cfg(tmp_path, LS)
        out = f"run.out_csv={tmp_path / 't.csv'}"
        # every group goes through run_many, a group of one included
        assert cli.cmd_sweep(cfg_path, seeds="4", jobs=1, overrides=[out]) == 0
        assert calls == ["run_many"]
        assert cli.cmd_sweep(cfg_path, seeds="0..2", jobs=1, overrides=[out]) == 0
        assert calls == ["run_many", "run_many"]

    def test_reversed_range_names_the_range(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        assert cli.main(["sweep", cfg_path, "--seeds", "5..1"]) == 1
        assert "'5..1' is empty" in capsys.readouterr().err

    def test_jobs_below_one_exit_one(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TOY)
        assert cli.cmd_sweep(cfg_path, seeds="0..1", jobs=0) == 1

    def test_worker_count_is_capped_at_cpu_count(self):
        # pure helper: no process pool is started
        assert cli._sweep_workers(10**6, 10**6, 4) == 4
        assert cli._sweep_workers(10**9, 3, 64) == 3
        assert cli._sweep_workers(None, 10**6, 8) == 8
        assert cli._sweep_workers(None, 2, 8) == 2
        assert cli._sweep_workers(10**6, 10**6, None) == 1
        assert cli._sweep_workers(2, 10, 8) == 2
        with pytest.raises(ConfigError):
            cli._sweep_workers(0, 10, 8)


class TestMainWiring:
    def test_run_subcommand(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TOY)
        out = tmp_path / "m.csv"
        assert cli.main(["run", cfg_path, "--override", f"run.out_csv={out}"]) == 0
        assert out.exists()

    def test_verify_subcommand(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LS)
        assert cli.main(["verify", cfg_path]) == 0

    @pytest.mark.parametrize("command", ["run", "sweep", "diagnose"])
    def test_unwritable_output_path_exits_one(self, tmp_path, capsys, command):
        # the write fails after the work has run; it must not escape as a traceback
        cfg_path = write_cfg(tmp_path, TOY)
        missing = tmp_path / "no_such_dir" / "out.csv"
        argv = {
            "run": ["run", cfg_path, "--override", f"run.out_csv={missing}"],
            "sweep": ["sweep", cfg_path, "--seeds", "0..1", "--jobs", "1", "--override", f"run.out_csv={missing}"],
            "diagnose": ["diagnose", cfg_path, "--points", "2", "--samples-csv", str(missing)],
        }[command]
        assert cli.main(argv) == 1
        assert "config error" in capsys.readouterr().err

    def test_shipped_configs_parse(self):
        import pathlib

        here = pathlib.Path(__file__).resolve().parent.parent / "configs"
        for name in ("toy.ini", "least_squares.ini", "momentum.ini"):
            cfg = read_config(here / name)
            assert isinstance(cfg, ExperimentConfig)


STALLING = [
    "problem.spectrum=const:10000.0",
    "linesearch.gamma=0.1",
    "linesearch.alpha_max=10.0",
    "linesearch.max_backtracks=1",
]


class TestFailFast:
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_infinite_alpha_max_is_a_config_error(self, tmp_path, capsys, command):
        # before, every trial was inf * delta**j = inf and the run stalled
        cfg_path = write_cfg(tmp_path, TOY)
        argv = [command, cfg_path, "--override", "linesearch.alpha_max=inf"]
        if command == "run":
            argv += ["--override", f"run.out_csv={tmp_path / 't.csv'}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: linesearch: alpha_max")

    @staticmethod
    def _forbid_work(monkeypatch):
        """Make every run and moment pass fail the test; return the list of those called."""
        work = []

        def spy(name):
            def called(*args, **kwargs):
                work.append(name)
                raise AssertionError(f"{name} ran although an output path is unwritable")

            return called

        monkeypatch.setattr(cli.optimizer, "run", spy("optimizer.run"))
        monkeypatch.setattr(cli.optimizer, "run_many", spy("optimizer.run_many"))
        monkeypatch.setattr(cli.diagnostics, "exact_moments", spy("diagnostics.exact_moments"))
        return work

    @staticmethod
    def _argv(where, cfg_path, tmp_path, out):
        """The command line that writes out as the output named by where."""
        return {
            "run_csv": ["run", cfg_path, "--override", f"run.out_csv={out}"],
            "run_svg": [
                "run", cfg_path,
                "--override", f"run.out_csv={tmp_path / 'ok.csv'}",
                "--override", f"run.out_svg={out}",
            ],
            "sweep": ["sweep", cfg_path, "--seeds", "0..2", "--jobs", "1", "--override", f"run.out_csv={out}"],
            "diagnose": ["diagnose", cfg_path, "--points", "3", "--samples-csv", str(out)],
        }[where]

    @pytest.mark.parametrize("where", ["run_csv", "run_svg", "sweep", "diagnose"])
    def test_missing_output_directory_exits_before_the_work(self, tmp_path, capsys, monkeypatch, where):
        cfg_path = write_cfg(tmp_path, LS)
        work = self._forbid_work(monkeypatch)
        assert cli.main(self._argv(where, cfg_path, tmp_path, tmp_path / "no_such_dir" / "out.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "no_such_dir" in err
        assert work == []

    @pytest.mark.parametrize("where", ["run_csv", "run_svg", "sweep", "diagnose"])
    def test_output_path_that_is_a_directory_exits_before_the_work(self, tmp_path, capsys, monkeypatch, where):
        cfg_path = write_cfg(tmp_path, LS)
        # a sweep writes out_seed<s>.csv; its first seed's path is the directory
        directory = tmp_path / ("out_seed0.csv" if where == "sweep" else "out.csv")
        directory.mkdir()
        work = self._forbid_work(monkeypatch)
        assert cli.main(self._argv(where, cfg_path, tmp_path, tmp_path / "out.csv")) == 1
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {directory}: it is a directory\n"
        assert work == []


class TestStallDetails:
    def test_run_prints_the_failed_search(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        code = cli.cmd_run(cfg_path, overrides=STALLING + [f"run.out_csv={tmp_path / 's.csv'}"])
        assert code == 3
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("status: stalled")
        assert lines[at + 1] == "stall: alpha0=10.0 last_alpha=5.0 trials=2"

    def test_verify_prints_the_same_line(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TOY)
        assert cli.cmd_verify(cfg_path, overrides=STALLING) == 3
        assert "stall: alpha0=10.0 last_alpha=5.0 trials=2" in capsys.readouterr().err.splitlines()


class TestRejectedInputs:
    """Inputs no run can use end in exit 1 and one config-error line."""

    def _config_error(self, capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        return err

    def test_nan_momentum_beta(self, capsys):
        err = self._config_error(
            capsys, ["run", str(CONFIGS / "momentum.ini"), "--override", "direction.beta=nan"]
        )
        assert "beta must be finite" in err

    def test_negative_run_seed(self, capsys):
        err = self._config_error(capsys, ["run", str(CONFIGS / "toy.ini"), "--seed", "-1"])
        assert err == "config error: run: seed must be >= 0, got -1\n"

    def test_negative_problem_seed(self, capsys):
        err = self._config_error(
            capsys, ["run", str(CONFIGS / "toy.ini"), "--override", "problem.seed=-1"]
        )
        assert err == "config error: problem: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "override, message",
        [
            ("problem.kind=convex", "kind must be one of ('least_squares', 'nonconvex'), got 'convex'"),
            ("problem.N=0", "N must be >= 1, got 0"),
            ("problem.n=0", "n must be >= 1, got 0"),
            ("problem.seed=-2", "seed must be >= 0, got -2"),
        ],
    )
    def test_problem_spec_error_names_its_section(self, capsys, override, message):
        # ProblemConfig raises a domain error, which the parse wraps as every
        # section's: "<section>: <message>"
        err = self._config_error(capsys, ["run", str(CONFIGS / "toy.ini"), "--override", override])
        assert err == f"config error: problem: {message}\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("key", ["grad_tol", "fgap_tol"])
    def test_nan_tolerance_rejected_before_the_build(self, tmp_path, capsys, monkeypatch, command, key):
        def no_build(cfg):
            raise AssertionError("the instance was built")

        monkeypatch.setattr(cli.cfgmod, "build_problem", no_build)
        argv = [command, str(CONFIGS / "least_squares.ini"), "--override", f"run.{key}=nan"]
        argv += ["--override", f"run.out_csv={tmp_path / 't.csv'}"]
        if command == "sweep":
            argv += ["--seeds", "0..1", "--jobs", "1"]
        err = self._config_error(capsys, argv)
        assert err.startswith(f"config error: run: {key} must be >= 0")

    def test_infinite_c1_rejected_before_the_replay(self, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the run was replayed")

        monkeypatch.setattr(cli.optimizer, "run", no_run)
        err = self._config_error(
            capsys,
            ["verify", str(CONFIGS / "momentum.ini"), "--override", "direction.c1=inf",
             "--override", "run.max_iters=20"],
        )
        assert err.startswith("config error: direction: need 0 < c2 <= c1 < inf")

    def test_negative_sweep_seeds_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_build(cfg):
            raise AssertionError("the instance was built")

        monkeypatch.setattr(cli.cfgmod, "build_problem", no_build)
        out = tmp_path / "t.csv"
        err = self._config_error(
            capsys, ["sweep", str(CONFIGS / "toy.ini"), "--seeds=-2..-1", "--override", f"run.out_csv={out}"]
        )
        assert "seeds must be >= 0" in err
        assert not list(tmp_path.glob("t_seed*.csv"))

    @pytest.mark.parametrize("spec", [f"const:2.0:{10**15}", f"linear:1:2:{10**15}"])
    def test_spectrum_count_beyond_the_rank_cap(self, tmp_path, capsys, spec):
        err = self._config_error(
            capsys,
            ["run", str(CONFIGS / "least_squares.ini"), "--override", f"problem.spectrum={spec}",
             "--override", f"run.out_csv={tmp_path / 't.csv'}"],
        )
        assert f"spectrum count {10**15}" in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe[problem]\n")
        err = self._config_error(capsys, ["run", str(path)])
        assert f"config {path} is not UTF-8 text" in err

    def test_trace_that_is_not_utf8(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_bytes(CSV_HEADER.encode() + b"\n\xff\xfe\n")
        err = self._config_error(
            capsys, ["verify", str(CONFIGS / "least_squares.ini"), "--trace", str(trace)]
        )
        assert f"trace {trace} is not UTF-8 text" in err


@pytest.fixture
def empty_cache(monkeypatch):
    """No instance kept from an earlier test: the next build_problem builds."""
    monkeypatch.setattr(cfgmod, "_last_built", None)


def _instance_bytes(p):
    return p.A.tobytes(), p.b.tobytes(), p.known.x_star.tobytes()


@pytest.mark.usefixtures("empty_cache")
class TestSharedInstance:
    """build_problem keeps the instance it built last and returns it for the same spec."""

    def test_same_spec_returns_the_same_object(self):
        cfg = parse_config(LS)
        assert build_problem(cfg) is build_problem(parse_config(LS, overrides=["run.seed=3"]))

    @pytest.mark.parametrize(
        "override",
        ["problem.kind=nonconvex", "problem.N=30", "problem.n=50", "problem.seed=7", "problem.spectrum=const:3.0"],
    )
    def test_each_key_field_gives_a_new_instance(self, override):
        first = build_problem(parse_config(LS))
        cfg = parse_config(LS, overrides=[override])
        second = build_problem(cfg)
        assert second is not first
        p = cfg.problem
        if p.kind == "least_squares":
            direct = gen_interpolating_least_squares(p.N, p.n, p.seed, parse_spectrum(p.spectrum, p.N, p.n))
        else:
            direct = gen_nonconvex_interpolating(p.N, p.n, p.n, p.seed)
        assert _instance_bytes(second) == _instance_bytes(direct)

    def test_equal_parsed_spectra_share_the_instance(self):
        a = build_problem(parse_config(LS, overrides=["problem.spectrum=const:2.0"]))
        assert build_problem(parse_config(LS, overrides=["problem.spectrum=const:2:40"])) is a

    def test_failed_build_is_rebuilt_and_raises_again(self, monkeypatch):
        calls = []
        generate = problems.gen_interpolating_least_squares

        def counted(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(problems, "gen_interpolating_least_squares", counted)
        cfg = parse_config(LS, overrides=["problem.spectrum=0.0,1.0"])
        for _ in range(2):
            with pytest.raises(ConfigError, match="finite and > 0"):
                build_problem(cfg)
        assert len(calls) == 2

    def test_other_spec_frees_the_kept_instance(self):
        ref = weakref.ref(build_problem(parse_config(LS)))
        build_problem(parse_config(LS, overrides=["problem.seed=1"]))
        gc.collect()
        assert ref() is None

    def test_under_parametrized_warning_on_every_call(self):
        cfg = parse_config(LS, overrides=["problem.N=60", "problem.n=40"])
        kept = []
        for _ in range(2):
            with pytest.warns(UserWarning, match="n < N"):
                kept.append(build_problem(cfg))
        assert kept[0] is kept[1]

    def test_threads_alternating_specs_each_get_their_own_instance(self):
        # More threads than cores, switching often, each alternating two
        # specs: a torn read of the kept instance would hand one thread the
        # other spec's instance, or raise. Each switch reads the store, so
        # threads also load and publish entries at once: np.load's header
        # parse can raise SystemError in two threads at once, so the store
        # loads under a lock.
        cfgs = [parse_config(LS, overrides=["problem.N=3", "problem.n=4", f"problem.seed={s}"]) for s in (1, 2)]
        want = [_instance_bytes(build_problem(c)) for c in cfgs]
        wrong, errors = [], []

        def work(t):
            try:
                for i in range(50):
                    k = (i + t) % 2
                    if _instance_bytes(build_problem(cfgs[k])) != want[k]:
                        wrong.append((t, i))
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and wrong == []

    def test_repeat_commands_write_the_same_bytes(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, LS)
        outputs = []
        for i in range(2):
            samples, trace = tmp_path / f"samples{i}.csv", tmp_path / f"trace{i}.csv"
            assert cli.cmd_diagnose(cfg_path, num_points=4, samples_csv=str(samples)) == 0
            stdout = capsys.readouterr().out.replace(str(samples), "SAMPLES")
            assert cli.cmd_run(cfg_path, overrides=[f"run.out_csv={trace}"]) == 0
            capsys.readouterr()
            outputs.append((stdout, samples.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]


# An under-parametrized least-squares spec, which warns, and a two-factor spec.
STORE_SPECS = {
    "least_squares": ["problem.N=60", "problem.n=40"],
    "nonconvex": ["problem.kind=nonconvex", "problem.N=12", "problem.n=5"],
}


def _spy_generators(monkeypatch):
    """Count calls of both generators; returns the list of their names, one per call."""
    calls = []
    for name in ("gen_interpolating_least_squares", "gen_nonconvex_interpolating"):

        def counted(*args, _real=getattr(problems, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(problems, name, counted)
    return calls


def _build_recording(cfg, fresh=True):
    """build_problem(cfg), with nothing kept in the process if fresh, and the warnings it issued."""
    if fresh:
        cfgmod._last_built = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        problem = build_problem(cfg)
    return problem, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _known_hex(p):
    k = p.known
    return [None if v is None else v.hex() for v in (k.L, k.L_max, k.mu, k.f_star)]


def _entries(store):
    """Each entry as "generation/spec", relative to the store's root."""
    return sorted(str(p.relative_to(store)) for p in store.glob("*/*"))


@pytest.mark.usefixtures("empty_cache")
class TestInstanceStore:
    """A spec no instance is kept for in the process is read from the instance store."""

    @pytest.mark.parametrize("kind", sorted(STORE_SPECS))
    def test_warm_build_is_the_cold_build(self, kind, instance_store, monkeypatch):
        cfg = parse_config(LS, overrides=STORE_SPECS[kind])
        cold, cold_warnings = _build_recording(cfg)
        assert len(_entries(instance_store)) == 1
        calls = _spy_generators(monkeypatch)
        warm, warm_warnings = _build_recording(cfg)
        kept, kept_warnings = _build_recording(cfg, fresh=False)
        assert calls == []
        assert kept is warm and warm is not cold and type(warm) is type(cold)
        assert _instance_bytes(warm) == _instance_bytes(cold)
        assert _known_hex(warm) == _known_hex(cold)
        flags = [a.flags.writeable for p in (cold, warm) for a in (p.A, p.b, p.known.x_star)]
        assert flags == [False] * 6
        # one warning site: generated, stored and kept read the same
        assert len(cold_warnings) == (kind == "least_squares")
        assert warm_warnings == cold_warnings and kept_warnings == cold_warnings

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_entry_is_rebuilt_and_replaced(self, damage, instance_store, monkeypatch, capsys):
        cfg = parse_config(LS)
        cold, _ = _build_recording(cfg)
        (entry,) = _entries(instance_store)
        path = instance_store / entry / "A.npy"
        intact = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(intact[: len(intact) // 2])
        else:
            flipped = bytearray(intact)
            # the last bit of A's last float: the instance still validates,
            # so only the payload digest sees it
            flipped[-8] ^= 0x01
            path.write_bytes(bytes(flipped))
        calls = _spy_generators(monkeypatch)
        rebuilt, _ = _build_recording(cfg)
        assert calls == ["gen_interpolating_least_squares"]
        assert _instance_bytes(rebuilt) == _instance_bytes(cold)
        assert _entries(instance_store) == [entry] and path.read_bytes() == intact
        _build_recording(cfg)
        assert len(calls) == 1
        assert capsys.readouterr() == ("", "")

    def test_store_root_that_is_a_file_builds(self, instance_store, monkeypatch, capsys):
        instance_store.parent.mkdir(parents=True)
        instance_store.write_text("not a directory")
        calls = _spy_generators(monkeypatch)
        cfg = parse_config(LS)
        built = [_build_recording(cfg) for _ in range(2)]
        assert len(calls) == 2
        direct = gen_interpolating_least_squares(40, 60, 2024, np.full(40, 2.0))
        for problem, caught in built:
            assert _instance_bytes(problem) == _instance_bytes(direct) and caught == []
        assert instance_store.read_text() == "not a directory"
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "change",
        ["problem.kind=nonconvex", "problem.N=30", "problem.n=50", "problem.seed=7",
         "problem.spectrum=const:3.0", "numpy version", "source digest", "core name"],
    )
    def test_each_key_field_misses(self, change, instance_store, monkeypatch):
        _build_recording(parse_config(LS))
        (first,) = _entries(instance_store)
        overrides = [change] if change.startswith("problem.") else []
        if change == "numpy version":
            monkeypatch.setattr(np, "__version__", "0.0.0")
        elif change == "source digest":
            monkeypatch.setattr(_store, "_source_digest", lambda: "0" * 64)
        elif change == "core name":
            if _blas.build() is None:
                pytest.skip("numpy is not linked to a bundled OpenBLAS that names its core")
            fns = {**_blas._library(), "get_corename": lambda: b"OtherCore"}
            monkeypatch.setattr(_blas, "_library", lambda: fns)
            monkeypatch.setattr(_blas, "build", functools.cache(_blas.build.__wrapped__))
            assert _blas.build().endswith("; core OtherCore")
        calls = _spy_generators(monkeypatch)
        _build_recording(parse_config(LS, overrides=overrides))
        assert len(calls) == 1
        entries = _entries(instance_store)
        if overrides:
            # another spec of the same generation: both entries stay
            assert len(entries) == 2 and first in entries
            assert len({e.split("/")[0] for e in entries}) == 1
        else:
            # a new generation: publishing removed the one no process reads
            assert len(entries) == 1 and entries[0].split("/")[0] != first.split("/")[0]

    def test_publishing_removes_abandoned_temporary_directories(self, instance_store):
        _build_recording(parse_config(LS))
        (first,) = _entries(instance_store)
        generation = instance_store / first.split("/")[0]
        abandoned, in_progress = generation / ".tmp-abandoned", generation / ".tmp-in-progress"
        for d in (abandoned, in_progress):
            d.mkdir()
            (d / "A.npy").write_bytes(b"partial")
        hour_ago = time.time() - 3601.0
        os.utime(abandoned, (hour_ago, hour_ago))
        _build_recording(parse_config(LS))  # a hit removes nothing
        assert abandoned.exists()
        _build_recording(parse_config(LS, overrides=["problem.seed=7"]))
        assert not abandoned.exists() and in_progress.exists()
        assert len(_entries(instance_store)) == 3  # two entries and the writer's directory
