import dataclasses
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slsopt import (
    KINDS,
    DirectionState,
    KnownConstants,
    LeastSquaresProblem,
    LineSearchParams,
    ResidualProblem,
    RunConfig,
    SgrParams,
    TwoFactorProblem,
    contraction_estimate,
    fit_geometric_rate,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
    run,
    verify_trace_bounds,
)
from slsopt import cli, optimizer
from slsopt.config import build_problem, build_run_config, read_config
from slsopt.directions import MemoryRows
from slsopt.errors import (
    CertificateError,
    ConfigError,
    InsufficientDataError,
    LineSearchStallError,
    NumericDomainError,
    SlsoptError,
    UnsatisfiableSafeguardError,
)
from slsopt.linesearch import ALPHA0_POLICIES
from slsopt.optimizer import IterationRecord
from slsopt.problems import _all_finite
from slsopt.traceio import trace_to_csv

from conftest import reference_run
from one_gradient import Memory, safeguarded_direction


def unit_quadratic():
    """Single component f(x) = x^2 / 2 with minimizer at the origin."""
    return LeastSquaresProblem(A=np.array([[1.0]]), b=np.array([0.0]))


def small_instance(seed=5):
    return gen_interpolating_least_squares(8, 12, seed=seed, singular_values=np.full(8, 2.0))


def base_config(problem, **kw):
    defaults = dict(
        problem=problem,
        direction=DirectionState(kind="sgd"),
        linesearch=LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0),
        sgr=SgrParams(c1=1.0, c2=1.0),
        max_iters=200,
        seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRun:
    def test_unit_quadratic_converges_in_one_step(self):
        cfg = base_config(
            unit_quadratic(),
            linesearch=LineSearchParams(gamma=0.5, delta=0.5, alpha_max=1.0),
            x0=np.array([1.0]),
            trace_full_oracle_every=1,
        )
        res = run(cfg)
        assert res.status == "converged_grad"
        assert res.final_x[0] == 0.0
        steps = [r for r in res.trajectory if r.alpha > 0]
        assert len(steps) == 1
        assert steps[0].alpha == 1.0
        assert steps[0].backtracks == 0

    def test_start_at_minimizer_stops_immediately(self):
        p = small_instance()
        cfg = base_config(p, x0=p.known.x_star)
        res = run(cfg)
        assert res.status == "converged_grad"
        assert res.trajectory == []
        assert np.array_equal(res.final_x, p.known.x_star)

    def test_interpolating_run_reaches_fgap(self):
        p = small_instance()
        cfg = base_config(p, max_iters=2000, fgap_tol=1e-8, grad_tol=0.0)
        res = run(cfg)
        assert res.status == "converged_fgap"

    def test_determinism_field_by_field(self):
        p = small_instance()
        results = [
            run(base_config(p, direction=DirectionState(kind="momentum", beta=0.9),
                            sgr=SgrParams(c1=10.0, c2=0.1), max_iters=150, seed=42))
            for _ in range(2)
        ]
        assert results[0].trajectory == results[1].trajectory
        assert np.array_equal(results[0].final_x, results[1].final_x)
        assert results[0].status == results[1].status

    def test_positive_step_whenever_gradient_nonzero(self):
        p = small_instance()
        res = run(base_config(p, max_iters=300))
        assert res.trajectory
        for r in res.trajectory:
            if r.g_batch_norm > 0:
                assert r.alpha > 0

    def test_safeguard_soundness_on_every_record(self):
        p = small_instance()
        sgr = SgrParams(c1=10.0, c2=0.1)
        for kind in ("momentum", "cg"):
            res = run(
                base_config(p, direction=DirectionState(kind=kind, beta=0.9, beta_cap=0.3),
                            sgr=sgr, max_iters=400, seed=3)
            )
            for r in res.trajectory:
                gn2 = r.g_batch_norm * r.g_batch_norm
                assert r.dTg <= -sgr.c2 * gn2 * (1.0 - 1e-12)
                assert r.d_norm <= sgr.c1 * r.g_batch_norm * (1.0 + 1e-12)

    def test_full_oracle_logged_periodically(self):
        p = small_instance()
        res = run(base_config(p, max_iters=55, trace_full_oracle_every=10,
                              grad_tol=0.0, fgap_tol=0.0))
        for r in res.trajectory:
            if r.k % 10 == 0:
                assert r.f_full is not None and r.grad_full_norm is not None
            elif r.g_batch_norm > 0:
                assert r.f_full is None

    def test_stall_aborts_with_status(self):
        stiff = LeastSquaresProblem(A=np.array([[1e4]]), b=np.array([0.0]))
        cfg = base_config(
            stiff,
            linesearch=LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0, max_backtracks=2),
            x0=np.array([1.0]),
            grad_tol=0.0,
            fgap_tol=0.0,
        )
        res = run(cfg)
        assert res.status == "stalled"

    def test_stalled_result_carries_the_search_error(self):
        stiff = LeastSquaresProblem(A=np.array([[1e4]]), b=np.array([0.0]))
        cfg = base_config(
            stiff,
            linesearch=LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0, max_backtracks=1),
            x0=np.array([1.0]),
            grad_tol=0.0,
            fgap_tol=0.0,
        )
        res = run(cfg)
        assert res.status == "stalled"
        assert isinstance(res.stall, LineSearchStallError)
        assert (res.stall.alpha0, res.stall.last_alpha, res.stall.trials) == (10.0, 5.0, 2)
        assert run(base_config(unit_quadratic(), x0=np.array([1.0]))).stall is None

    def test_stationary_batch_records_zero_step_and_continues(self):
        # f_1 = (x - 1)^2 / 2 and f_2 = (x + 1)^2 / 2: at x = 1 the first
        # component is exactly minimized but f is not
        p = LeastSquaresProblem(A=np.array([[1.0], [1.0]]), b=np.array([1.0, -1.0]))
        hit = None
        for seed in range(40):
            # k = 0 is the only trace point, so an exact sample at k = 1 is
            # the zero-gradient path's own
            cfg = base_config(p, x0=np.array([1.0]), max_iters=5, seed=seed,
                              grad_tol=0.0, fgap_tol=0.0, trace_full_oracle_every=100)
            res = run(cfg)
            if all(r.g_batch_norm == 0.0 for r in res.trajectory[:2]):
                hit = res
                break
        assert hit is not None, "no seed drew the stationary component twice first"
        for rec in hit.trajectory[:2]:
            assert rec.alpha == 0.0
            assert rec.backtracks == 0
            assert rec.f_full is not None  # forced exact check
        assert len(hit.trajectory) > 2  # run continued past the stationary batches

    def test_warm_increase_policy_grows_initial_trials(self):
        p = small_instance()
        ls = LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0,
                              alpha0_policy="warm_increase", warm_power=1)
        res = run(base_config(p, linesearch=ls, max_iters=100, grad_tol=0.0, fgap_tol=0.0))
        assert res.trajectory[0].alpha0 == 10.0  # first search starts at the cap
        for prev, rec in zip(res.trajectory, res.trajectory[1:]):
            assert 0.0 < rec.alpha0 <= ls.alpha_max
            expected = min(ls.alpha_max, prev.alpha / ls.delta)
            assert rec.alpha0 == expected

    def test_config_validation(self):
        p = unit_quadratic()
        with pytest.raises(ConfigError):
            run(base_config(p, max_iters=0))
        with pytest.raises(ConfigError):
            run(base_config(p, grad_tol=-1.0))
        with pytest.raises(ConfigError):
            run(base_config(p, trace_full_oracle_every=0))
        with pytest.raises(UnsatisfiableSafeguardError):
            run(base_config(p, sgr=SgrParams(c1=0.5, c2=0.2)))
        # each limit is checked when the config is built, and NaN fails it
        for field in ("max_iters", "grad_tol", "fgap_tol", "trace_full_oracle_every"):
            with pytest.raises(ConfigError, match="must be >= "):
                base_config(p, **{field: float("nan")})


def counted_run(monkeypatch, config):
    """run(config) on its least-squares problem, counting batch evaluations and trials.

    Returns (result, batch_values, searches): the value 0.5 r0^2 of each
    row of each batch_eval_rows call, and for each search the phi values it
    asked for, in order. phi is wrapped where optimizer.backtrack receives
    it.
    """
    batch_values, searches = [], []
    problem = config.problem

    class Counted(LeastSquaresProblem):
        def batch_eval_rows(self, idx, X):
            R0, G, ray_rows = super().batch_eval_rows(idx, X)
            batch_values.extend(0.5 * r0 * r0 for r0 in R0.tolist())
            return R0, G, ray_rows

    counted = Counted(problem.A, problem.b, problem.known)
    real = optimizer.backtrack

    def recorded(phi, slope, params, alpha0, f_x):
        trials = []
        searches.append(trials)

        def counted_phi(a):
            trials.append(phi(a))
            return trials[-1]

        return real(counted_phi, slope, params, alpha0, f_x)

    monkeypatch.setattr(optimizer, "backtrack", recorded)
    return run(dataclasses.replace(config, problem=counted)), batch_values, searches


class TestEvaluationBudget:
    def test_stochastic_cost_matches_backtrack_counts(self, monkeypatch):
        # the paper's cost model: one batch evaluation and j + 1 trials per
        # searching iteration
        cfg = base_config(small_instance(), max_iters=40, grad_tol=0.0, fgap_tol=0.0)
        res, batch_values, searches = counted_run(monkeypatch, cfg)
        assert len(res.trajectory) == 40
        assert all(r.g_batch_norm > 0 for r in res.trajectory)
        assert batch_values == [r.f_batch for r in res.trajectory]
        assert [len(t) for t in searches] == [r.backtracks + 1 for r in res.trajectory]
        assert sum(r.backtracks for r in res.trajectory) > 0


class TestRayOracle:
    def test_searches_use_the_closed_form_ray(self):
        calls = {"component_value": 0, "batch_eval_rows": 0}

        class Counted(LeastSquaresProblem):
            def component_value(self, i, x):
                calls["component_value"] += 1
                return super().component_value(i, x)

            def batch_eval_rows(self, idx, X):
                calls["batch_eval_rows"] += 1
                return super().batch_eval_rows(idx, X)

        inner = small_instance()
        counted = Counted(inner.A, inner.b, inner.known)
        res = run(base_config(counted, max_iters=40, grad_tol=0.0, fgap_tol=0.0))
        assert calls == {"component_value": 0, "batch_eval_rows": len(res.trajectory)}

    @pytest.mark.parametrize("family", ["least_squares", "two_factor"])
    def test_one_residual_pass_per_iteration(self, monkeypatch, family):
        # the search ray reuses the residuals of the batch oracle call, so
        # residuals are computed once per iteration and once per exact point
        if family == "least_squares":
            p = small_instance()
        else:
            p = gen_nonconvex_interpolating(6, 3, 4, seed=1)
        calls = []
        real = ResidualProblem._residuals

        def spy(self, idx, X):
            calls.append(idx)
            return real(self, idx, X)

        monkeypatch.setattr(ResidualProblem, "_residuals", spy)
        cfg = base_config(
            p,
            direction=DirectionState(kind="momentum", beta=0.9),
            sgr=SgrParams(c1=10.0, c2=0.1),
            max_iters=40,
            grad_tol=0.0,
            fgap_tol=0.0,
        )
        res = run(cfg)
        assert res.status == "max_iters"
        exact_points = sum(1 for r in res.trajectory if r.f_full is not None)
        assert calls.count(None) == exact_points
        assert len(calls) == len(res.trajectory) + exact_points

    def test_records_carry_no_batch_indices(self):
        assert "batch_indices" not in {f.name for f in dataclasses.fields(IterationRecord)}


class TestMonotoneBatchDecrease:
    def test_accepted_trials_satisfy_decrease_certificate(self, monkeypatch):
        gamma, delta = 0.1, 0.5
        cfg = base_config(small_instance(), max_iters=60, grad_tol=0.0, fgap_tol=0.0,
                          linesearch=LineSearchParams(gamma=gamma, delta=delta, alpha_max=10.0))
        res, batch_values, searches = counted_run(monkeypatch, cfg)
        assert len(batch_values) == len(searches) == len(res.trajectory) == 60
        # each search's last trial is the accepted point, and every earlier
        # trial failed the test
        for r, f_b, trials in zip(res.trajectory, batch_values, searches):
            assert f_b == r.f_batch
            assert len(trials) == r.backtracks + 1
            accepted = trials[-1]
            assert accepted <= r.f_batch + gamma * r.alpha * r.dTg
            assert accepted < r.f_batch
            for j, trial in enumerate(trials[:-1]):
                assert not trial <= r.f_batch + gamma * (r.alpha0 * delta**j) * r.dTg


class TestContractionEstimate:
    def _records(self, ks, gaps, f_star=0.0):
        return [
            IterationRecord(
                k=k, f_full=f_star + g, grad_full_norm=None, f_batch=0.0,
                g_batch_norm=1.0, d_norm=1.0, dTg=-1.0, alpha0=1.0, alpha=1.0,
                backtracks=0, sgr_pass=True, restarted=False,
            )
            for k, g in zip(ks, gaps)
        ]

    def test_exact_geometric_sequence(self):
        ks = np.arange(30)
        rate, r2 = contraction_estimate(self._records(ks, 0.9**ks), f_star=0.0)
        assert rate == pytest.approx(0.9, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_sequence_has_unit_rate(self):
        ks = np.arange(15)
        rate, _ = contraction_estimate(self._records(ks, np.full(15, 0.25)), f_star=0.0)
        assert rate == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_data(self):
        ks = np.arange(5)
        with pytest.raises(InsufficientDataError):
            contraction_estimate(self._records(ks, 0.5**ks), f_star=0.0)

    def test_measured_rate_below_one_on_interpolating_run(self):
        p = small_instance()
        res = run(base_config(p, max_iters=2000, fgap_tol=1e-8, grad_tol=0.0))
        rate, r2 = contraction_estimate(res.trajectory, p.known.f_star)
        assert rate < 1.0
        assert r2 > 0.8

    def test_fit_geometric_rate_with_noise(self):
        rng = np.random.default_rng(0)
        ks = np.arange(200)
        gaps = 0.95**ks * np.exp(0.01 * rng.standard_normal(200))
        rate, r2 = fit_geometric_rate(ks, gaps)
        assert rate == pytest.approx(0.95, rel=1e-3)
        assert r2 > 0.99


class TestVerifyTraceBounds:
    def test_clean_run_passes(self):
        p = small_instance()
        sgr = SgrParams(c1=1.0, c2=1.0)
        ls = LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0)
        res = run(base_config(p, sgr=sgr, linesearch=ls, max_iters=500))
        assert verify_trace_bounds(res.trajectory, sgr, ls, p.known.L_max) is None

    def test_tampered_alpha_detected(self):
        p = small_instance()
        sgr = SgrParams(c1=1.0, c2=1.0)
        ls = LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0)
        res = run(base_config(p, sgr=sgr, linesearch=ls, max_iters=100))
        victim = next(r for r in res.trajectory if r.alpha > 0)
        victim.alpha = victim.alpha / 2.0
        violation = verify_trace_bounds(res.trajectory, sgr, ls, p.known.L_max)
        assert violation is not None
        assert violation.k == victim.k
        assert violation.bound == "step_expression"

    def _searching_row(self):
        p = small_instance()
        sgr = SgrParams(c1=1.0, c2=1.0)
        ls = LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0)
        records = run(base_config(p, sgr=sgr, linesearch=ls, max_iters=100)).trajectory
        victim = next(r for r in records if r.alpha > 0)
        return victim, lambda: verify_trace_bounds(records, sgr, ls, p.known.L_max)

    def test_negative_backtrack_count_detected(self):
        # alpha = alpha0 * delta**-1 holds the step expression exactly
        victim, check = self._searching_row()
        victim.alpha0, victim.backtracks, victim.alpha = 10.0, -1, 20.0
        violation = check()
        assert (violation.k, violation.bound) == (victim.k, "backtrack_count")

    @pytest.mark.parametrize("alpha0", [50.0, 0.0, -10.0, math.inf, math.nan])
    def test_initial_step_outside_its_range_detected(self, alpha0):
        victim, check = self._searching_row()
        victim.alpha0 = alpha0
        victim.alpha = alpha0 * 0.5**victim.backtracks
        violation = check()
        assert (violation.k, violation.bound) == (victim.k, "initial_step")

    @pytest.mark.parametrize("flag", [True, False])
    def test_restart_flags_that_agree_detected(self, flag):
        victim, check = self._searching_row()
        victim.sgr_pass = victim.restarted = flag
        violation = check()
        assert (violation.k, violation.bound) == (victim.k, "restart_flag")

    @given(
        seed=st.integers(0, 2**16),
        N=st.integers(2, 10),
        extra=st.integers(0, 10),
        kind=st.sampled_from(KINDS),
        c1=st.floats(1.0, 20.0),
        c2=st.floats(0.01, 1.0),
        gamma=st.floats(0.01, 0.9),
        delta=st.floats(0.1, 0.9),
        alpha_max=st.floats(0.1, 100.0),
        policy=st.sampled_from(ALPHA0_POLICIES),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_run_passes(self, seed, N, extra, kind, c1, c2, gamma, delta, alpha_max, policy):
        rng = np.random.default_rng(seed)
        p = gen_interpolating_least_squares(
            N, N + extra, seed=seed, singular_values=rng.uniform(0.1, 3.0, size=N)
        )
        sgr = SgrParams(c1=c1, c2=c2)
        ls = LineSearchParams(gamma=gamma, delta=delta, alpha_max=alpha_max, alpha0_policy=policy)
        config = base_config(p, direction=DirectionState(kind=kind), sgr=sgr, linesearch=ls,
                             fgap_tol=1e-8, seed=seed)
        try:
            res = run(config)
        except NumericDomainError:
            # a diverging run ends in the full oracle's finiteness check;
            # it has no status of its own yet
            assume(False)
        assert verify_trace_bounds(res.trajectory, sgr, ls, p.known.L_max) is None


def _break_certificate_at(monkeypatch, k_bad):
    """Make backtrack report an accepted value above the Armijo bound at search k_bad."""
    real = optimizer.backtrack
    searches = []

    def broken(phi, slope, params, alpha0, f_x):
        result = real(phi, slope, params, alpha0, f_x)
        searches.append(result)
        if len(searches) - 1 == k_bad:
            result = dataclasses.replace(result, accepted_f=f_x + 1.0)
        return result

    monkeypatch.setattr(optimizer, "backtrack", broken)
    return searches


class TestArmijoCertificate:
    def test_broken_certificate_raises(self, monkeypatch):
        searches = _break_certificate_at(monkeypatch, 3)
        with pytest.raises(CertificateError, match="k=3"):
            run(base_config(small_instance()))
        assert len(searches) == 4
        assert issubclass(CertificateError, SlsoptError)

    def test_check_survives_stripped_asserts(self, monkeypatch):
        # the check is an explicit raise, not an assert: it also fires when
        # this suite runs under python -O
        _break_certificate_at(monkeypatch, 0)
        with pytest.raises(CertificateError):
            run(base_config(small_instance()))

    def test_intact_certificate_runs_unchanged(self, monkeypatch):
        plain = run(base_config(small_instance()))
        searches = _break_certificate_at(monkeypatch, -1)
        wrapped = run(base_config(small_instance()))
        assert len(searches) > 0
        assert [r.alpha for r in wrapped.trajectory] == [r.alpha for r in plain.trajectory]

    def test_cli_exits_five(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nkind = least_squares\nN = 8\nn = 12\nseed = 1\nspectrum = const:2.0\n"
            "[direction]\nc1 = 1.0\nc2 = 1.0\n"
            f"[run]\nout_csv = {tmp_path / 't.csv'}\n"
        )
        _break_certificate_at(monkeypatch, 0)
        assert cli.main(["run", str(cfg)]) == 5
        assert "armijo_certificate" in capsys.readouterr().err


# -- run_many: seeds in lockstep ---------------------------------------------


def _stall_fields(result):
    s = result.stall
    return None if s is None else (str(s), s.alpha0, s.last_alpha, s.trials)


def assert_same_run(got, want):
    """Equal as run_many promises: trace CSV, status, stall and final_x bytes."""
    assert trace_to_csv(got.trajectory) == trace_to_csv(want.trajectory)
    assert got.status == want.status
    assert _stall_fields(got) == _stall_fields(want)
    assert got.final_x.tobytes() == want.final_x.tobytes()


def assert_lockstep_equals_run(config, seeds):
    """run_many(config, seeds)[i] is reference_run with seeds[i]; returns the results.

    Where some seed's reference run raises NumericDomainError (a diverging
    run), the group raises it too, naming one of those seeds in a group of
    several.
    """
    want, failing = [], set()
    for s in seeds:
        try:
            want.append(reference_run(dataclasses.replace(config, seed=s)))
        except NumericDomainError:
            failing.add(s)
    if failing:
        with pytest.raises(NumericDomainError) as info:
            optimizer.run_many(config, seeds)
        if len(seeds) > 1:
            assert int(str(info.value).split(":")[0].removeprefix("seed=")) in failing
        return None
    got = optimizer.run_many(config, seeds)
    assert len(got) == len(seeds)
    for g, w in zip(got, want):
        assert_same_run(g, w)
    return got


def _zero_gradient_rows(results):
    return sum(1 for r in results for rec in r.trajectory if rec.g_batch_norm == 0.0)


def _restarts(results):
    return sum(1 for r in results for rec in r.trajectory if rec.restarted)


def mixed_endings_config(kind):
    """Orthogonal power-of-two rows: seeds of one group end every way.

    Rows 2 e_i (i < 3) accept alpha = 1/4 and land exactly on zero, so a
    later draw of the same row has a zero gradient. Row 8 e_3 needs
    alpha = 2^-6: from alpha0 = 1 that is six backtracks, one more than
    allowed (a stall), from a warm alpha0 = 1/2 five. A seed that zeroes all
    four rows converges; one that does neither within 12 iterations is
    capped. With c1 = c2 = 1 every memory term restarts.
    """
    problem = LeastSquaresProblem(np.diag([2.0, 2.0, 2.0, 8.0]), np.zeros(4), KnownConstants(f_star=0.0))
    return base_config(
        problem,
        direction=DirectionState(kind=kind, beta=0.9),
        linesearch=LineSearchParams(
            gamma=0.5, delta=0.5, alpha_max=1.0, alpha0_policy="warm_increase", max_backtracks=5
        ),
        max_iters=12,
        trace_full_oracle_every=5,
    )


@st.composite
def _lockstep_config(draw):
    """A small instance of either family with any recipe, policy and limits."""
    seed = draw(st.integers(0, 2**16))
    N = draw(st.integers(1, 8))
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        n = N + draw(st.integers(0, 6))
        problem = gen_interpolating_least_squares(N, n, seed=seed, singular_values=rng.uniform(0.2, 3.0, size=N))
    else:
        problem = gen_nonconvex_interpolating(N, draw(st.integers(1, 3)), draw(st.integers(1, 4)), seed)
    c1, c2 = draw(st.sampled_from([(1.0, 1.0), (10.0, 0.1), (2.0, 0.5)]))
    return base_config(
        problem,
        direction=DirectionState(
            kind=draw(st.sampled_from(KINDS)),
            cg_variant=draw(st.sampled_from(["fr", "pr+"])),
            beta=draw(st.sampled_from([0.5, 0.9])),
        ),
        linesearch=LineSearchParams(
            gamma=draw(st.sampled_from([0.1, 0.5])),
            delta=draw(st.sampled_from([0.3, 0.5])),
            alpha_max=draw(st.sampled_from([1.0, 10.0])),
            alpha0_policy=draw(st.sampled_from(ALPHA0_POLICIES)),
            max_backtracks=draw(st.sampled_from([3, 60])),
        ),
        sgr=SgrParams(c1=c1, c2=c2),
        max_iters=draw(st.integers(1, 80)),
        grad_tol=draw(st.sampled_from([0.0, 1e-10])),
        fgap_tol=1e-8,
        trace_full_oracle_every=draw(st.integers(1, 12)),
    )


class TestRunMany:
    @given(
        config=_lockstep_config(),
        seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=120, deadline=None)
    def test_each_seed_is_its_run_byte_for_byte(self, config, seeds):
        assert_lockstep_equals_run(config, seeds)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_group_ends_every_way(self, kind):
        results = assert_lockstep_equals_run(mixed_endings_config(kind), list(range(8)))
        assert {r.status for r in results} == {"converged_grad", "stalled", "max_iters"}
        assert _zero_gradient_rows(results) > 0
        assert (_restarts(results) > 0) == (kind != "sgd")

    def test_benchmark_sweep_seeds_with_zero_batch_gradients(self):
        # bench/configs/ls_sweep.ini with the benchmark's sgd overrides: two
        # of seeds 20..27 draw a component whose residual is exactly zero
        cfg = read_config(
            pathlib.Path(__file__).resolve().parent.parent / "bench" / "configs" / "ls_sweep.ini",
            overrides=["direction.kind=sgd", "direction.c1=1.0", "direction.c2=1.0"],
        )
        config = build_run_config(cfg, problem=build_problem(cfg))
        results = assert_lockstep_equals_run(config, list(range(20, 28)))
        assert {r.status for r in results} == {"converged_fgap"}
        assert _zero_gradient_rows(results) > 0

    def test_overflowing_gradient_norm_stalls_alike(self):
        # g = 1e308 is finite but g.g overflows: the finiteness check passes
        # on the elementwise test, and the search meets only infinite values.
        # The ray's slope a.d overflows too, without a warning
        # (TestOverflowingSquares::test_overflowing_slopes_stall_without_a_warning).
        p = LeastSquaresProblem(np.array([[1e154]]), np.array([0.0]))
        config = base_config(p, x0=np.array([1.0]))
        results = assert_lockstep_equals_run(config, [0, 1, 2])
        assert [r.status for r in results] == ["stalled"] * 3

    def test_signed_zero_slope_of_one_variable(self):
        # x = 1 - (1/4) 4 lands on 0, so the second draw has g = [0.0] and
        # d = -g = [-0.0], whose slope d . g is the product -0.0 in run
        p = LeastSquaresProblem(np.array([[2.0]]), np.array([0.0]))
        config = base_config(p, x0=np.array([1.0]), linesearch=LineSearchParams(alpha_max=1.0),
                             grad_tol=0.0, fgap_tol=0.0, trace_full_oracle_every=100)
        results = assert_lockstep_equals_run(config, [0, 1])
        assert [math.copysign(1.0, r.trajectory[1].dTg) for r in results] == [-1.0, -1.0]

    def test_groups_of_every_size_up_to_eight(self):
        config = base_config(small_instance(), direction=DirectionState(kind="momentum"),
                             sgr=SgrParams(c1=10.0, c2=0.1), max_iters=60)
        for K in range(1, 9):
            assert_lockstep_equals_run(config, list(range(100, 100 + K)))

    def test_no_seeds_give_no_results(self):
        assert optimizer.run_many(base_config(small_instance()), []) == []
        assert optimizer.run_many(base_config(small_instance()), iter(())) == []

    def test_x0_is_shared_and_not_written(self):
        x0 = np.linspace(-1.0, 1.0, 12)
        kept = x0.copy()
        assert_lockstep_equals_run(base_config(small_instance(), x0=x0, max_iters=40), [0, 1])
        assert x0.tobytes() == kept.tobytes()


def _error_of(call) -> SlsoptError:
    with pytest.raises(SlsoptError) as info:
        call()
    return info.value


def assert_named_run_error(config, seeds, seed) -> SlsoptError:
    """run_many's error is the one reference_run raises for seed, after "seed=S: "; returns it."""
    want = _error_of(lambda: reference_run(dataclasses.replace(config, seed=seed)))
    got = _error_of(lambda: optimizer.run_many(config, seeds))
    assert type(got) is type(want)
    assert str(got) == f"seed={seed}: {want}"
    return got


def _fault_at(monkeypatch, config, seed, search, fault):
    """Make backtrack call fault instead at that search of seed's run.

    The search is found by its f_B, the sampled value it starts from, so the
    fault strikes the same search whether the seed runs alone or in a group.
    """
    real = optimizer.backtrack
    starts = []

    def recorded(phi, slope, params, alpha0, f_x):
        starts.append(f_x)
        return real(phi, slope, params, alpha0, f_x)

    monkeypatch.setattr(optimizer, "backtrack", recorded)
    reference_run(dataclasses.replace(config, seed=seed))
    target = starts[search]
    assert starts.count(target) == 1

    def faulty(phi, slope, params, alpha0, f_x):
        if f_x == target:
            return fault(real, phi, slope, params, alpha0, f_x)
        return real(phi, slope, params, alpha0, f_x)

    monkeypatch.setattr(optimizer, "backtrack", faulty)


class TestRunManyChecks:
    def test_certificate_error_names_its_seed(self, monkeypatch):
        config = base_config(small_instance())

        def above_the_bound(real, phi, slope, params, alpha0, f_x):
            return dataclasses.replace(real(phi, slope, params, alpha0, f_x), accepted_f=f_x + 1.0)

        _fault_at(monkeypatch, config, 11, 1, above_the_bound)
        error = assert_named_run_error(config, [10, 11, 12], 11)
        assert isinstance(error, CertificateError)
        assert str(error).startswith("seed=11: k=1: accepted f=")

    def test_certificate_check_survives_stripped_asserts(self, monkeypatch):
        _break_certificate_at(monkeypatch, 0)
        with pytest.raises(CertificateError, match="^seed=5: "):
            optimizer.run_many(base_config(small_instance()), [5, 6])

    def test_non_finite_evaluations_name_their_seed(self):
        class FiniteFullSum(LeastSquaresProblem):
            def full_value_grad(self, x):
                return 1.0, np.ones(self.n)

        A, b, x0 = np.array([[1e200]]), np.array([0.0]), np.array([1.0])
        cases = [
            (LeastSquaresProblem(A, b), "non-finite full-sum evaluation"),
            (FiniteFullSum(A, b), "non-finite evaluation of component 0"),
        ]
        for problem, message in cases:
            with np.errstate(over="ignore"):
                error = assert_named_run_error(base_config(problem, x0=x0), [3, 4], 3)
            assert isinstance(error, NumericDomainError)
            assert str(error) == f"seed=3: {message}"

    def test_search_errors_name_their_seed(self, monkeypatch):
        config = base_config(small_instance())

        def bad_alpha0(real, phi, slope, params, alpha0, f_x):
            return real(phi, slope, params, -1.0, f_x)

        _fault_at(monkeypatch, config, 8, 0, bad_alpha0)
        error = assert_named_run_error(config, [7, 8], 8)
        assert str(error).startswith("seed=8: alpha0 must be in")

    def test_a_stall_ends_only_its_seed(self):
        config = mixed_endings_config("sgd")
        results = optimizer.run_many(config, list(range(8)))
        stalled = [r for r in results if r.status == "stalled"]
        assert stalled and len(stalled) < len(results)
        longest = max(len(r.trajectory) for r in results)
        assert all(len(r.trajectory) < longest for r in stalled)


class TestLoneRunErrors:
    """run, the group of one seed, raises reference_run's error, with no seed prefix.

    cmd_run maps it to its exit code and one stderr line, as it always has.
    """

    CONFIG = (
        "[problem]\nkind = least_squares\nN = 8\nn = 12\nseed = 5\nspectrum = const:2.0\n"
        "[direction]\nc1 = 1.0\nc2 = 1.0\n"
        "[linesearch]\ngamma = 0.1\ndelta = 0.5\nalpha_max = 10.0\n"
    )

    def _config_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(self.CONFIG + f"[run]\nout_csv = {tmp_path / 't.csv'}\n")
        cfg = read_config(path)
        return str(path), build_run_config(cfg, problem=cli.cfgmod.build_problem(cfg))

    def assert_lone_error(self, path, config, capsys, code, prefix, message):
        want = _error_of(lambda: reference_run(config))
        got = _error_of(lambda: run(config))
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert str(got).startswith(message)
        assert cli.main(["run", path]) == code
        assert capsys.readouterr().err == f"{prefix}: {want}\n"

    def test_certificate_error(self, tmp_path, monkeypatch, capsys):
        path, config = self._config_file(tmp_path)

        def above_the_bound(real, phi, slope, params, alpha0, f_x):
            return dataclasses.replace(real(phi, slope, params, alpha0, f_x), accepted_f=f_x + 1.0)

        _fault_at(monkeypatch, config, 0, 1, above_the_bound)
        self.assert_lone_error(path, config, capsys, 5, "violation: armijo_certificate", "k=1: accepted f=")

    def test_search_error(self, tmp_path, monkeypatch, capsys):
        path, config = self._config_file(tmp_path)

        def bad_alpha0(real, phi, slope, params, alpha0, f_x):
            return real(phi, slope, params, -1.0, f_x)

        _fault_at(monkeypatch, config, 0, 2, bad_alpha0)
        self.assert_lone_error(path, config, capsys, 1, "error", "alpha0 must be in (0, alpha_max=10.0], got -1.0")

    @pytest.mark.parametrize("finite_full_sum", [False, True])
    def test_non_finite_evaluation(self, tmp_path, monkeypatch, capsys, finite_full_sum):
        class FiniteFullSum(LeastSquaresProblem):
            def full_value_grad(self, x):
                return 1.0, np.ones(self.n)

        # a = 1e200 at a start of order 1: every value overflows to inf
        family = FiniteFullSum if finite_full_sum else LeastSquaresProblem
        problem = family(np.array([[1e200]]), np.array([0.0]))
        monkeypatch.setattr(cli.cfgmod, "build_problem", lambda cfg: problem)
        path, config = self._config_file(tmp_path)
        message = "non-finite evaluation of component 0" if finite_full_sum else "non-finite full-sum evaluation"
        with np.errstate(over="ignore"):
            self.assert_lone_error(path, config, capsys, 1, "error", message)


class TestOverflowingSquares:
    """A finite vector whose squared norm overflows measures inf, without a warning."""

    def test_each_measure_is_inf_without_a_warning(self):
        # momentum with beta = 1.5 proposes d = 1.5e308 - 1e308 = 5e307 > 0
        # along g = 1e308: both squares and d . g overflow, the descent bound
        # fails, and the restart measures -g, whose square overflows too
        g = np.array([1e308, 0.0])
        spec = DirectionState(kind="momentum", beta=1.5)
        state = Memory(spec, x_prev=np.array([-1e308, 0.0]), g_prev=g, d_prev=g)
        memory = MemoryRows(spec, 1, 2)
        memory.x_prev[0] = state.x_prev
        memory.has_history[0] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _all_finite(g)
            assert optimizer._norm(g) == math.inf
            out = safeguarded_direction(state, g, np.zeros(2), SgrParams(c1=10.0, c2=0.1))
            D = memory.propose(g[None, :], np.zeros((1, 2)))
            violated, g_norm, d_norm, dTg = memory.safeguard(D, g[None, :], memory.gradient_squares(g[None, :]), SgrParams(c1=10.0, c2=0.1))
        assert out.violated == {"descent_bound"}
        assert (out.g_norm, out.d_norm, out.dTg) == (math.inf, math.inf, -math.inf)
        assert (violated[0], g_norm[0], d_norm[0], dTg[0]) == (out.violated, out.g_norm, out.d_norm, out.dTg)
        assert D[0].tobytes() == out.d.tobytes()

    def test_runs_end_alike_without_a_warning(self):
        # g = 1e159 (x = 1e-139, a = 1e149) is finite but g.g overflows, while
        # the ray's slope a.d = -1e308 does not: every search trial is
        # infinite, and each seed stalls. x = 1e200 has an overflowing x.x and
        # a gradient that rounds to 0, so each seed converges at once.
        cases = [
            (np.array([[1e149]]), np.array([1e-139]), "stalled"),
            (np.array([[1e-200]]), np.array([1e200]), "converged_grad"),
        ]
        for A, x0, status in cases:
            config = base_config(LeastSquaresProblem(A, np.array([0.0]), KnownConstants(f_star=0.0)), x0=x0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results = assert_lockstep_equals_run(config, [0, 1, 2])
            assert [r.status for r in results] == [status] * 3

    @pytest.mark.parametrize(
        "problem, x0",
        [
            # a = 1e154 at x = 1: f = 5e307 and g = 1e308 are finite, but the
            # slope a . d = -1e462 of the ray along d = -g is not
            pytest.param(LeastSquaresProblem(np.array([[1e154]]), np.array([0.0])), np.array([1.0]), id="least_squares"),
            # u = v = 1 and a = 1e154: w = 1, f = 5e307 and g = (1e308, 1e308),
            # but dv a = -1e462 and the slope overflow
            pytest.param(TwoFactorProblem(1, 1, np.array([[1e154]]), np.array([0.0])), np.array([1.0, 1.0]), id="two_factor"),
        ],
    )
    def test_overflowing_slopes_stall_without_a_warning(self, problem, x0):
        # every trial of the search is infinite, which rejects it: each seed
        # stalls, in run and in run_many alike, and nothing warns
        config = base_config(problem, x0=x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = assert_lockstep_equals_run(config, [0, 1, 2])
        assert [r.status for r in results] == ["stalled"] * 3
        assert all(r.stall.trials == config.linesearch.max_backtracks + 1 for r in results)
