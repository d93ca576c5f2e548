import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slsopt import (
    KINDS,
    DirectionState,
    FiniteSumProblem,
    LeastSquaresProblem,
    LineSearchParams,
    ResidualProblem,
    RunConfig,
    SgrParams,
    contraction_estimate,
    fit_geometric_rate,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
    run,
    verify_trace_bounds,
)
from slsopt import cli, optimizer
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
        # at x = 1 the first component is exactly minimized but f is not
        components = [
            (lambda x: 0.5 * (x[0] - 1.0) ** 2, lambda x: np.array([x[0] - 1.0])),
            (lambda x: 0.5 * (x[0] + 1.0) ** 2, lambda x: np.array([x[0] + 1.0])),
        ]
        p = FiniteSumProblem(n=1, components=components)
        hit = None
        for seed in range(20):
            cfg = base_config(p, x0=np.array([1.0]), max_iters=5, seed=seed,
                              grad_tol=0.0, fgap_tol=0.0)
            res = run(cfg)
            first = res.trajectory[0]
            if first.g_batch_norm == 0.0:
                hit = (res, first)
                break
        assert hit is not None, "no seed drew the stationary component first"
        res, first = hit
        assert first.alpha == 0.0
        assert first.backtracks == 0
        assert first.f_full is not None  # forced exact check
        assert len(res.trajectory) > 1  # run continued past the stationary batch

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


class CountingProblem(FiniteSumProblem):
    """Delegating wrapper that counts stochastic value calls.

    It takes the generic search ray, which calls component_value once at x
    and once per trial.
    """

    def __init__(self, inner):
        super().__init__(n=inner.n, N=inner.N, known=inner.known)
        self.inner = inner
        self.component_value_calls = 0
        self.full_calls = 0

    def component_value(self, i, x):
        self.component_value_calls += 1
        return self.inner.component_value(i, x)

    def component_grad(self, i, x):
        return self.inner.component_grad(i, x)

    def full_value_grad(self, x):
        self.full_calls += 1
        return self.inner.full_value_grad(x)


class TestEvaluationBudget:
    def test_stochastic_cost_matches_backtrack_counts(self):
        counted = CountingProblem(small_instance())
        cfg = base_config(counted, max_iters=40, grad_tol=0.0, fgap_tol=0.0)
        res = run(cfg)
        assert all(r.g_batch_norm > 0 for r in res.trajectory)
        expected = sum(r.backtracks + 2 for r in res.trajectory)
        assert counted.component_value_calls == expected


class TestRayOracle:
    def test_searches_use_the_closed_form_ray(self):
        calls = {"component_value": 0, "batch_eval_ray": 0}

        class Counted(LeastSquaresProblem):
            def component_value(self, i, x):
                calls["component_value"] += 1
                return super().component_value(i, x)

            def batch_eval_ray(self, i, x):
                calls["batch_eval_ray"] += 1
                return super().batch_eval_ray(i, x)

        inner = small_instance()
        counted = Counted(inner.A, inner.b, inner.known)
        res = run(base_config(counted, max_iters=40, grad_tol=0.0, fgap_tol=0.0))
        assert calls == {"component_value": 0, "batch_eval_ray": len(res.trajectory)}

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

        def spy(self, i, x):
            calls.append(i)
            return real(self, i, x)

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
    def test_accepted_trials_satisfy_decrease_certificate(self):
        inner = small_instance()
        log = []

        class Recording(CountingProblem):
            def component_value(self, i, x):
                v = super().component_value(i, x)
                log.append(v)
                return v

        counted = Recording(inner)
        gamma = 0.1
        cfg = base_config(counted, max_iters=60, grad_tol=0.0, fgap_tol=0.0,
                          linesearch=LineSearchParams(gamma=gamma, delta=0.5, alpha_max=10.0))
        res = run(cfg)
        # each iteration logs f_i(x), then its trials; the last trial is
        # the accepted point
        pos = 0
        for r in res.trajectory:
            assert log[pos] == r.f_batch
            trial_count = r.backtracks + 1
            accepted = log[pos + trial_count]
            pos += 1 + trial_count
            assert accepted <= r.f_batch + gamma * r.alpha * r.dTg
            assert accepted < r.f_batch
        assert pos == len(log)


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
