import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsopt import (
    LineSearchParams,
    LineSearchResult,
    alpha_low,
    backtrack,
    jstar,
    next_alpha0,
)
from slsopt.errors import DomainError, LineSearchStallError, NonDescentError

from conftest import armijo_holds


def half_square(y):
    """Batch value oracle for f(x) = x^2 / 2 in one dimension."""
    return 0.5 * float(y[0]) ** 2


X1 = np.array([1.0])
D_MINUS1 = np.array([-1.0])
G1 = np.array([1.0])


def on_ray(f_batch, x, d, g):
    """(phi, slope) for ``backtrack``: f_batch along x + a d, and d . g."""
    return (lambda a: f_batch(x + a * d)), float(np.dot(d, g))


HALF_SQUARE_RAY = on_ray(half_square, X1, D_MINUS1, G1)


class TestArmijoHolds:
    def test_half_step_accepted(self):
        assert armijo_holds(half_square, X1, D_MINUS1, G1, alpha=0.5, gamma=0.5, f_x=0.5)

    def test_overshoot_rejected(self):
        assert not armijo_holds(half_square, X1, D_MINUS1, G1, alpha=2.0, gamma=0.5, f_x=0.5)

    def test_zero_step_is_equality(self):
        assert armijo_holds(half_square, X1, D_MINUS1, G1, alpha=0.0, gamma=0.5, f_x=0.5)

    def test_non_finite_trial_counts_as_rejected(self):
        def exploding(y):
            return float("inf") if abs(y[0]) > 0.9 else half_square(y)

        assert not armijo_holds(exploding, X1, D_MINUS1, G1, alpha=2.0, gamma=0.5, f_x=0.5)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            armijo_holds(half_square, X1, D_MINUS1, G1, alpha=-0.1, gamma=0.5, f_x=0.5)


class TestBacktrack:
    def test_four_backtracks_from_ten(self):
        # acceptance region is alpha <= 1; grid 10, 5, 2.5, 1.25, 0.625
        params = LineSearchParams(gamma=0.5, delta=0.5, alpha_max=10.0)
        res = backtrack(*HALF_SQUARE_RAY, params, alpha0=10.0, f_x=0.5)
        assert res.alpha == 0.625
        assert res.backtracks == 4
        assert res.f_trial_count == 5
        assert res.accepted_f == half_square(X1 + 0.625 * D_MINUS1)

    def test_exact_minimizer_step_accepted_immediately(self):
        params = LineSearchParams(gamma=0.5, delta=0.5, alpha_max=1.0)
        res = backtrack(*HALF_SQUARE_RAY, params, alpha0=1.0, f_x=0.5)
        assert res.alpha == 1.0
        assert res.backtracks == 0
        assert res.accepted_f == 0.0

    def test_alpha0_below_guaranteed_threshold_needs_no_backtracks(self):
        # single least-squares component with L_k = ||a||^2 exactly
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal(3)
            c = rng.standard_normal(3)
            x = rng.standard_normal(3)
            L_k = float(a @ a)
            r = float(a @ (x - c))
            if abs(r) < 1e-8:
                continue
            g = r * a
            f_x = 0.5 * r * r
            gamma = 0.3
            a_low = alpha_low(1.0, 1.0, gamma, L_k)
            alpha0 = 0.9 * a_low
            params = LineSearchParams(gamma=gamma, delta=0.5, alpha_max=max(1.0, alpha0))
            f_batch = lambda y: 0.5 * float(a @ (y - c)) ** 2
            res = backtrack(*on_ray(f_batch, x, -g, g), params, alpha0=alpha0, f_x=f_x)
            assert res.backtracks == 0

    def test_step_expression_is_exact(self):
        params = LineSearchParams(gamma=0.5, delta=0.7, alpha_max=10.0)
        res = backtrack(*HALF_SQUARE_RAY, params, alpha0=7.3, f_x=0.5)
        assert res.alpha == res.alpha0 * params.delta**res.backtracks

    def test_non_descent_error(self):
        with pytest.raises(NonDescentError):
            backtrack(*on_ray(half_square, X1, -D_MINUS1, G1), LineSearchParams(), alpha0=1.0, f_x=0.5)

    def test_stall_error_carries_trace(self):
        # acceptance needs alpha <= 2(1-gamma)/L ~ 1.8e-8; two trials cannot reach it
        stiff = lambda y: 0.5e8 * float(y[0]) ** 2
        params = LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0, max_backtracks=1)
        with pytest.raises(LineSearchStallError) as info:
            backtrack(*on_ray(stiff, X1, D_MINUS1, np.array([1e8])), params, alpha0=10.0, f_x=0.5e8)
        assert info.value.trials == 2
        assert info.value.alpha0 == 10.0

    def test_alpha0_domain(self):
        params = LineSearchParams(alpha_max=1.0)
        with pytest.raises(DomainError):
            backtrack(*HALF_SQUARE_RAY, params, alpha0=2.0, f_x=0.5)
        with pytest.raises(DomainError):
            backtrack(*HALF_SQUARE_RAY, params, alpha0=0.0, f_x=0.5)

    def test_non_finite_trials_are_skipped_not_fatal(self):
        def guarded(y):
            v = half_square(y)
            return v if abs(y[0]) < 2.0 else float("nan")

        params = LineSearchParams(gamma=0.5, delta=0.5, alpha_max=8.0)
        res = backtrack(*on_ray(guarded, X1, D_MINUS1, G1), params, alpha0=8.0, f_x=0.5)
        assert res.alpha <= 1.0
        assert math.isfinite(res.accepted_f)


class TestRaySearch:
    def test_ray_slope_must_be_descent(self):
        for slope in (0.0, 1.0, math.nan):
            with pytest.raises(NonDescentError):
                backtrack(lambda a: 0.0, slope, LineSearchParams(), alpha0=1.0, f_x=0.5)


class TestNonFiniteWarning:
    params = LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0, max_backtracks=60)

    def _warnings(self, caplog):
        return [r for r in caplog.records if r.levelname == "WARNING"]

    def test_one_summary_line_per_failed_search(self, caplog):
        with caplog.at_level("WARNING", logger="slsopt.linesearch"):
            with pytest.raises(LineSearchStallError):
                backtrack(lambda a: float("nan"), -1.0, self.params, alpha0=8.0, f_x=0.5)
        [record] = self._warnings(caplog)
        message = record.getMessage()
        assert "61 of 61 trials non-finite" in message
        assert f"alpha={8.0:g} .. {8.0 * 0.5**60:g}" in message
        assert "stalled" in message

    def test_accepted_search_with_non_finite_trials_logs_once(self, caplog):
        def guarded(y):
            return half_square(y) if abs(y[0]) < 2.0 else float("inf")

        with caplog.at_level("WARNING", logger="slsopt.linesearch"):
            res = backtrack(*on_ray(guarded, X1, D_MINUS1, G1), self.params, alpha0=8.0, f_x=0.5)
        [record] = self._warnings(caplog)
        # alpha 8 and 4 leave |y| >= 2; 2 fails the decrease test; 1 is accepted
        assert res.alpha == 1.0
        assert "2 of 4 trials non-finite (alpha=8 .. 4)" in record.getMessage()

    def test_clean_search_logs_nothing(self, caplog):
        with caplog.at_level("WARNING", logger="slsopt.linesearch"):
            backtrack(*HALF_SQUARE_RAY, self.params, alpha0=8.0, f_x=0.5)
        assert self._warnings(caplog) == []


class TestMaximalityOracle:
    @given(
        curvature=st.floats(1e-3, 1e3),
        slope=st.floats(-1e3, -1e-3),
        f_x=st.floats(0.0, 1e3),
        alpha0=st.floats(1e-3, 10.0),
        delta=st.floats(0.05, 0.95),
        gamma=st.floats(0.01, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_backtrack_matches_brute_force_scan(self, curvature, slope, f_x, alpha0, delta, gamma):
        # phi(a) = f_x + slope a + curvature a^2 / 2 in one dimension: x = 0,
        # d = 1, g = slope. backtrack must return the first grid step that
        # the independent point oracle armijo_holds accepts.
        def f_batch(y):
            a = float(y[0])
            return f_x + slope * a + 0.5 * curvature * a * a

        x, d, g = np.zeros(1), np.ones(1), np.array([slope])
        params = LineSearchParams(gamma=gamma, delta=delta, alpha_max=10.0, max_backtracks=600)
        expected_j = next(
            j
            for j in range(params.max_backtracks + 1)
            if armijo_holds(f_batch, x, d, g, alpha0 * delta**j, gamma, f_x)
        )
        res = backtrack(*on_ray(f_batch, x, d, g), params, alpha0=alpha0, f_x=f_x)
        assert res.backtracks == expected_j
        assert res.alpha == alpha0 * delta**expected_j


class TestGuaranteedAcceptanceThreshold:
    def test_all_steps_below_threshold_accepted(self):
        # 50 sampled alphas inside (0, alpha_low] on batches with exact L_k
        rng = np.random.default_rng(77)
        gamma = 0.4
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            cshift = rng.standard_normal(n)
            x = rng.standard_normal(n)
            r = float(a @ (x - cshift))
            if abs(r) < 1e-8:
                continue
            g = r * a
            L_k = float(a @ a)
            threshold = alpha_low(1.0, 1.0, gamma, L_k)
            f_batch = lambda y: 0.5 * float(a @ (y - cshift)) ** 2
            f_x = f_batch(x)
            for u in rng.uniform(0.0, 1.0, size=50):
                alpha = float(u * threshold)
                assert armijo_holds(f_batch, x, -g, g, alpha, gamma, f_x)


class TestAlphaLow:
    def test_formula_values(self):
        assert alpha_low(1.0, 1.0, 0.5, 2.0) == 0.5
        assert alpha_low(1.0, 1.0, 0.5, 1.0) == 1.0
        assert alpha_low(2.0, 1.0, 0.5, 1.0) == 0.25

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_low(0.0, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            alpha_low(1.0, 1.0, 1.5, 1.0)


class TestJstar:
    def test_formula_values(self):
        assert jstar(1.0, 0.1, 0.5) == 4
        assert jstar(0.05, 0.1, 0.5) == 0
        assert jstar(0.1, 0.1, 0.5) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            jstar(-1.0, 0.1, 0.5)
        with pytest.raises(DomainError):
            jstar(1.0, 0.1, 1.0)


class TestNextAlpha0:
    def test_constant_policy(self):
        params = LineSearchParams(alpha_max=3.0, alpha0_policy="constant")
        prev = LineSearchResult(alpha=0.1, backtracks=2, f_trial_count=3, accepted_f=0.0, alpha0=1.0)
        assert next_alpha0(params, None) == 3.0
        assert next_alpha0(params, prev) == 3.0

    def test_warm_increase_one_factor(self):
        params = LineSearchParams(alpha_max=1.0, delta=0.5, alpha0_policy="warm_increase")
        prev = LineSearchResult(alpha=0.25, backtracks=0, f_trial_count=1, accepted_f=0.0, alpha0=0.25)
        assert next_alpha0(params, prev) == 0.5

    def test_warm_increase_clamped(self):
        params = LineSearchParams(alpha_max=1.0, delta=0.5, alpha0_policy="warm_increase")
        prev = LineSearchResult(alpha=0.8, backtracks=0, f_trial_count=1, accepted_f=0.0, alpha0=0.8)
        assert next_alpha0(params, prev) == 1.0

    def test_first_iteration_uses_alpha_max(self):
        params = LineSearchParams(alpha_max=2.0, alpha0_policy="warm_increase")
        assert next_alpha0(params, None) == 2.0


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 1.5},
            {"gamma": 0.0},
            {"delta": 1.0},
            {"alpha_max": 0.0},
            {"alpha0_policy": "bogus"},
            {"max_backtracks": 0},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(DomainError):
            LineSearchParams(**kwargs)

    @pytest.mark.parametrize("alpha_max", [math.inf, math.nan])
    def test_non_finite_alpha_max_rejected(self, alpha_max):
        # every trial of an infinite alpha_max is inf * delta**j = inf
        with pytest.raises(DomainError, match="alpha_max must be finite"):
            LineSearchParams(alpha_max=alpha_max)
