import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slsopt import (
    CG_VARIANTS,
    KINDS,
    DirectionState,
    LeastSquaresProblem,
    SgrParams,
    TheoremConstants,
    c3_from_moments,
    compute_eta,
    estimate_c3,
    estimate_pl,
    estimate_rho,
    estimate_wgc,
    evaluate_batch,
    exact_moments,
    exact_moments_many,
    full_oracle,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
    lemma_bounds_from_moments,
    pl_from_moments,
    rho_from_moments,
    safeguarded_direction,
    update_memory,
    verify_lemma_bounds,
    wgc_from_moments,
)
from slsopt import diagnostics
from slsopt.directions import MemoryRows
from slsopt.errors import DomainError, UndefinedEstimateError, UnsupportedProblemError

from conftest import component_grads, make_toy2, moments_from_samples, reference_moments
from one_gradient import one_row, propose_direction, row_memory

X1 = np.array([1.0])


def constants_with(c1=1.0, c2=1.0, c3=1.0, rho=10.0 / 9.0, mu=1.0, L=1.0, L_max=1.0,
                   gamma=0.5, delta=0.5, alpha_max=1.0):
    return TheoremConstants(c1=c1, c2=c2, c3=c3, rho=rho, mu=mu, L=L, L_max=L_max,
                            gamma=gamma, delta=delta, alpha_max=alpha_max)


class TestExactMoments:
    def test_two_component_enumeration(self):
        # component gradients x and 4x at x = 1: mean (1 + 4) / 2, mean
        # square (1 + 16) / 2, variance ((1 - 2.5)^2 + (4 - 2.5)^2) / 2
        m = exact_moments(make_toy2(), X1)
        assert m.E_g[0] == 2.5
        assert m.E_norm_g_sq == 8.5
        assert m.var_g == 2.25
        assert m.E_d[0] == -2.5
        assert m.E_dTg == -8.5

    def test_negative_gradient_has_cov_minus_var(self):
        m = exact_moments(make_toy2(), X1)
        assert m.cov_dg == -m.var_g

    def test_constant_rule_has_zero_covariance(self):
        G = component_grads(make_toy2(), X1)
        m = moments_from_samples(X1, G, np.full_like(G, 7.0))
        assert m.cov_dg == 0.0
        assert m.E_dTg == pytest.approx(7.0 * 2.5, rel=1e-15)

    def test_covariance_identity_over_random_points(self):
        problems = [
            make_toy2(),
            gen_interpolating_least_squares(6, 9, seed=1, singular_values=[1.0, 2.0]),
            gen_nonconvex_interpolating(5, 2, 3, seed=1),
        ]
        spec = DirectionState(kind="momentum", beta=0.9)
        rng = np.random.default_rng(2)
        for p in problems:
            for _ in range(30):
                x = rng.standard_normal(p.n)
                state = one_row(spec, p.n, x_prev=x - rng.standard_normal(p.n))
                for direction in (None, state):
                    m = exact_moments(p, x, direction)
                    lhs = m.E_dTg
                    rhs = float(m.E_d @ m.E_g) + m.cov_dg
                    scale = max(1.0, abs(lhs), abs(rhs))
                    assert abs(lhs - rhs) <= 1e-10 * scale
                    # variance identity, centered vs uncentered
                    unc = m.E_norm_g_sq - float(m.E_g @ m.E_g)
                    assert abs(m.var_g - unc) <= 1e-10 * max(1.0, m.E_norm_g_sq)

    def test_jensen_consistency(self):
        p = gen_interpolating_least_squares(5, 7, seed=3, singular_values=[0.5, 2.0])
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = exact_moments(p, rng.standard_normal(p.n))
            assert float(m.E_g @ m.E_g) <= m.E_norm_g_sq + 1e-12


class TestEstimateC3:
    def test_negative_gradient_rule_gives_one(self, ):
        rng = np.random.default_rng(4)
        pts = [rng.standard_normal(1) for _ in range(10)]
        assert estimate_c3(make_toy2(), pts) == 1.0

    def test_constant_rule_gives_zero(self):
        rng = np.random.default_rng(4)
        pts = [rng.standard_normal(1) for _ in range(10)]
        p = make_toy2()
        moments = []
        for x in pts:
            G = component_grads(p, x)
            moments.append(moments_from_samples(x, G, np.full_like(G, 3.0)))
        assert c3_from_moments(moments) == (0.0, 0)

    def test_momentum_rule_finite_nonnegative(self):
        p = gen_interpolating_least_squares(10, 15, seed=5, singular_values=np.full(10, 1.5))
        rng = np.random.default_rng(5)
        spec = DirectionState(kind="momentum", beta=0.9)
        values = []
        for _ in range(100):
            x = rng.standard_normal(p.n)
            state = one_row(spec, p.n, x_prev=x - 0.1 * rng.standard_normal(p.n))
            values.append(estimate_c3(p, [x], state))
        assert all(np.isfinite(v) and v >= 0 for v in values)

    def test_undefined_when_variance_vanishes(self):
        single = LeastSquaresProblem(A=np.array([[1.0]]), b=np.array([0.0]))
        with pytest.raises(UndefinedEstimateError):
            estimate_c3(single, [np.array([2.0])])


class TestEstimateRho:
    def test_single_component_is_exactly_one(self):
        single = LeastSquaresProblem(A=np.array([[1.0]]), b=np.array([0.0]))
        assert estimate_rho(single, [np.array([2.0]), np.array([-1.0])]) == 1.0

    def test_two_component_value(self):
        # E||g||^2 / ||E g||^2 = 8.5 / 2.5^2 at x = 1
        assert estimate_rho(make_toy2(), [X1]) == pytest.approx(8.5 / 6.25, rel=1e-14)

    def test_bounded_along_ray_to_minimizer(self):
        p = gen_interpolating_least_squares(6, 8, seed=7, singular_values=[1.0, 3.0])
        rng = np.random.default_rng(7)
        v = rng.standard_normal(p.n)
        ratios = []
        for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            x = p.known.x_star + t * v
            ratios.append(estimate_rho(p, [x]))
        # scale invariance of the ratio along the ray keeps it bounded
        assert max(ratios) / min(ratios) < 1.0 + 1e-6

    def test_undefined_at_minimizer_only(self):
        p = gen_interpolating_least_squares(4, 6, seed=8, singular_values=[1.0])
        with pytest.raises(UndefinedEstimateError):
            estimate_rho(p, [p.known.x_star])


class TestEstimateWgcPl:
    def test_unit_quadratic_wgc_is_one(self):
        from slsopt import KnownConstants

        single = LeastSquaresProblem(
            A=np.array([[1.0]]), b=np.array([0.0]),
            known=KnownConstants(L=1.0, L_max=1.0, mu=1.0, f_star=0.0, x_star=np.zeros(1)),
        )
        pts = [np.array([v]) for v in (0.5, -2.0, 3.0)]
        assert estimate_wgc(single, pts, L=1.0) == pytest.approx(1.0, rel=1e-14)
        assert estimate_pl(single, pts) == pytest.approx(1.0, rel=1e-14)

    def test_least_squares_pl_at_least_known_mu(self):
        p = gen_interpolating_least_squares(6, 10, seed=9, singular_values=[1.0, 2.0, 3.0])
        rng = np.random.default_rng(9)
        pts = [rng.standard_normal(p.n) for _ in range(100)]
        assert estimate_pl(p, pts) >= p.known.mu - 1e-9

    def test_wgc_finite_on_interpolating_instance(self):
        p = gen_interpolating_least_squares(6, 10, seed=10, singular_values=[1.0, 2.0])
        rng = np.random.default_rng(10)
        pts = [rng.standard_normal(p.n) for _ in range(50)]
        w = estimate_wgc(p, pts, L=p.known.L)
        assert np.isfinite(w) and w > 0

    def test_growth_chain_consistency_per_sample(self):
        # E||g||^2 <= wgc 2L gap and 2 pl gap <= ||grad||^2 chain to a strong bound
        p = gen_interpolating_least_squares(6, 10, seed=11, singular_values=[1.0, 2.0])
        rng = np.random.default_rng(11)
        pts = [rng.standard_normal(p.n) for _ in range(50)]
        L = p.known.L
        wgc = estimate_wgc(p, pts, L=L)
        pl = estimate_pl(p, pts)
        for x in pts:
            m = exact_moments(p, x)
            f, grad = full_oracle(p, x)
            assert m.E_norm_g_sq <= (wgc * L / pl) * float(grad @ grad) * (1.0 + 1e-9)

    def test_unsupported_without_f_star(self):
        p = LeastSquaresProblem(A=np.array([[1.0, 0.0]]), b=np.array([1.0]))
        with pytest.raises(UnsupportedProblemError):
            estimate_wgc(p, [np.zeros(2)], L=1.0)
        with pytest.raises(UnsupportedProblemError):
            estimate_pl(p, [np.zeros(2)])


class TestVerifyLemmaBounds:
    def test_negative_gradient_direction_satisfies_both(self):
        toy = make_toy2()
        rho = estimate_rho(toy, [X1])
        c = constants_with(rho=rho)
        rep = verify_lemma_bounds(toy, X1, c)
        assert rep.norm_ok and rep.descent_ok
        assert rep.norm_slack >= -1e-10 and rep.descent_slack >= -1e-10

    def test_single_component_reduces_to_direction_bound(self):
        single = LeastSquaresProblem(A=np.array([[2.0]]), b=np.array([0.0]))
        c = constants_with(rho=1.0, c3=5.0)  # 1 - 1/rho = 0 makes c3 irrelevant
        rep = verify_lemma_bounds(single, np.array([1.5]), c)
        assert rep.norm_ok and rep.descent_ok
        assert rep.descent_slack == pytest.approx(0.0, abs=1e-12)

    def test_adversarial_rule_violates_descent(self):
        toy = make_toy2()
        rho = estimate_rho(toy, [X1])
        G = component_grads(toy, X1)
        D = -G
        D[0] += 100.0  # component 0 pushes uphill
        rep = lemma_bounds_from_moments(moments_from_samples(X1, G, D), constants_with(rho=rho))
        assert not rep.descent_ok

    def test_inapplicable_constants_rejected(self):
        toy = make_toy2()
        bad = constants_with(c2=0.05, c3=1.0, rho=2.0)  # c3 (1 - 1/rho) = 0.5 > c2
        with pytest.raises(DomainError, match="c2 > c3"):
            verify_lemma_bounds(toy, X1, bad)


class TestComputeEta:
    def test_hand_value_one(self):
        c = constants_with(c3=0.0, rho=1.0, mu=1.0)
        rep = compute_eta(c)
        assert rep.eta == 1.0
        assert rep.hypothesis_ok

    def test_hand_value_point_two(self):
        c = constants_with(c3=0.0, rho=1.0, mu=1.4)
        rep = compute_eta(c)
        assert rep.eta == pytest.approx(0.2, abs=1e-12)

    def test_hypothesis_gate(self):
        c = constants_with(c2=0.4, c3=1.0, rho=2.0)  # c3 (1 - 1/rho) = 0.5 >= c2
        rep = compute_eta(c)
        assert not rep.hypothesis_ok
        assert not rep.certified

    def test_certified_flag_window(self):
        c = constants_with(c3=0.0, rho=1.0, mu=1.4, alpha_max=1.0)
        assert compute_eta(c).certified  # eta = 0.2 in (0, 1)
        c2 = constants_with(c3=0.0, rho=1.0, mu=1.4, alpha_max=10.0)
        assert not compute_eta(c2).certified  # needs eta < 0.1

    def test_rho_below_one_rejected(self):
        with pytest.raises(DomainError):
            constants_with(rho=0.5)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_certified_rate_is_at_least_the_exact_one_step_ratio(self):
        # criterion 6's orthonormal instance: every row has unit norm, so for
        # alpha_max = a <= 1 Armijo accepts a on every batch, and the exact
        # expected one-step ratio is 1 - a (2 - a) / 4 at every x. No valid
        # rate lies below it; the flag certifies eta * a = 1.885 a.
        p = gen_interpolating_least_squares(4, 4, seed=6, singular_values=np.ones(4))
        assert (p.known.mu, p.known.L_max) == pytest.approx((0.25, 1.0), rel=1e-12)
        for a in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5):
            rep = compute_eta(constants_with(c3=1.0, rho=4.0, mu=0.25, L=p.known.L, L_max=1.0,
                                             gamma=0.5, delta=0.99, alpha_max=a))
            if rep.certified:
                assert rep.rate >= 1.0 - a * (2.0 - a) / 4.0, a


def _out_of_place_moments(G, D):
    """The moments of the rows of G and D with centred copies; D None is -G.

    The reference for conftest.moments_from_samples, which centres in
    place: it reads G and D and writes neither.
    """
    E_g = G.mean(axis=0)
    E_norm_g_sq = float(np.einsum("ij,ij->i", G, G).mean())
    Gc = G - E_g
    var_g = float(np.einsum("ij,ij->i", Gc, Gc).mean())
    if D is None:
        E_d, E_dTg, cov_dg = -E_g, -E_norm_g_sq, -var_g
    else:
        E_d = D.mean(axis=0)
        E_dTg = float(np.einsum("ij,ij->i", D, G).mean())
        Dc = D - E_d
        cov_dg = float(np.einsum("ij,ij->i", Dc, Gc).mean())
    return E_g, E_norm_g_sq, max(var_g, 0.0), E_d, E_dTg, cov_dg


def _per_row_moments(p, x, memory):
    """The moments of the directions built one component gradient at a time.

    Each is the one-gradient reference recipe on row 0 of memory.
    """
    G = component_grads(p, x)
    D = -G if memory is None else np.stack([propose_direction(row_memory(memory, 0), g, x) for g in G])
    return _out_of_place_moments(G, D)


@st.composite
def _row_case(draw):
    """A stack of gradient rows and one memory, with rows at cg's corners."""
    n = draw(st.integers(1, 12))
    elements = st.floats(-1e3, 1e3)  # signed zeros and subnormals included
    x, x_prev, g_prev, d_prev = (draw(arrays(np.float64, n, elements=elements)) for _ in range(4))
    accum = draw(arrays(np.float64, n, elements=st.floats(0.0, 1e3)))
    rows = list(draw(arrays(np.float64, (draw(st.integers(0, 5)), n), elements=elements)))
    # g . (g - g_prev) is zero for g = 0 or g = g_prev, negative for
    # g = g_prev / 2 (g_prev != 0), and far above any cap for g = 1e3 g_prev.
    corners = [np.zeros(n), -np.zeros(n), g_prev, 0.5 * g_prev, 1e3 * g_prev, -g_prev]
    rows += draw(st.lists(st.sampled_from(corners), min_size=1, max_size=4))
    G = np.stack(draw(st.permutations(rows)))
    return G, x, dict(x_prev=x_prev, g_prev=g_prev, d_prev=d_prev, accum=accum)


def _every_recipe(memory, beta, beta_cap):
    """Every kind and cg variant, each in a memory of one row, fresh and holding ``memory``."""
    n = len(memory["x_prev"])
    for kind in KINDS:
        for variant in CG_VARIANTS if kind == "cg" else ("pr+",):
            spec = DirectionState(kind=kind, cg_variant=variant, beta=beta, beta_cap=beta_cap)
            yield MemoryRows(spec, 1, n)
            yield one_row(spec, n, **memory)


class _Rows:
    """A problem whose component gradients at every x are the rows of G."""

    def __init__(self, G):
        self.G = G
        self.N, self.n = G.shape

    def component_pass(self, x):
        def grads(rows, out):
            out[...] = self.G[rows]
            return out

        return np.zeros(self.N), grads


class TestDirectionMatrix:
    @given(case=_row_case(), beta=st.floats(-2.0, 2.0), beta_cap=st.floats(1e-3, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_direction_matrix_equals_per_row_calls_byte_for_byte(self, case, beta, beta_cap):
        # the rows exact_moments averages, before they are centred; with
        # three-row blocks, a recipe that negates the gradient builds none
        G, x, memory = case
        propose = MemoryRows.propose
        for state in _every_recipe(memory, beta, beta_cap):
            fields = ["has_history", *MemoryRows.FIELDS[state.spec.kind]]
            kept = {name: getattr(state, name).copy() for name in fields}
            seen = []

            def spy(self, G, X):
                D = propose(self, G, X)
                seen.append(D.copy())
                return D

            with mock.patch.object(diagnostics, "_BLOCK_BYTES", 3 * 8 * G.shape[1]), \
                    mock.patch.object(MemoryRows, "propose", spy):
                exact_moments(_Rows(G), x, state)
            for name, value in kept.items():
                # the memory is read, never written
                assert getattr(state, name).tobytes() == value.tobytes()
            rows = np.stack([propose_direction(row_memory(state, 0), g, x) for g in G])
            if not state.uses_memory(0):
                assert seen == [] and rows.tobytes() == (-G).tobytes()
                continue
            # both sweeps build every block
            D = np.concatenate(seen)
            assert D.shape == (2 * len(G), G.shape[1])
            assert D.tobytes() == np.concatenate([rows, rows]).tobytes(), state.spec


MOMENT_FIELDS = ("E_g", "E_norm_g_sq", "var_g", "E_d", "E_dTg", "cov_dg")


def _assert_same_moments(fast, slow):
    """Equal values field by field; slow is a tuple in MOMENT_FIELDS order."""
    for name, want in zip(MOMENT_FIELDS, slow):
        if name in ("E_g", "E_d"):
            assert np.array_equal(getattr(fast, name), want)
        else:
            assert getattr(fast, name) == want


def _assert_same_bits(fast, slow):
    for name, want in zip(MOMENT_FIELDS, slow):
        got = getattr(fast, name)
        if name in ("E_g", "E_d"):
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got.hex() == want.hex(), name


class TestRowwiseRule:
    """The moments of a recipe are those of its per-row directions."""

    @given(
        x=arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
        x_prev=arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
        g_prev=arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
        d_prev=arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
        accum=arrays(np.float64, 3, elements=st.floats(0.0, 1e3)),
        beta=st.floats(0.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_per_row_rule(self, x, x_prev, g_prev, d_prev, accum, beta):
        p = gen_interpolating_least_squares(2, 3, seed=1, singular_values=[1.0, 2.0])
        memory = dict(x_prev=x_prev, g_prev=g_prev, d_prev=d_prev, accum=accum)
        for kind in KINDS:
            for variant in CG_VARIANTS:
                spec = DirectionState(kind=kind, cg_variant=variant, beta=beta)
                for state in (MemoryRows(spec, 1, p.n), one_row(spec, p.n, **memory)):
                    _assert_same_moments(exact_moments(p, x, state), _per_row_moments(p, x, state))

    def test_fresh_states_negate_the_gradient_except_adagrad(self):
        p = gen_interpolating_least_squares(2, 3, seed=1, singular_values=[1.0, 2.0])
        x = np.array([0.5, -1.0, 2.0])
        plain = exact_moments(p, x)
        for kind in KINDS:
            m = exact_moments(p, x, MemoryRows(DirectionState(kind=kind), 1, p.n))
            assert np.array_equal(m.E_d, plain.E_d) == (kind != "adagrad_diag")


def _assert_same_report(got, want):
    """Every field of two MomentReports, bit for bit."""
    for name in ("x", *MOMENT_FIELDS, "f"):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a.hex() == b.hex(), name


def _live_states(p, x, steps, rng):
    """Every kind and cg variant in a memory of one row, fresh and after ``steps`` steps.

    Each step draws a component at the current point, takes the safeguarded
    direction at a fixed step length and updates the memory, as a run's
    row does; the memories end at other points than x.
    """
    sgr = SgrParams()
    for kind in KINDS:
        for variant in CG_VARIANTS if kind == "cg" else ("pr+",):
            spec = DirectionState(kind=kind, cg_variant=variant)
            yield MemoryRows(spec, 1, p.n)
            state = MemoryRows(spec, 1, p.n)
            y = x + rng.standard_normal(p.n)
            for _ in range(steps):
                _, g, _ = evaluate_batch(p, int(rng.integers(p.N)), y)
                d = safeguarded_direction(state, g, y, sgr).d
                y_new = y + 0.05 * d
                update_memory(state, y, g, d)
                y = y_new
            yield state


def _problem(family, N, n, seed):
    """A least-squares problem with n variables, some labels zero; or a two-factor one.

    The two-factor one has n_u = n and n_v = 8: rows of A that long make a
    block of rows of A @ V.T round otherwise than those rows of the whole
    product.
    """
    rng = np.random.default_rng(seed)
    if family == "two_factor":
        return gen_nonconvex_interpolating(N, n, 8, seed)
    b = rng.standard_normal(N)
    b[rng.random(N) < 0.3] = 0.0
    return LeastSquaresProblem(rng.standard_normal((N, n)), b)


class TestBlockedMoments:
    """exact_moments' blocks give the whole-matrix moments, to the bit."""

    @staticmethod
    def _check(p, rows, steps, seed):
        rng = np.random.default_rng(seed)
        # x = 0 puts the zero labels' residuals at exactly 0.0, so that
        # gradient rows hold signed zeros; x_star zeroes every two-factor row
        points = [rng.standard_normal(p.n), np.zeros(p.n)]
        if p.known is not None:
            points.append(p.known.x_star)
        with mock.patch.object(diagnostics, "_BLOCK_BYTES", 8 * p.n * rows):
            for x in points:
                for state in [None, *_live_states(p, x, steps, rng)]:
                    _assert_same_report(exact_moments(p, x, state), reference_moments(p, x, state))

    @given(
        family=st.sampled_from(["least_squares", "two_factor"]),
        N=st.integers(1, 24),
        n=st.integers(1, 6),
        rows=st.integers(1, 25),
        steps=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_the_whole_matrices(self, family, N, n, rows, steps, seed):
        # ``rows`` is what _BLOCK_BYTES asks for: one-row requests, N not a
        # multiple of it and N below one block all occur
        self._check(_problem(family, N, n, seed), rows, steps, seed)

    @given(
        family=st.sampled_from(["least_squares", "two_factor"]),
        N=st.integers(1, 24),
        n=st.integers(1, 6),
        rows=st.integers(1, 25),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=5),
        steps=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_many_points_are_each_point_alone(self, family, N, n, rows, picks, steps, seed):
        # one point, repeated points, x = 0 (signed zeros in the rows of the
        # zero labels) and x_star (every two-factor row zero), in any order
        p = _problem(family, N, n, seed)
        rng = np.random.default_rng(seed)
        pool = [rng.standard_normal(p.n), rng.standard_normal(p.n), np.zeros(p.n)]
        if p.known is not None:
            pool.append(p.known.x_star)
        points = [pool[i % len(pool)] for i in picks]
        with mock.patch.object(diagnostics, "_BLOCK_BYTES", 8 * p.n * rows):
            for state in [None, *_live_states(p, points[0], steps, rng)]:
                reports = exact_moments_many(p, points, state)
                assert len(reports) == len(points)
                for x, m in zip(points, reports):
                    _assert_same_report(m, reference_moments(p, x, state))

    @pytest.mark.parametrize(
        "N, n, rows",
        [(7, 1, 2), (40, 1, 3), (7, 2, 1), (7, 2, 3), (9, 2, 4), (3, 5, 8), (1, 4, 1), (2, 3, 1), (24, 3, 5)],
    )
    @pytest.mark.parametrize("family", ["least_squares", "two_factor"])
    def test_edge_layouts(self, family, N, n, rows):
        # n = 1 (one column, summed pairwise) and n = 2; one-row requests; a
        # last block of one row; N below one block; N = 1
        self._check(_problem(family, N, n, 5), rows, 3, 5)

    @pytest.mark.parametrize("family, n", [("least_squares", 20_000), ("two_factor", 2_000)])
    def test_long_rows(self, family, n):
        # einsum dots a lone row this long in another order than a row of a
        # matrix, so no block has one row; at the real block size these rows
        # come two to a block, and the fifth joins the last block
        p = _problem(family, 5, n, 9)
        assert [b.stop - b.start for b in diagnostics._blocks(p.N, p.n)] == [2, 3]
        x = np.random.default_rng(9).standard_normal(p.n)
        _assert_same_report(exact_moments(p, x), reference_moments(p, x))

    @given(N=st.integers(1, 200), n=st.integers(1, 50_000))
    def test_block_layout(self, N, n):
        blocks = diagnostics._blocks(N, n)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == N
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        if n == 1:
            assert sizes == [N]
        else:
            k = max(2, diagnostics._BLOCK_BYTES // (8 * n))
            assert all(s == k for s in sizes[:-1])
            assert sizes[-1] <= k + 1
            assert N == 1 or min(sizes) >= 2


class TestOnePassMoments:
    PROBLEMS = [
        make_toy2,
        lambda: gen_interpolating_least_squares(6, 9, seed=1, singular_values=[1.0, 2.0]),
        lambda: gen_nonconvex_interpolating(5, 2, 3, seed=1),
    ]

    @pytest.mark.parametrize("make", PROBLEMS)
    def test_shortcuts_equal_the_per_row_loop(self, make):
        # negation shortcut and the stacked recipe: the same values as the
        # directions built row by row
        p = make()
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.standard_normal(p.n)
            state = one_row(DirectionState(kind="momentum", beta=0.9), p.n, x_prev=x - rng.standard_normal(p.n))
            for direction in (None, state):
                _assert_same_moments(exact_moments(p, x, direction), _per_row_moments(p, x, direction))

    @pytest.mark.parametrize("make", PROBLEMS[1:], ids=["least_squares", "two_factor"])
    @pytest.mark.parametrize("kind", [None, "momentum", "cg", "adagrad_diag"])
    def test_in_place_centring_keeps_the_out_of_place_bits(self, make, kind):
        # exact_moments centres the gradient and direction matrices in their
        # own buffers; every uncentred moment must be read before that
        p = make()
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(p.n)
            state = None
            if kind is not None:
                g_prev = rng.standard_normal(p.n)
                state = one_row(
                    DirectionState(kind=kind),
                    p.n,
                    x_prev=x - rng.standard_normal(p.n),
                    g_prev=g_prev,
                    d_prev=-g_prev + 0.1 * rng.standard_normal(p.n),
                    accum=rng.random(p.n),
                )
            G = component_grads(p, x)
            D = None
            if state is not None and state.uses_memory(0):
                D = np.stack([propose_direction(row_memory(state, 0), g, x) for g in G])
            _assert_same_bits(exact_moments(p, x, state), _out_of_place_moments(G, D))

    def test_exact_moments_sets_the_objective_value(self):
        p = gen_interpolating_least_squares(6, 9, seed=1, singular_values=[1.0, 2.0])
        x = np.random.default_rng(3).standard_normal(p.n)
        r = p.A @ x - p.b
        assert exact_moments(p, x).f == float((0.5 * r * r).mean())
        assert exact_moments(p, x, MemoryRows(DirectionState(kind="adagrad_diag"), 1, p.n)).f == float((0.5 * r * r).mean())

    def test_reducers_match_estimators_and_name_the_point(self):
        p = gen_interpolating_least_squares(6, 10, seed=11, singular_values=[1.0, 2.0])
        rng = np.random.default_rng(11)
        pts = [rng.standard_normal(p.n) for _ in range(15)]
        moments = [exact_moments(p, x) for x in pts]
        f_star, L = p.known.f_star, p.known.L
        cases = [
            (rho_from_moments(moments), estimate_rho(p, pts), lambda x: estimate_rho(p, [x]), max),
            (wgc_from_moments(moments, f_star, L), estimate_wgc(p, pts, L), lambda x: estimate_wgc(p, [x], L), max),
            (pl_from_moments(moments, f_star), estimate_pl(p, pts), lambda x: estimate_pl(p, [x]), min),
        ]
        for (value, point), public, single, pick in cases:
            assert value == public
            per_point = [single(x) for x in pts]
            assert per_point[point] == value == pick(per_point)
            assert point == per_point.index(value)

    @staticmethod
    def _peak(kind, P=1):
        """Peak bytes of one exact_moments_many call at P points, and the problem it ran on."""
        p = gen_interpolating_least_squares(1000, 1000, seed=2, singular_values=[1.0, 2.0])
        rng = np.random.default_rng(2)
        points = [rng.standard_normal(p.n) for _ in range(P)]
        state = None
        if kind is not None:
            g_prev = np.ones(p.n)
            state = one_row(DirectionState(kind=kind), p.n, x_prev=np.zeros(p.n), g_prev=g_prev, d_prev=-g_prev, accum=g_prev)
        exact_moments_many(p, points, state)  # warm up lazily allocated numpy state
        tracemalloc.start()
        try:
            exact_moments_many(p, points, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, p

    @classmethod
    def _peak_matrices(cls, kind):
        peak, p = cls._peak(kind)
        return peak / (p.N * p.n * 8)

    # With the whole matrices, each centred in its own buffer, these held 1
    # and 2 matrices; with a centred copy of each, 2 and 4.
    def test_holds_one_gradient_matrix(self):
        assert self._peak_matrices(None) < 1.5

    def test_holds_one_gradient_and_one_direction_matrix(self):
        assert self._peak_matrices("momentum") < 2.5

    @pytest.mark.parametrize("kind", [None, *KINDS[1:]])
    def test_holds_blocks_of_rows_not_matrices(self, kind):
        # a block of gradient rows and its sum buffer; with a direction, the
        # direction rows' buffer and the recipe's temporaries too. The
        # matrices here are 8 MB, a block 256 KiB. All points share the
        # blocks; each further point keeps its residuals, its row dots and
        # its length-n sums, O(N + n).
        for P in (1, 8):
            peak, p = self._peak(kind, P)
            assert peak < (2 if kind is None else 6) * diagnostics._BLOCK_BYTES + (P - 1) * 6 * 8 * (p.N + p.n)
