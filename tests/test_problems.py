import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slsopt import (
    BatchSampler,
    DirectionState,
    LeastSquaresProblem,
    TwoFactorProblem,
    evaluate_batch,
    exact_moments,
    full_oracle,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
)
from slsopt.errors import (
    InvalidBatchError,
    InvalidSpecError,
    NumericDomainError,
    ShapeError,
)
from slsopt.problems import _all_finite, as_vector, ray_phi, unbuffered

from conftest import central_diff_grad, component_grads, make_toy2
from one_gradient import one_row


class TestEvaluateBatch:
    def test_single_row_least_squares(self):
        # f(x) = (a.x - b)^2 / 2 with a = (1, 0), b = 0 at x = (2, 3)
        p = LeastSquaresProblem(A=np.array([[1.0, 0.0]]), b=np.array([0.0]))
        f, g, _ = evaluate_batch(p, 0, np.array([2.0, 3.0]))
        assert f == 2.0
        assert np.array_equal(g, np.array([2.0, 0.0]))

    def test_singleton_gradient_vanishes_at_planted_minimizer(self):
        p = gen_interpolating_least_squares(6, 10, seed=5, singular_values=[1.0, 2.0])
        for i in range(p.N):
            _, g, _ = evaluate_batch(p, i, p.known.x_star)
            assert np.all(g == 0.0)

    def test_out_of_range_index(self, toy2):
        with pytest.raises(InvalidBatchError):
            evaluate_batch(toy2, 2, np.array([1.0]))

    def test_wrong_dimension(self, toy2):
        with pytest.raises(ShapeError):
            evaluate_batch(toy2, 0, np.array([1.0, 2.0]))

    def test_non_finite_evaluation(self):
        # the residual 1e200 * 1e200 overflows, so f_0 is infinite
        bad = LeastSquaresProblem(A=np.array([[1e200]]), b=np.array([0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError):
                evaluate_batch(bad, 0, np.array([1e200]))


class TestEvaluateBatchChecks:
    """Every input check of the sampled and full oracles, each on its own."""

    @pytest.mark.parametrize("i", [2, -1, np.int64(5)])
    def test_error_names_the_bad_index(self, toy2, i):
        with pytest.raises(InvalidBatchError, match=f"index {int(i)} "):
            evaluate_batch(toy2, i, np.array([1.0]))

    @pytest.mark.parametrize("i", [1.5, 2.0, np.float64(2.0), "2", (1,), None])
    def test_non_integer_index_is_rejected(self, i):
        # int() would truncate 1.5 and parse "2"; the check takes only what
        # operator.index accepts, and names the value it refused
        p = gen_interpolating_least_squares(4, 6, seed=1, singular_values=[1.0])
        with pytest.raises(InvalidBatchError, match="integer, got " + re.escape(repr(i))):
            evaluate_batch(p, i, np.zeros(6))

    def test_numpy_integer_indices_match_python_ints(self):
        p = gen_interpolating_least_squares(4, 6, seed=1, singular_values=[1.0])
        x = np.linspace(-1.0, 1.0, 6)
        f, g, _ = evaluate_batch(p, np.int64(2), x)
        f_ref, g_ref, _ = evaluate_batch(p, 2, x)
        assert f == f_ref and g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x(self, toy2, bad):
        with pytest.raises(NumericDomainError):
            evaluate_batch(toy2, 0, np.array([bad]))
        with pytest.raises(NumericDomainError):
            full_oracle(toy2, np.array([bad]))

    def test_x_of_the_wrong_shape(self, toy2):
        with pytest.raises(ShapeError):
            evaluate_batch(toy2, 0, np.array([[1.0]]))
        with pytest.raises(ShapeError):
            full_oracle(toy2, np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "p, x",
        [
            # inf: the residual 1e154 has a finite square, but r a_0 = 1e309
            # overflows
            pytest.param(
                LeastSquaresProblem(A=np.array([[1e155, 0.0]]), b=np.array([0.0])),
                np.array([0.1, 0.0]),
                id="inf",
            ),
            # nan: w = u V = (1e8, 1e8) gives the residual 0 - (-1) = 1, but
            # V a_0 = 2e308 - 2e308 is inf - inf
            pytest.param(
                TwoFactorProblem(1, 2, A=np.array([[2.0, -2.0]]), b=np.array([-1.0])),
                np.array([1e-300, 1e308, 1e308]),
                id="nan",
            ),
        ],
    )
    def test_non_finite_gradient(self, p, x):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError, match="evaluation of component 0"):
                evaluate_batch(p, 0, x)
            with pytest.raises(NumericDomainError):
                full_oracle(p, x)

    def test_non_finite_full_value(self):
        p = LeastSquaresProblem(A=np.array([[1e200]]), b=np.array([0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError):
                full_oracle(p, np.array([1e200]))

    def test_singleton_ray_matches_the_mean_half_square(self):
        # the ray evaluates 0.5 r^2 of the residual r0 + a (c1 + a c2); it
        # must give the floats of that expression written out here
        p = gen_interpolating_least_squares(5, 9, seed=3, singular_values=[1.0, 3.0])
        rng = np.random.default_rng(4)
        x, d = rng.standard_normal(9), rng.standard_normal(9)
        for i in range(p.N):
            phi = evaluate_batch(p, i, x)[2](d)
            r0 = float(p.A[i] @ x) - float(p.b[i])
            c1 = float(p.A[i] @ d)
            for a in (0.0, 1e-3, 0.5, 10.0):
                r = r0 + a * (c1 + a * 0.0)
                assert phi(a) == 0.5 * r * r


class TestFullOracle:
    def test_two_component_average(self, toy2):
        # f1 = x^2/2 and f2 = 2 x^2 at x = 1: f = (0.5 + 2) / 2, g = (1 + 4) / 2
        f, g = full_oracle(toy2, np.array([1.0]))
        assert f == 1.25
        assert g[0] == 2.5

    def test_zero_residual_at_planted_minimizer(self):
        p = gen_interpolating_least_squares(8, 16, seed=3, singular_values=[1.0, 1.5, 2.0])
        f, g = full_oracle(p, p.known.x_star)
        assert f == pytest.approx(0.0, abs=1e-24)
        assert np.linalg.norm(g) <= 1e-12

    def test_single_component_matches_batch(self):
        p = LeastSquaresProblem(A=np.array([[2.0, 1.0]]), b=np.array([0.5]))
        x = np.array([0.3, -0.7])
        f_full, g_full = full_oracle(p, x)
        f_batch, g_batch, _ = evaluate_batch(p, 0, x)
        assert f_full == f_batch
        assert np.array_equal(g_full, g_batch)


class TestLeastSquaresGenerator:
    def test_constants_for_unit_spectrum(self):
        # same spectrum as a 2x2 identity design
        p = gen_interpolating_least_squares(2, 2, seed=0, singular_values=[1.0, 1.0])
        assert p.known.L == pytest.approx(0.5, rel=1e-12)
        assert p.known.mu == pytest.approx(0.5, rel=1e-12)
        assert p.known.L_max == pytest.approx(1.0, rel=1e-12)

    def test_component_gradients_zero_at_x_star(self):
        for seed in range(3):
            p = gen_interpolating_least_squares(5, 8, seed=seed, singular_values=[1.0, 2.0, 0.5])
            for i in range(p.N):
                assert np.all(evaluate_batch(p, i, p.known.x_star)[1] == 0.0)

    def test_rank_deficient_pl_inequality(self):
        p = gen_interpolating_least_squares(5, 12, seed=11, singular_values=[1.0, 2.0, 3.0])
        assert p.known.mu == pytest.approx(1.0 / 5.0, rel=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.standard_normal(p.n) * 3.0
            f, g = full_oracle(p, x)
            assert 2.0 * p.known.mu * (f - p.known.f_star) <= float(g @ g) * (1.0 + 1e-9)

    def test_component_smoothness_constant(self):
        p = gen_interpolating_least_squares(6, 9, seed=2, singular_values=[0.5, 1.0, 2.5])
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, p.n))
            for i in range(p.N):
                lhs = np.linalg.norm(evaluate_batch(p, i, x)[1] - evaluate_batch(p, i, y)[1])
                assert lhs <= p.known.L_max * np.linalg.norm(x - y) * (1.0 + 1e-12)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(InvalidSpecError):
            gen_interpolating_least_squares(3, 3, seed=0, singular_values=[])
        with pytest.raises(InvalidSpecError):
            gen_interpolating_least_squares(3, 3, seed=0, singular_values=[0.0, 1.0])
        with pytest.raises(InvalidSpecError):
            gen_interpolating_least_squares(3, 3, seed=0, singular_values=[1.0] * 4)

    def test_under_parametrized_warns(self):
        with pytest.warns(UserWarning):
            gen_interpolating_least_squares(10, 4, seed=0, singular_values=[1.0])


class TestNonconvexGenerator:
    def test_planted_point_is_exactly_interpolating(self):
        p = gen_nonconvex_interpolating(7, 3, 4, seed=1)
        xs = p.known.x_star
        assert p.component_value(0, xs) == 0.0
        for i in range(p.N):
            assert np.all(evaluate_batch(p, i, xs)[1] == 0.0)

    def test_factor_scaling_invariance(self):
        p = gen_nonconvex_interpolating(5, 3, 4, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(p.n)
        u, V = p.unpack(x)
        for c in (2.0, 0.25):
            x_scaled = np.concatenate([c * u, (V / c).ravel()])
            for i in range(p.N):
                assert p.component_value(i, x_scaled) == pytest.approx(
                    p.component_value(i, x), rel=1e-9
                )

    def test_nonconvexity_witness(self):
        # finite-difference Hessian of f at a random point has a negative eigenvalue
        p = gen_nonconvex_interpolating(4, 2, 3, seed=0)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(p.n)
        h = 1e-4
        H = np.zeros((p.n, p.n))
        for j in range(p.n):
            e = np.zeros(p.n)
            e[j] = h
            gp = full_oracle(p, x + e)[1]
            gm = full_oracle(p, x - e)[1]
            H[:, j] = (gp - gm) / (2.0 * h)
        H = 0.5 * (H + H.T)
        assert np.min(np.linalg.eigvalsh(H)) < -1e-6


class TestUnbiasedness:
    def test_singleton_enumeration_matches_full_oracle(self, toy2):
        problems = [
            toy2,
            gen_interpolating_least_squares(6, 10, seed=9, singular_values=[1.0, 2.0]),
            gen_nonconvex_interpolating(5, 2, 3, seed=9),
        ]
        rng = np.random.default_rng(1)
        for p in problems:
            for _ in range(20):
                x = rng.standard_normal(p.n)
                fs, gs, _ = zip(*(evaluate_batch(p, i, x) for i in range(p.N)))
                f_mean = float(np.mean(fs))
                g_mean = np.mean(gs, axis=0)
                f, g = full_oracle(p, x)
                assert f_mean == pytest.approx(f, rel=1e-12, abs=1e-15)
                np.testing.assert_allclose(g_mean, g, rtol=1e-12, atol=1e-14)

    @given(x=st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_toy_unbiasedness_property(self, x):
        p = make_toy2()
        xv = np.array([x])
        f_mean = np.mean([evaluate_batch(p, i, xv)[0] for i in range(2)])
        assert f_mean == pytest.approx(full_oracle(p, xv)[0], rel=1e-12, abs=1e-15)


def _component_pass_mean(p, x):
    """The mean component value and gradient from component_pass, in one block."""
    r, grads = p.component_pass(x)
    return float((0.5 * r * r).mean()), grads(slice(0, p.N), np.empty((p.N, p.n))).mean(axis=0)


class TestGradientChecks:
    @pytest.mark.parametrize(
        "p, oracle",
        [
            pytest.param(p, oracle, id=family + path)
            for family, p in (
                ("least_squares", gen_interpolating_least_squares(5, 7, seed=21, singular_values=[0.5, 1.0, 3.0])),
                ("nonconvex", gen_nonconvex_interpolating(6, 2, 3, seed=21)),
            )
            for path, oracle in (
                ("", full_oracle),
                ("-singleton_batch_eval", lambda p, x: evaluate_batch(p, 1, x)[:2]),
                ("-component_grads_mean", lambda p, x: _component_pass_mean(p, x)),
            )
        ],
    )
    def test_full_gradient_matches_central_differences(self, p, oracle):
        rng = np.random.default_rng(13)
        for _ in range(25):
            x = rng.standard_normal(p.n)
            f, g = oracle(p, x)
            fd = central_diff_grad(lambda y: oracle(p, y)[0], x)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(g - fd) / denom <= 1e-5


class TestComponentGradsOwnership:
    """component_pass writes each block into an array that the caller owns."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: gen_interpolating_least_squares(6, 9, seed=3, singular_values=[1.0, 2.0]), id="least_squares"),
            pytest.param(lambda: gen_nonconvex_interpolating(5, 2, 3, seed=3), id="two_factor"),
        ],
    )
    def test_caller_may_overwrite_the_result(self, make):
        p = make()
        data = [p.A, p.b]
        before = [a.copy() for a in data]
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(p.n)
            r, grads = p.component_pass(x)
            assert r.tobytes() == (p.A @ p.features_rows(x[None])[0] - p.b).tobytes()
            out = np.full((3, p.n), np.nan)
            G = grads(slice(1, 4), out)
            assert G is out
            assert not any(np.shares_memory(G, a) for a in data + [r])
            # a block is its rows of the whole matrix
            want = component_grads(p, x)[1:4]
            assert G.tobytes() == want.tobytes()
            G[...] = np.nan
            assert grads(slice(1, 4), out).tobytes() == want.tobytes()
            # exact_moments centres the gradient and direction blocks in place
            exact_moments(p, [x])
            exact_moments(p, [x], one_row(DirectionState(kind="momentum"), p.n, x_prev=np.zeros(p.n)))
            assert all(np.array_equal(a, b) for a, b in zip(data, before))


class TestReadOnlyInstances:
    """A generated instance's arrays are read-only, so one instance can be shared."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: gen_interpolating_least_squares(6, 9, seed=3, singular_values=[1.0, 2.0]), id="least_squares"),
            pytest.param(lambda: gen_nonconvex_interpolating(5, 2, 3, seed=3), id="two_factor"),
        ],
    )
    def test_in_place_writes_raise(self, make):
        p = make()
        for a in (p.A, p.b, p.known.x_star):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0

    def test_callers_arrays_keep_their_flags(self):
        A, b = np.eye(2), np.ones(2)
        p = LeastSquaresProblem(A, b)
        assert p.A is A and p.b is b
        assert A.flags.writeable and b.flags.writeable


class TestBatchSampler:
    def test_deterministic_sequence(self):
        a = BatchSampler(10, seed=42)
        b = BatchSampler(10, seed=42)
        assert [a.draw() for _ in range(20)] == [b.draw() for _ in range(20)]

    def test_invalid_component_count(self):
        with pytest.raises(InvalidSpecError):
            BatchSampler(0)

    @given(
        N=st.sampled_from([1, 2, 7, 100, 1000, 2**33]),
        seed=st.integers(0, 2**32 - 1),
        draws=st.integers(1, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_draws_equal_sequential_draws(self, N, seed, draws):
        # draw() pre-draws indices in blocks; the stream must be the one that
        # one generator call per singleton gives
        s = BatchSampler(N, seed=seed)
        ref = np.random.default_rng(seed)
        for _ in range(draws):
            expected = int(ref.integers(0, N, size=1)[0])
            i = s.draw()
            assert type(i) is int and i == expected


U = np.finfo(np.float64).eps / 2.0


def _ray_instance(family, seed):
    if family == "least_squares":
        return gen_interpolating_least_squares(6, 9, seed=seed, singular_values=[0.5, 1.0, 3.0])
    return gen_nonconvex_interpolating(6, 3, 4, seed=seed)


def _ray(p, i, x, d):
    """phi(a) = f_i(x + a d) as the sampled oracle builds it."""
    return evaluate_batch(p, i, x)[2](d)


def _closed_form_coefficients(p, row, x, d):
    """(c1, c2) of the residual of row along x + a d, written out per family."""
    if isinstance(p, LeastSquaresProblem):
        return row @ d, 0.0
    (u, V), (du, dV) = p.unpack(x), p.unpack(d)
    Q = dV @ row
    return du @ (V @ row) + u @ Q, du @ Q


def _residual_envelope(p, i, x, d, a):
    """Exact-path residual at x + a d and a bound on |ray - exact|.

    Both paths sum the same products in a different order, so each is within
    gamma_k of the sum of their absolute values, M; the bound is twice
    gamma_k M, with k the number of rounded operations per residual.
    """
    a_i, b_i = p.A[i], p.b[i]
    y = x + a * d
    if isinstance(p, LeastSquaresProblem):
        r = a_i @ y - b_i
        M = np.abs(a_i) @ (np.abs(x) + abs(a) * np.abs(d)) + abs(b_i)
        k = p.n + 4
    else:
        u, V = p.unpack(y)
        r = a_i @ (u @ V) - b_i
        (xu, xV), (du, dV) = p.unpack(np.abs(x)), p.unpack(np.abs(d))
        M = np.abs(a_i) @ ((xu + abs(a) * du) @ (xV + abs(a) * dV)) + abs(b_i)
        k = p.n_u + p.n_v + 6
    gamma = k * U / (1.0 - k * U)
    return r, 2.0 * gamma * M


class TestBatchRay:
    @given(
        family=st.sampled_from(["least_squares", "two_factor"]),
        seed=st.integers(0, 2**16),
        i=st.integers(0, 5),
        scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e3]),
        alpha0=st.floats(1e-3, 10.0),
        j=st.integers(0, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_ray_matches_exact_path_within_rounding(self, family, seed, i, scale, alpha0, j):
        p = _ray_instance(family, seed % 7)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(p.n)
        d = scale * rng.standard_normal(p.n)
        phi = _ray(p, i, x, d)
        # phi(0) is the component value at x bit for bit
        assert phi(0.0) == p.component_value(i, x)
        assert phi(0.0) == evaluate_batch(p, i, x)[0]
        a = alpha0 * 0.5**j
        r, E = _residual_envelope(p, i, x, d, a)
        tol = float(E * (abs(r) + E)) + 4 * U * float(r * r)
        assert abs(phi(a) - p.component_value(i, x + a * d)) <= tol

    @given(
        family=st.sampled_from(["least_squares", "two_factor"]),
        seed=st.integers(0, 2**16),
        i=st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_reused_residual_gradient_gives_the_same_coefficients(self, family, seed, i):
        # the ray reuses J_w(x)^T a_i from the gradient's residual pass; the
        # coefficients must be the floats of a fresh V a_i
        p = _ray_instance(family, seed % 7)
        rng = np.random.default_rng(seed)
        X, D = rng.standard_normal((1, p.n)), rng.standard_normal((1, p.n))
        rows, R0 = p._residuals([i], X)
        reuse = p.pullback_rows(X, rows, R0)[1]
        C1, C2 = p.ray_coefficients_rows(rows, X, D, reuse)
        want = _closed_form_coefficients(p, p.A[i], X[0], D[0])
        assert (float(C1[0]), float(C2[0])) == (float(want[0]), float(want[1]))

    def test_least_squares_singleton_is_exact_at_zero(self):
        p = gen_interpolating_least_squares(10, 20, seed=3, singular_values=np.full(10, 2.0))
        rng = np.random.default_rng(4)
        for _ in range(200):
            i = int(rng.integers(p.N))
            x = p.known.x_star + 10.0 ** rng.uniform(-16, 0) * rng.standard_normal(p.n)
            d = rng.standard_normal(p.n)
            assert _ray(p, i, x, d)(0.0) == evaluate_batch(p, i, x)[0]

    def test_residual_is_affine_for_least_squares(self):
        # sgd step on one row: r(a) = r0 (1 - a ||a_i||^2), so the trial at
        # the exact minimizer along the ray reads 0 whatever r0 is
        p = LeastSquaresProblem(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        for r0 in (1.0, 1e-15, 3e-200):
            x = np.array([r0, 0.0])
            _, g, _ = evaluate_batch(p, 0, x)
            assert _ray(p, 0, x, -g)(0.5) == 0.0


class TestBatchEvalRows:
    """The stacked oracle gives each row the floats of evaluate_batch."""

    @given(
        family=st.sampled_from(["least_squares", "two_factor"]),
        seed=st.integers(0, 2**16),
        K=st.integers(1, 8),
        scale=st.sampled_from([1e-12, 1.0, 1e3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_one_component_calls_byte_for_byte(self, family, seed, K, scale):
        p = _ray_instance(family, seed % 7)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, p.N, size=K)  # repeated indices included
        X = scale * rng.standard_normal((K, p.n))
        D = rng.standard_normal((K, p.n))
        R0, G, ray_rows = p.batch_eval_rows(idx, X)
        C1, C2 = ray_rows(D)
        assert G.shape == (K, p.n)
        for k, i in enumerate(idx.tolist()):
            f, g, ray = evaluate_batch(p, i, X[k].copy())
            assert 0.5 * R0[k] * R0[k] == f
            assert G[k].tobytes() == g.tobytes()
            c1, c2 = _closed_form_coefficients(p, p.A[i], X[k], D[k])
            assert (float(C1[k]), float(C2[k])) == (float(c1), float(c2))
            a = float(rng.uniform(0.0, 2.0))
            assert ray_phi(float(R0[k]), float(C1[k]), float(C2[k]))(a) == ray(D[k].copy())(a)


class TestVectorValidation:
    def test_rejects_nan(self):
        with pytest.raises(NumericDomainError):
            as_vector(np.array([1.0, float("nan")]))

    def test_rejects_matrix(self):
        with pytest.raises(ShapeError):
            as_vector(np.zeros((2, 2)))

    def test_known_constants_validation(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        from slsopt import KnownConstants

        bad = LeastSquaresProblem(
            A, np.array([0.0, 0.0]), KnownConstants(f_star=1.0, x_star=np.zeros(2))
        )
        with pytest.raises(InvalidSpecError):
            bad.validate_known_constants()


class TestOneBufferOracles:
    """The oracles write each gradient into one array; the bits are those of
    the concatenate expressions they replace."""

    @given(
        family=st.sampled_from(["least_squares", "two_factor"]),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([0.0, 1e-150, 1e-3, 1.0, 1e3, 1e50]),
    )
    @settings(max_examples=200, deadline=None)
    def test_singleton_gradient_is_the_scaled_residual_gradient(self, family, seed, scale):
        # scale 0 puts signed zeros in x, so in u and in the outer product
        p = _ray_instance(family, seed % 7)
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(p.n)
        i = int(rng.integers(p.N))
        a_i = p.A[i]
        if family == "least_squares":
            r = float(a_i @ x) - float(p.b[i])
            want = r * a_i
        else:
            u, V = p.unpack(x)
            r = float(a_i @ (u @ V)) - float(p.b[i])
            want = r * np.concatenate([V @ a_i, np.outer(u, a_i).ravel()])
        assert evaluate_batch(p, i, x)[1].tobytes() == want.tobytes()

    @given(
        seed=st.integers(0, 2**16),
        n_u=st.integers(1, 7),
        n_v=st.integers(1, 7),
        scale=st.sampled_from([-2.5, 1e-3, 1.0, 7.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_factor_pullback_is_the_concatenate_form(self, seed, n_u, n_v, scale):
        p = gen_nonconvex_interpolating(5, n_u, n_v, seed=seed % 11)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(p.n)
        x[rng.random(p.n) < 0.2] = -0.0
        s = rng.standard_normal(n_v)
        u, V = p.unpack(x)
        want = np.concatenate([V @ s, np.outer(u, s).ravel()])
        G, reuse = p.pullback_rows(x[None], s[None], np.ones(1))
        assert G[0].tobytes() == want.tobytes()
        assert reuse[0].tobytes() == (V @ s).tobytes()
        assert p.pullback_rows(x[None], s[None], np.array([scale]))[0][0].tobytes() == (scale * want).tobytes()
        # the full-batch gradient is the pullback of the mean weighted row
        r = p.A @ (u @ V) - p.b
        full = np.concatenate([V @ ((p.A.T @ r) / p.N), np.outer(u, (p.A.T @ r) / p.N).ravel()])
        assert full_oracle(p, x)[1].tobytes() == full.tobytes()

    @given(
        v=arrays(np.float64, st.integers(0, 40), elements=st.floats(-1e300, 1e300)),
        bad=st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf])),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_dot_finiteness_check_is_isfinite(self, v, bad):
        for pos, value in bad:
            if v.size:
                v[pos % v.size] = value
        with np.errstate(over="ignore", invalid="ignore"):
            assert _all_finite(v) == bool(np.isfinite(v).all())

    def test_finite_vector_with_overflowing_norm_passes(self):
        v = np.full(1000, 1e200)
        with np.errstate(over="ignore"):
            assert not math.isfinite(v.dot(v))
            assert _all_finite(v)
            assert as_vector(v) is v


class TestUnbufferedMultiply:
    """Inside unbuffered(), np.multiply gives its floats to the bit; the buffer size is restored after."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, 1e308])

    @given(
        K=st.integers(1, 5),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        outer=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_products_are_np_multiply(self, K, n, seed, outer):
        # rows shorter and longer than the 16-entry buffer; signed zeros,
        # infinities, NaNs and overflowing products among the operands
        rng = np.random.default_rng(seed)

        def operand(shape):
            v = rng.standard_normal(shape)
            mask = rng.random(shape) < 0.3
            v[mask] = rng.choice(self.SPECIAL, size=int(mask.sum()))
            return v

        if outer:
            # the two-factor pullback's u s^T blocks
            a, b = operand((K, n))[:, :, None], operand((K, n))[:, None, :]
            out = np.empty((K, n, n))
        else:
            # a block of component gradients r_i a_i
            a, b = operand(K)[:, None], operand((K, n))
            out = np.empty((K, n))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.multiply(a, b)
            with unbuffered():
                assert np.getbufsize() == 16
                got = np.multiply(a, b, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()

    def test_buffer_size_is_restored(self):
        before = np.getbufsize()
        with unbuffered():
            np.multiply(np.ones((3, 1)), np.ones((3, 4)), out=np.empty((3, 4)))
        assert np.getbufsize() == before
        with pytest.raises(ValueError):
            with unbuffered():
                np.multiply(np.ones((3, 1)), np.ones((2, 4)), out=np.empty((3, 4)))
        assert np.getbufsize() == before
        with np.errstate():
            np.setbufsize(4096)
            with pytest.raises(ValueError):
                with unbuffered():
                    np.multiply(np.ones((3, 1)), np.ones((3, 4)), out=np.empty((2, 4)))
            assert np.getbufsize() == 4096
            # nested windows restore the size each found
            with unbuffered():
                np.setbufsize(64)
                with unbuffered():
                    assert np.getbufsize() == 16
                assert np.getbufsize() == 64
            assert np.getbufsize() == 4096
