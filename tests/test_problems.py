import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsopt import (
    Batch,
    BatchSampler,
    FiniteSumProblem,
    LeastSquaresProblem,
    evaluate_batch,
    full_oracle,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
    load_least_squares,
    save_least_squares,
)
from slsopt.errors import (
    InvalidBatchError,
    InvalidSpecError,
    NumericDomainError,
    ShapeError,
)
from slsopt.problems import as_vector

from conftest import central_diff_grad, make_toy2


class TestEvaluateBatch:
    def test_single_row_least_squares(self):
        # f(x) = (a.x - b)^2 / 2 with a = (1, 0), b = 0 at x = (2, 3)
        p = LeastSquaresProblem(A=np.array([[1.0, 0.0]]), b=np.array([0.0]))
        f, g = evaluate_batch(p, Batch((0,)), np.array([2.0, 3.0]))
        assert f == 2.0
        assert np.array_equal(g, np.array([2.0, 0.0]))

    def test_singleton_gradient_vanishes_at_planted_minimizer(self):
        p = gen_interpolating_least_squares(6, 10, seed=5, singular_values=[1.0, 2.0])
        for i in range(p.N):
            _, g = evaluate_batch(p, Batch((i,)), p.known.x_star)
            assert np.all(g == 0.0)

    def test_two_component_full_batch(self, toy2):
        f, g = evaluate_batch(toy2, Batch((0, 1)), np.array([1.0]))
        assert f == 0.75
        assert g[0] == 1.5

    def test_duplicate_indices_count_twice(self, toy2):
        f, g = evaluate_batch(toy2, Batch((1, 1)), np.array([1.0]))
        assert f == 1.0
        assert g[0] == 2.0

    def test_out_of_range_index(self, toy2):
        with pytest.raises(InvalidBatchError):
            evaluate_batch(toy2, Batch((2,)), np.array([1.0]))

    def test_empty_batch(self, toy2):
        with pytest.raises(InvalidBatchError):
            evaluate_batch(toy2, (), np.array([1.0]))

    def test_wrong_dimension(self, toy2):
        with pytest.raises(ShapeError):
            evaluate_batch(toy2, Batch((0,)), np.array([1.0, 2.0]))

    def test_non_finite_evaluation(self):
        bad = FiniteSumProblem(
            n=1,
            components=[(lambda x: float("inf"), lambda x: np.array([1.0]))],
        )
        with pytest.raises(NumericDomainError):
            evaluate_batch(bad, Batch((0,)), np.array([1.0]))


class TestFullOracle:
    def test_two_component_average(self, toy2):
        f, g = full_oracle(toy2, np.array([1.0]))
        assert f == 0.75
        assert g[0] == 1.5

    def test_zero_residual_at_planted_minimizer(self):
        p = gen_interpolating_least_squares(8, 16, seed=3, singular_values=[1.0, 1.5, 2.0])
        f, g = full_oracle(p, p.known.x_star)
        assert f == pytest.approx(0.0, abs=1e-24)
        assert np.linalg.norm(g) <= 1e-12

    def test_single_component_matches_batch(self):
        p = LeastSquaresProblem(A=np.array([[2.0, 1.0]]), b=np.array([0.5]))
        x = np.array([0.3, -0.7])
        f_full, g_full = full_oracle(p, x)
        f_batch, g_batch = evaluate_batch(p, Batch((0,)), x)
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
                assert np.all(p.component_grad(i, p.known.x_star) == 0.0)

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
                lhs = np.linalg.norm(p.component_grad(i, x) - p.component_grad(i, y))
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
        assert p.batch_value((0,), xs) == 0.0
        for i in range(p.N):
            assert np.all(p.component_grad(i, xs) == 0.0)

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
                fs, gs = zip(*(evaluate_batch(p, Batch((i,)), x) for i in range(p.N)))
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
        f_mean = np.mean([evaluate_batch(p, Batch((i,)), xv)[0] for i in range(2)])
        assert f_mean == pytest.approx(full_oracle(p, xv)[0], rel=1e-12, abs=1e-15)


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
                ("-singleton_batch_eval", lambda p, x: p.batch_eval((1,), x)),
                ("-duplicate_batch_eval", lambda p, x: p.batch_eval((0, 2, 0), x)),
                ("-component_grads_mean", lambda p, x: (p.component_values(x).mean(), p.component_grads(x).mean(axis=0))),
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


class TestBatchSampler:
    def test_deterministic_sequence(self):
        a = BatchSampler(10, seed=42)
        b = BatchSampler(10, seed=42)
        assert [a.draw() for _ in range(20)] == [b.draw() for _ in range(20)]

    def test_enumeration_covers_all_components(self):
        s = BatchSampler(4, mode="singleton", seed=0)
        assert [b.indices for b in s.enumerate_singletons()] == [(0,), (1,), (2,), (3,)]

    def test_with_replacement_size(self):
        s = BatchSampler(5, mode="with_replacement", batch_size=3, seed=1)
        batch = s.draw()
        assert batch.size == 3
        assert all(0 <= i < 5 for i in batch.indices)

    def test_invalid_modes(self):
        with pytest.raises(InvalidSpecError):
            BatchSampler(5, mode="bogus")
        with pytest.raises(InvalidSpecError):
            BatchSampler(5, mode="singleton", batch_size=2)
        with pytest.raises(InvalidSpecError):
            BatchSampler(0)


    @given(
        N=st.sampled_from([1, 2, 7, 100, 1000, 2**33]),
        batch_size=st.sampled_from([1, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        draws=st.integers(1, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_draws_equal_sequential_draws(self, N, batch_size, seed, draws):
        # draw() pre-draws indices in blocks; the stream must be the one that
        # one generator call per batch gives
        mode = "singleton" if batch_size == 1 else "with_replacement"
        s = BatchSampler(N, mode=mode, batch_size=batch_size, seed=seed)
        ref = np.random.default_rng(seed)
        for _ in range(draws):
            expected = tuple(int(i) for i in ref.integers(0, N, size=batch_size))
            assert s.draw().indices == expected


U = np.finfo(np.float64).eps / 2.0


def _ray_instance(family, seed):
    if family == "least_squares":
        return gen_interpolating_least_squares(6, 9, seed=seed, singular_values=[0.5, 1.0, 3.0])
    return gen_nonconvex_interpolating(6, 3, 4, seed=seed)


def _residual_envelope(p, idx, x, d, a):
    """Exact-path residuals at x + a d and a bound on |ray - exact| per row.

    Both paths sum the same products in a different order, so each is within
    gamma_k of the sum of their absolute values, M_i; the bound is twice
    gamma_k M_i, with k the number of rounded operations per residual.
    """
    A, b = p.A[list(idx)], p.b[list(idx)]
    y = x + a * d
    if isinstance(p, LeastSquaresProblem):
        r = A @ y - b
        M = np.abs(A) @ (np.abs(x) + abs(a) * np.abs(d)) + np.abs(b)
        k = p.n + 4
    else:
        u, V = p.unpack(y)
        r = A @ (u @ V) - b
        (xu, xV), (du, dV) = p.unpack(np.abs(x)), p.unpack(np.abs(d))
        M = np.abs(A) @ ((xu + abs(a) * du) @ (xV + abs(a) * dV)) + np.abs(b)
        k = p.n_u + p.n_v + 6
    gamma = k * U / (1.0 - k * U)
    return r, 2.0 * gamma * M


class TestBatchRay:
    @given(
        family=st.sampled_from(["least_squares", "two_factor"]),
        seed=st.integers(0, 2**16),
        idx=st.lists(st.integers(0, 5), min_size=1, max_size=5),
        scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e3]),
        alpha0=st.floats(1e-3, 10.0),
        j=st.integers(0, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_ray_matches_exact_path_within_rounding(self, family, seed, idx, scale, alpha0, j):
        p = _ray_instance(family, seed % 7)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(p.n)
        d = scale * rng.standard_normal(p.n)
        idx = tuple(idx)
        phi = p.batch_ray(idx, x, d)
        # phi(0) is the batch value at x bit for bit, on every path
        assert phi(0.0) == p.batch_value(idx, x)
        if len(idx) == 1:
            assert phi(0.0) == evaluate_batch(p, Batch(idx), x)[0]
        a = alpha0 * 0.5**j
        r, E = _residual_envelope(p, idx, x, d, a)
        tol = float(np.mean(E * (np.abs(r) + E))) + 4 * U * float(np.mean(r * r))
        assert abs(phi(a) - p.batch_value(idx, x + a * d)) <= tol

    def test_least_squares_singleton_is_exact_at_zero(self):
        p = gen_interpolating_least_squares(10, 20, seed=3, singular_values=np.full(10, 2.0))
        rng = np.random.default_rng(4)
        for _ in range(200):
            i = int(rng.integers(p.N))
            x = p.known.x_star + 10.0 ** rng.uniform(-16, 0) * rng.standard_normal(p.n)
            d = rng.standard_normal(p.n)
            assert p.batch_ray((i,), x, d)(0.0) == evaluate_batch(p, Batch((i,)), x)[0]

    def test_residual_is_affine_for_least_squares(self):
        # sgd step on one row: r(a) = r0 (1 - a ||a_i||^2), so the trial at
        # the exact minimizer along the ray reads 0 whatever r0 is
        p = LeastSquaresProblem(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        for r0 in (1.0, 1e-15, 3e-200):
            x = np.array([r0, 0.0])
            _, g = evaluate_batch(p, Batch((0,)), x)
            assert p.batch_ray((0,), x, -g)(0.5) == 0.0

    @given(
        seed=st.integers(0, 2**16),
        idx=st.lists(st.integers(0, 1), min_size=1, max_size=4),
        a=st.floats(0.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_base_class_path_is_batch_value(self, seed, idx, a):
        p = make_toy2()
        rng = np.random.default_rng(seed)
        x, d = rng.standard_normal(1), rng.standard_normal(1)
        assert p.batch_ray(idx, x, d)(a) == p.batch_value(idx, x + a * d)


class TestTextFormat:
    def test_round_trip_preserves_evaluations(self, tmp_path):
        p = gen_interpolating_least_squares(5, 8, seed=17, singular_values=[1.0, 2.0])
        path = tmp_path / "instance.txt"
        save_least_squares(p, path)
        q = load_least_squares(path)
        assert np.array_equal(p.A, q.A)
        assert np.array_equal(p.b, q.b)
        assert q.known.L == pytest.approx(p.known.L, rel=1e-10)
        assert q.known.mu == pytest.approx(p.known.mu, rel=1e-10)
        assert q.known.L_max == pytest.approx(p.known.L_max, rel=1e-12)
        assert q.known.f_star == 0.0
        rng = np.random.default_rng(0)
        x = rng.standard_normal(p.n)
        fp, gp = full_oracle(p, x)
        fq, gq = full_oracle(q, x)
        assert fp == fq
        assert np.array_equal(gp, gq)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        with pytest.raises(InvalidSpecError):
            load_least_squares(path)


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
