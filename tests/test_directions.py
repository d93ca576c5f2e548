import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slsopt import (
    CG_VARIANTS,
    KINDS,
    DirectionState,
    SgrParams,
    propose_direction,
    safeguarded_direction,
    update_memory,
)
from slsopt.directions import MemoryRows
from slsopt.errors import InvalidSpecError, ShapeError, UnsatisfiableSafeguardError

from conftest import sgr_check


class TestSgrCheck:
    def test_negative_gradient_passes_with_unit_constants(self):
        g = np.array([3.0, -4.0])
        passed, violated = sgr_check(-g, g, SgrParams(c1=1.0, c2=1.0))
        assert passed and not violated

    def test_positive_gradient_fails_descent(self):
        g = np.array([1.0, 2.0])
        passed, violated = sgr_check(g, g, SgrParams(c1=10.0, c2=0.01))
        assert not passed
        assert violated == {"descent_bound"}

    def test_double_gradient_fails_norm(self):
        g = np.array([1.0, 0.0])
        passed, violated = sgr_check(-2.0 * g, g, SgrParams(c1=1.0, c2=1.0))
        assert not passed
        assert "norm_bound" in violated

    def test_zero_gradient_passes_only_with_zero_direction(self):
        g = np.zeros(3)
        assert sgr_check(np.zeros(3), g, SgrParams(c1=1.0, c2=1.0))[0]
        assert not sgr_check(np.array([0.0, 0.1, 0.0]), g, SgrParams(c1=1.0, c2=1.0))[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            sgr_check(np.zeros(2), np.zeros(3), SgrParams())

    def test_nan_direction_violates_both_bounds(self):
        passed, violated = sgr_check(np.array([np.nan, 0.0]), np.array([1.0, 2.0]), SgrParams())
        assert not passed
        assert violated == {"norm_bound", "descent_bound"}

    def test_params_invariant(self):
        with pytest.raises(InvalidSpecError):
            SgrParams(c1=0.5, c2=1.0)
        with pytest.raises(InvalidSpecError):
            SgrParams(c1=1.0, c2=0.0)
        for c1 in (np.nan, np.inf):
            with pytest.raises(InvalidSpecError, match="c1 < inf"):
                SgrParams(c1=c1, c2=0.1)


class TestProposeDirection:
    def test_sgd_negates(self):
        state = DirectionState(kind="sgd")
        g = np.array([3.0, -4.0])
        assert np.array_equal(propose_direction(state, g, np.zeros(2)), np.array([-3.0, 4.0]))

    def test_momentum_formula(self):
        state = DirectionState(kind="momentum", beta=0.5)
        state.x_prev = np.array([0.0, -1.0])
        x = np.array([0.0, 0.0])  # x - x_prev = (0, 1)
        d = propose_direction(state, np.array([1.0, 0.0]), x)
        assert np.array_equal(d, np.array([-1.0, 0.5]))

    def test_momentum_first_iteration_is_negative_gradient(self):
        state = DirectionState(kind="momentum", beta=0.9)
        g = np.array([1.0, 2.0])
        assert np.array_equal(propose_direction(state, g, np.zeros(2)), -g)

    def test_fletcher_reeves_ratio(self):
        state = DirectionState(kind="cg", cg_variant="fr")
        state.g_prev = np.array([2.0, 0.0])  # norm 2
        state.d_prev = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])  # norm 1 -> beta = 1/4
        d = propose_direction(state, g, np.zeros(2))
        assert np.array_equal(d, -g + 0.25 * state.d_prev)

    def test_pr_plus_clips_negative_to_zero(self):
        state = DirectionState(kind="cg", cg_variant="pr+")
        state.g_prev = np.array([1.0, 0.0])
        state.d_prev = np.array([5.0, 5.0])
        g = np.array([0.5, 0.0])  # g.(g - g_prev) = -0.25 < 0
        assert np.array_equal(propose_direction(state, g, np.zeros(2)), -g)

    def test_cg_beta_capped(self):
        state = DirectionState(kind="cg", cg_variant="fr", beta_cap=2.0)
        state.g_prev = np.array([1e-3, 0.0])
        state.d_prev = np.array([1.0, 0.0])
        g = np.array([1.0, 0.0])  # raw FR beta = 1e6
        d = propose_direction(state, g, np.zeros(2))
        assert np.array_equal(d, -g + 2.0 * state.d_prev)

    def test_cg_zero_previous_gradient_gives_plain_step(self):
        state = DirectionState(kind="cg")
        state.g_prev = np.zeros(2)
        state.d_prev = np.array([1.0, 1.0])
        g = np.array([1.0, 0.0])
        assert np.array_equal(propose_direction(state, g, np.zeros(2)), -g)

    def test_adagrad_first_iteration_scaling(self):
        state = DirectionState(kind="adagrad_diag", epsilon=1e-4)
        g = np.array([1.0, -2.0])
        d = propose_direction(state, g, np.zeros(2))
        np.testing.assert_allclose(d, -g / 1e-2, rtol=1e-15)

    def test_zero_gradient_keeps_memory_term_only(self):
        state = DirectionState(kind="momentum", beta=0.5)
        state.x_prev = np.array([1.0, 0.0])
        d = propose_direction(state, np.zeros(2), np.array([3.0, 0.0]))
        assert np.array_equal(d, np.array([1.0, 0.0]))


class TestSafeguardedDirection:
    def test_sgd_pass_through(self):
        state = DirectionState(kind="sgd")
        params = SgrParams(c1=1.0, c2=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.standard_normal(4)
            out = safeguarded_direction(state, g, np.zeros(4), params)
            assert out.sgr_pass and not out.restarted
            assert np.array_equal(out.d, -g)

    def test_momentum_restart_on_norm_violation(self):
        # ||raw|| = sqrt(101) > c1 ||g|| = 2
        state = DirectionState(kind="momentum", beta=1.0)
        state.x_prev = np.zeros(2)
        state.g_prev = np.array([1.0, 0.0])
        state.d_prev = np.array([-1.0, 0.0])
        x = np.array([0.0, 10.0])
        g = np.array([1.0, 0.0])
        assert np.array_equal(propose_direction(state, g, x), np.array([-1.0, 10.0]))
        out = safeguarded_direction(state, g, x, SgrParams(c1=2.0, c2=0.5))
        assert not out.sgr_pass
        assert out.restarted
        assert "norm_bound" in out.violated
        assert np.array_equal(out.d, -g)
        # history cleared by the restart
        assert state.x_prev is None and state.g_prev is None and state.d_prev is None

    def test_zero_gradient_outcome_is_zero(self):
        state = DirectionState(kind="sgd")
        out = safeguarded_direction(state, np.zeros(3), np.zeros(3), SgrParams(c1=1.0, c2=1.0))
        assert out.sgr_pass and not out.restarted
        assert np.all(out.d == 0.0)

    def test_nan_raw_direction_restarts_to_negative_gradient(self):
        state = DirectionState(kind="momentum", beta=0.9)
        state.x_prev = np.array([np.nan, 0.0])
        g = np.array([1.0, 2.0])
        out = safeguarded_direction(state, g, np.zeros(2), SgrParams())
        assert out.restarted and not out.sgr_pass
        assert np.array_equal(out.d, -g)
        assert (out.d_norm, out.dTg) == (float(np.linalg.norm(g)), -5.0)

    @pytest.mark.parametrize("field", ["beta", "epsilon", "beta_cap"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_constants_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=field):
            DirectionState(kind="momentum", **{field: value})

    def test_unsatisfiable_configuration(self):
        state = DirectionState(kind="sgd")
        with pytest.raises(UnsatisfiableSafeguardError):
            safeguarded_direction(state, np.ones(2), np.zeros(2), SgrParams(c1=0.5, c2=0.1))
        with pytest.raises(UnsatisfiableSafeguardError):
            safeguarded_direction(state, np.ones(2), np.zeros(2), SgrParams(c1=2.0, c2=1.5))

    @given(
        g=arrays(np.float64, 4, elements=st.floats(-1e3, 1e3, allow_nan=False)),
        dx=arrays(np.float64, 4, elements=st.floats(-1e3, 1e3, allow_nan=False)),
        beta=st.floats(0.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_post_safeguard_admissibility(self, g, dx, beta):
        # the emitted direction always satisfies both bounds when g != 0
        state = DirectionState(kind="momentum", beta=beta)
        state.x_prev = np.zeros(4)
        state.g_prev = g.copy()
        state.d_prev = -g
        params = SgrParams(c1=10.0, c2=0.1)
        out = safeguarded_direction(state, g, dx, params)
        if np.any(g != 0.0):
            gg = float(g @ g)
            assert float(np.linalg.norm(out.d)) <= params.c1 * float(np.linalg.norm(g))
            assert float(out.d @ g) <= -params.c2 * gg

    @given(
        g=arrays(np.float64, 5, elements=st.floats(-1e3, 1e3, allow_nan=False)),
        dx=arrays(np.float64, 5, elements=st.floats(-1e3, 1e3, allow_nan=False)),
        beta=st.floats(0.0, 2.0),
        c2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_outcome_scalars_are_the_trace_expressions(self, g, dx, beta, c2):
        # g_norm, d_norm and dTg are the floats the trace records, bit for
        # bit, whether the raw direction passes or is replaced by -g
        state = DirectionState(kind="momentum", beta=beta)
        state.x_prev = np.zeros(5)
        out = safeguarded_direction(state, g, dx, SgrParams(c1=1.5, c2=c2))
        assert out.g_norm == float(np.linalg.norm(g))
        assert out.d_norm == float(np.linalg.norm(out.d))
        assert out.dTg == float(out.d @ g)


def _state_for(kind, beta, a, b):
    """A state of the given kind whose raw direction depends on a and b."""
    state = DirectionState(kind=kind, beta=beta, beta_cap=10.0)
    if kind == "momentum":
        state.x_prev = b
    elif kind == "cg":
        state.g_prev, state.d_prev = b, a
    elif kind == "adagrad_diag":
        state.accum = a * a
    return state


@st.composite
def _safeguard_case(draw):
    n = draw(st.integers(1, 300))
    elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    g, a, b = (draw(arrays(np.float64, n, elements=elements)) for _ in range(3))
    c2 = draw(st.floats(0.0, 1.0, exclude_min=True))
    c1 = draw(st.floats(1.0, 1e6))
    return g, a, b, SgrParams(c1=c1, c2=c2)


class TestSafeguardProperties:
    """The safeguard for random 0 < c2 <= 1 <= c1, g and raw directions."""

    @given(case=_safeguard_case(), kind=st.sampled_from(KINDS), beta=st.floats(0.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_outcome_meets_both_bounds_without_slack(self, case, kind, beta):
        g, a, b, params = case
        out = safeguarded_direction(_state_for(kind, beta, a, b), g, a, params)
        assert np.linalg.norm(out.d) <= params.c1 * np.linalg.norm(g)
        assert float(out.d @ g) <= -params.c2 * float(g @ g)
        assert sgr_check(out.d, g, params) == (True, frozenset())

    @given(case=_safeguard_case(), kind=st.sampled_from(KINDS), beta=st.floats(0.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_scalars_equal_numpy_norms_bit_for_bit(self, case, kind, beta):
        g, a, b, params = case
        state = _state_for(kind, beta, a, b)
        raw = propose_direction(state, g, a)
        out = safeguarded_direction(state, g, a, params)
        assert out.g_norm == float(np.linalg.norm(g))
        assert out.d_norm == float(np.linalg.norm(out.d))
        assert out.dTg == float(out.d @ g)
        assert out.restarted == (not out.sgr_pass) == bool(sgr_check(raw, g, params)[1])


class TestUpdateMemoryStoresItsInputs:
    @pytest.mark.parametrize("kind", KINDS)
    def test_memory_equals_the_arguments(self, kind):
        rng = np.random.default_rng(11)
        x_old, g, d = (rng.standard_normal(7) for _ in range(3))
        given_values = [v.copy() for v in (x_old, g, d)]
        state = DirectionState(kind=kind)
        update_memory(state, x_old, g, d)
        stored = (state.x_prev, state.g_prev, state.d_prev)
        for kept, arg, value in zip(stored, (x_old, g, d), given_values):
            # stored by reference: the caller owns the arrays and leaves them be
            assert kept is arg
            assert np.array_equal(kept, value)


class TestMatrixFormEquivalence:
    def test_momentum_equals_diagonal_preconditioner(self):
        # -(I - beta diag(dx_i / g_i)) g == -g + beta dx, entrywise
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal(6)
            g[np.abs(g) < 1e-3] = 1e-3  # keep entries away from zero
            dx = rng.standard_normal(6)
            beta = rng.uniform(0.1, 1.5)
            H = np.eye(6) - beta * np.diag(dx / g)
            lhs = -H @ g
            rhs = -g + beta * dx
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestBoundedEigenvalueSufficiency:
    def test_spd_preconditioned_directions_pass(self):
        # d = -H g with spec(H) inside [c2, c1] always satisfies both bounds
        rng = np.random.default_rng(9)
        params = SgrParams(c1=5.0, c2=0.2)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            margin = 0.01 * (params.c1 - params.c2)
            eigs = rng.uniform(params.c2 + margin, params.c1 - margin, size=n)
            H = (q * eigs) @ q.T
            g = rng.standard_normal(n)
            passed, violated = sgr_check(-H @ g, g, params)
            assert passed, violated


class TestUpdateMemory:
    def test_first_update_populates_memory(self):
        state = DirectionState(kind="momentum", beta=0.5)
        x_old = np.array([1.0, 1.0])
        x_new = np.array([0.5, 1.0])
        g = np.array([1.0, 0.0])
        update_memory(state, x_old, g, -g)
        assert np.array_equal(state.x_prev, x_old)
        assert np.array_equal(state.g_prev, g)
        # next proposal is now well-defined
        d = propose_direction(state, np.array([0.0, 1.0]), x_new)
        assert np.array_equal(d, np.array([-0.25, -1.0]))

    def test_adagrad_accumulates_squares(self):
        state = DirectionState(kind="adagrad_diag")
        g = np.array([1.0, 2.0])
        update_memory(state, np.zeros(2), g, -g)
        assert np.array_equal(state.accum, np.array([1.0, 4.0]))
        update_memory(state, np.zeros(2), g, -g)
        assert np.array_equal(state.accum, np.array([2.0, 8.0]))

    def test_cg_memory_after_restart_stores_fallback(self):
        state = DirectionState(kind="cg", cg_variant="pr+", beta_cap=10.0)
        state.g_prev = np.array([1e-8, 0.0])
        state.d_prev = np.array([1e6, 1e6])
        g = np.array([1.0, 0.0])
        out = safeguarded_direction(state, g, np.zeros(2), SgrParams(c1=2.0, c2=0.5))
        assert out.restarted
        update_memory(state, np.zeros(2), g, out.d)
        assert np.array_equal(state.d_prev, -g)

    def test_fresh_clears_memory_only(self):
        state = DirectionState(kind="momentum", beta=0.7)
        state.x_prev = np.ones(2)
        fresh = state.fresh()
        assert fresh.beta == 0.7
        assert fresh.x_prev is None
        assert state.x_prev is not None  # original untouched


# Finite entries that cannot overflow the recipes below; subnormals and
# signed zeros included.
_entries = st.floats(-1e100, 1e100)


def _vectors(count, elements=_entries):
    return st.integers(1, 30).flatmap(
        lambda n: st.tuples(*[arrays(np.float64, n, elements=elements)] * count)
    )


class TestOneBufferDirections:
    """Each recipe builds its direction in one array; the bits are those of
    the formula it replaces."""

    @given(vecs=_vectors(3), beta=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_momentum(self, vecs, beta):
        g, x, x_prev = vecs
        state = DirectionState(kind="momentum", beta=beta)
        state.x_prev = x_prev
        want = -g + beta * (x - x_prev)
        assert propose_direction(state, g, x).tobytes() == want.tobytes()

    @given(
        vecs=_vectors(3),
        variant=st.sampled_from(["fr", "pr+"]),
        beta_cap=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_cg(self, vecs, variant, beta_cap):
        g, g_prev, d_prev = vecs
        state = DirectionState(kind="cg", cg_variant=variant, beta_cap=beta_cap)
        state.g_prev, state.d_prev = g_prev, d_prev
        denom = float(g_prev @ g_prev)
        if denom == 0.0:
            beta_k = 0.0
        elif variant == "fr":
            beta_k = float(g @ g) / denom
        else:
            beta_k = max(0.0, float(g @ (g - g_prev)) / denom)
        want = -g + min(beta_k, beta_cap) * d_prev
        assert propose_direction(state, g, np.zeros_like(g)).tobytes() == want.tobytes()

    @given(
        vecs=_vectors(2, st.floats(0.0, 1e100)),
        epsilon=st.floats(1e-300, 1.0),
        empty=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_adagrad(self, vecs, epsilon, empty):
        g, acc = vecs
        g = g - acc  # both signs and signed zeros
        state = DirectionState(kind="adagrad_diag", epsilon=epsilon)
        if empty:
            acc = np.zeros_like(g)
        else:
            state.accum = acc
        want = -g / np.sqrt(acc + epsilon)
        assert propose_direction(state, g, np.zeros_like(g)).tobytes() == want.tobytes()
        update_memory(state, g, g, g)
        assert state.accum.tobytes() == (acc + g * g).tobytes()


class TestDirectionRows:
    """A stack of gradients on one shared memory (MemoryRows.broadcast) is the
    stack of one-gradient calls; exact_moments builds its direction matrix so
    (see test_diagnostics.TestDirectionMatrix)."""

    @pytest.mark.parametrize("variant", CG_VARIANTS)
    def test_overflowing_and_nan_beta_keep_the_scalar_meaning(self, variant):
        # beta_k = 1e300 / 1e-20 overflows to inf and is capped; a NaN row
        # stays NaN under fr and is clipped to 0 under pr+; no warning either way
        state = DirectionState(kind="cg", cg_variant=variant, beta_cap=2.0)
        state.g_prev = np.array([1e-10, 0.0])
        state.d_prev = np.array([1.0, -1.0])
        G = np.array([[1e150, 0.0], [np.nan, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = MemoryRows.broadcast(state, *G.shape).propose(G, np.zeros(2))
            rows = np.stack([propose_direction(state, g, np.zeros(2)) for g in G])
        assert D.tobytes() == rows.tobytes()
        assert np.array_equal(D[0], 2.0 * state.d_prev - G[0])

    def test_negates_gradient_until_the_first_update(self):
        memory = dict(x_prev=np.ones(2), g_prev=np.ones(2), d_prev=-np.ones(2), accum=np.ones(2))
        for kind in KINDS:
            assert DirectionState(kind=kind).negates_gradient == (kind != "adagrad_diag")
            assert DirectionState(kind=kind, **memory).negates_gradient == (kind == "sgd")
        assert DirectionState(kind="cg", g_prev=np.ones(2)).negates_gradient


@st.composite
def _lockstep_rows(draw):
    """K runs' (memory or None, gradient, iterate), with gradients at cg's corners."""
    n, K = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    elements = st.floats(-1e3, 1e3)  # signed zeros and subnormals included

    def vec():
        return draw(arrays(np.float64, n, elements=elements))

    rows = []
    for _ in range(K):
        g_prev = vec()
        memory = None
        if draw(st.booleans()):
            memory = dict(x_prev=vec(), g_prev=g_prev, d_prev=vec(), accum=np.abs(vec()))
        g = draw(st.sampled_from([vec(), np.zeros(n), g_prev, 0.5 * g_prev, 1e3 * g_prev, -g_prev]))
        rows.append((memory, g, vec()))
    return rows


def _memories(spec, rows):
    """A MemoryRows and the K DirectionStates it stands for."""
    n = len(rows[0][1])
    memory_rows = MemoryRows(spec, len(rows), n)
    states = []
    for k, (memory, _, _) in enumerate(rows):
        state = spec.fresh()
        if memory is not None:
            # update_memory sets the three history fields together, and accum
            # only for adagrad_diag
            state.x_prev, state.g_prev, state.d_prev = memory["x_prev"], memory["g_prev"], memory["d_prev"]
            if spec.kind == "adagrad_diag":
                state.accum = memory["accum"]
            for name in MemoryRows.FIELDS[spec.kind]:
                getattr(memory_rows, name)[k] = memory[name]
            memory_rows.has_history[k] = True
        states.append(state)
    return memory_rows, states


class TestMemoryRows:
    """Each row of a MemoryRows behaves as its own run's DirectionState."""

    @given(
        rows=_lockstep_rows(),
        kind=st.sampled_from(KINDS),
        variant=st.sampled_from(CG_VARIANTS),
        beta=st.floats(-2.0, 2.0),
        beta_cap=st.floats(1e-3, 10.0),
        bounds=st.sampled_from([(1.0, 1.0), (10.0, 0.1), (1.5, 0.5)]),
        step=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_one_run_calls_byte_for_byte(self, rows, kind, variant, beta, beta_cap, bounds, step):
        spec = DirectionState(kind=kind, cg_variant=variant, beta=beta, beta_cap=beta_cap)
        params = SgrParams(*bounds)
        memory_rows, states = _memories(spec, rows)
        G = np.stack([g for _, g, _ in rows])
        X = np.stack([x for _, _, x in rows])

        D = memory_rows.propose(G, X)
        for k, state in enumerate(states):
            assert D[k].tobytes() == propose_direction(state, G[k], X[k]).tobytes()

        violated, g_norm, d_norm, dTg = memory_rows.safeguard(D, G, MemoryRows.gradient_squares(G), params)
        for k, state in enumerate(states):
            out = safeguarded_direction(state, G[k], X[k], params)
            assert D[k].tobytes() == out.d.tobytes()
            assert (violated[k], g_norm[k], d_norm[k], dTg[k]) == (out.violated, out.g_norm, out.d_norm, out.dTg)
            if kind in ("momentum", "cg"):
                assert memory_rows.has_history[k] == (not state.negates_gradient)

        stepped = np.array(step[: len(rows)])
        before = {name: getattr(memory_rows, name).copy() for name in MemoryRows.FIELDS[kind]}
        memory_rows.update(None if stepped.all() else stepped, X, G, D)
        for k, state in enumerate(states):
            if stepped[k]:
                update_memory(state, X[k], G[k], D[k])
            for name in MemoryRows.FIELDS[kind]:
                want = getattr(state, name) if stepped[k] else before[name][k]
                assert getattr(memory_rows, name)[k].tobytes() == want.tobytes()
            if kind in ("momentum", "cg") and stepped[k]:
                assert memory_rows.has_history[k]

    @pytest.mark.parametrize("variant", CG_VARIANTS)
    def test_cg_beta_corners_need_no_warning(self, variant):
        # per row: beta_k overflows to inf and is capped, a NaN row, and a
        # zero stored gradient; no warning is raised for any of them
        spec = DirectionState(kind="cg", cg_variant=variant, beta_cap=2.0)
        memory_rows = MemoryRows(spec, 3, 2)
        memory_rows.g_prev[:] = [[1e-10, 0.0], [1.0, 1.0], [0.0, 0.0]]
        memory_rows.d_prev[:] = [[1.0, -1.0], [1.0, 2.0], [3.0, 4.0]]
        memory_rows.has_history[:] = True
        G = np.array([[1e150, 0.0], [np.nan, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = memory_rows.propose(G, np.zeros((3, 2)))
        for k in range(3):
            state = DirectionState(kind="cg", cg_variant=variant, beta_cap=2.0,
                                   g_prev=memory_rows.g_prev[k], d_prev=memory_rows.d_prev[k])
            assert D[k].tobytes() == propose_direction(state, G[k], np.zeros(2)).tobytes()

    def test_keep_drops_rows(self):
        memory_rows = MemoryRows(DirectionState(kind="cg"), 3, 2)
        memory_rows.g_prev[:] = np.arange(6.0).reshape(3, 2)
        memory_rows.has_history[:] = [True, False, True]
        memory_rows.keep(np.array([True, False, True]))
        assert memory_rows.g_prev.tolist() == [[0.0, 1.0], [4.0, 5.0]]
        assert memory_rows.d_prev.shape == (2, 2)
        assert memory_rows.has_history.tolist() == [True, True]
