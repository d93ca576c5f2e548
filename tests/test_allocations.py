"""Full-length arrays that one oracle or direction call, or one run iteration, allocates.

On the 40,200-variable two-factor model each call should allocate the
vectors it returns and no temporary of that size, and an iteration of a run
none at all. numpy reports its buffers to tracemalloc, so the peak traced
above the level at the start of a call counts every temporary; it is
reported in units of one length-n float64 vector. The small remainder above
a whole number is the residuals, the features, V a_i and one ufunc iterator
buffer.
"""

import tracemalloc

import numpy as np
import pytest

from slsopt import (
    DirectionState,
    KnownConstants,
    LeastSquaresProblem,
    LineSearchParams,
    RunConfig,
    RunSettings,
    SgrParams,
    evaluate_batch,
    full_oracle,
    gen_nonconvex_interpolating,
    safeguarded_direction,
)
from slsopt import _store, optimizer

from one_gradient import one_row


@pytest.fixture(scope="module")
def wide():
    # the instance of bench/configs/twofactor_wide.ini: n = 200 + 200 * 200
    p = gen_nonconvex_interpolating(100, 200, 200, seed=2024)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(p.n) / np.sqrt(p.n)
    g = evaluate_batch(p, 3, x)[1]
    return p, x, g


def _peak_vectors(fn, n):
    """Peak traced bytes above the starting level while fn runs, in vectors."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * n), result


class TestOracleAllocations:
    # The gradient is the one vector kept. Before the gradient was written
    # in one array these read 2.1 and 2.0: a concatenate of two blocks,
    # then a scaled copy, then a boolean array for the finiteness check.
    def test_evaluate_batch(self, wide):
        p, x, _ = wide
        peak, _ = _peak_vectors(lambda: evaluate_batch(p, 7, x), p.n)
        assert 1.0 <= peak <= 1.5

    def test_full_oracle(self, wide):
        p, x, _ = wide
        peak, _ = _peak_vectors(lambda: full_oracle(p, x), p.n)
        assert 1.0 <= peak <= 1.5


class TestDirectionAllocations:
    # The direction is the one vector kept, here from a MemoryRows of one
    # row. Before each recipe was built in its own buffer, momentum and cg
    # read 2.0 and adagrad_diag 3.0.
    @pytest.mark.parametrize(
        "kind, variant",
        [("sgd", "pr+"), ("momentum", "pr+"), ("cg", "pr+"), ("cg", "fr"), ("adagrad_diag", "pr+")],
    )
    def test_safeguarded_direction(self, wide, kind, variant):
        p, x, g = wide
        state = one_row(DirectionState(kind=kind, cg_variant=variant), p.n,
                        x_prev=x - 1e-3 * g, g_prev=1.1 * g, d_prev=-1.1 * g, accum=np.ones(p.n))
        peak, out = _peak_vectors(lambda: safeguarded_direction(state, g, x, SgrParams()), p.n)
        assert not out.restarted
        assert 1.0 <= peak <= 1.1

    # A restart writes -g into the rejected proposal's own buffer. When -g
    # was a second array, these read 2.0.
    @pytest.mark.parametrize(
        "kind, variant",
        [("momentum", "pr+"), ("cg", "pr+"), ("cg", "fr"), ("adagrad_diag", "pr+")],
    )
    def test_restarting_proposal(self, wide, kind, variant):
        p, x, g = wide
        state = one_row(
            DirectionState(kind=kind, cg_variant=variant),
            p.n,
            x_prev=x - 1e3 * g,  # momentum: 900 g - g
            g_prev=0.5 * g,  # cg: beta_k 4 (fr) or 2 (pr+), so d = beta_k g - g
            d_prev=g.copy(),
            accum=np.zeros(p.n),  # adagrad_diag: -g / 1e-4
        )
        peak, out = _peak_vectors(lambda: safeguarded_direction(state, g, x, SgrParams()), p.n)
        assert out.restarted
        assert np.array_equal(out.d, -g)
        assert peak <= 1.1


class TestRunAllocations:
    # run_many holds its (K, n) stacks for the whole run: the gradient, the
    # direction and the step are written into them, and sgd forms no
    # direction at all. The memory copies into stacks of its own, and
    # adagrad_diag squares the gradients into one of them. Each interval
    # runs from the start of one search to the start of the next, so it
    # holds one whole iteration; the only trace point is at k = 0, before
    # the first search.
    @pytest.mark.parametrize("kind", ["sgd", "momentum", "cg", "adagrad_diag"])
    def test_iterations_allocate_no_vector(self, wide, monkeypatch, kind):
        p = wide[0]
        config = RunConfig(
            problem=p,
            direction=DirectionState(kind=kind),
            linesearch=LineSearchParams(alpha0_policy="warm_increase"),
            sgr=SgrParams(),
            run=RunSettings(max_iters=8, grad_tol=0.0, fgap_tol=0.0, trace_every=100),
        )
        marks = []
        real = optimizer.backtrack

        def marked(*args):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return real(*args)

        monkeypatch.setattr(optimizer, "backtrack", marked)
        tracemalloc.start()
        try:
            result = optimizer.run(config)
        finally:
            tracemalloc.stop()
        assert result.status == "max_iters" and len(marks) == 8
        # after the first iteration
        peaks = [(marks[i + 1][1] - marks[i][0]) / (8 * p.n) for i in range(1, len(marks) - 1)]
        assert max(peaks) < 0.5


class TestStoreAllocations:
    # np.save writes each array from its buffer and hashlib digests it in
    # place, so publishing the 16 MB A of the 1000 x 2000 spec of
    # bench/configs/diagnose_wide.ini stages no copy of it.
    def test_publishing_copies_no_array(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((1000, 2000))
        x_star = rng.standard_normal(2000)
        b = A @ x_star
        problem = LeastSquaresProblem(A, b, KnownConstants(x_star=x_star))
        shapes = (A.shape, b.shape, x_star.shape)
        peak, out = _peak_vectors(lambda: _store.fetch(("peak",), shapes, lambda: problem, None), A.size)
        assert out is problem
        assert peak < 0.5

        def unexpected():
            raise AssertionError("a stored entry was built again")

        read = _store.fetch(("peak",), shapes, unexpected, lambda *arrays: arrays)
        assert [a.tobytes() for a in read] == [a.tobytes() for a in (A, b, x_star)]
