"""One BLAS thread per run and per build: the pin, its restore paths, and thread-independent bytes."""

import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import slsopt
from slsopt import (
    DirectionState,
    LeastSquaresProblem,
    LineSearchParams,
    RunConfig,
    SgrParams,
    _blas,
    cli,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
    optimizer,
    problems,
    run,
)
from slsopt.errors import CertificateError

needs_openblas = pytest.mark.skipif(
    _blas.openblas() is None, reason="numpy is not linked to a bundled OpenBLAS"
)


def small_config(problem, **kw):
    fields = dict(
        problem=problem,
        direction=DirectionState(kind="sgd"),
        linesearch=LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0),
        sgr=SgrParams(c1=1.0, c2=1.0),
        max_iters=30,
        grad_tol=0.0,
        fgap_tol=0.0,
    )
    fields.update(kw)
    return RunConfig(**fields)


def small_instance():
    return gen_interpolating_least_squares(8, 12, seed=5, singular_values=np.full(8, 2.0))


@pytest.fixture
def two_threads():
    """Set the OpenBLAS count to 2 for the test, so a pin to 1 is visible."""
    get, set_ = _blas.openblas()
    before = get()
    set_(2)
    assert get() == 2
    try:
        yield
    finally:
        set_(before)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
class TestPin:
    def test_run_iterates_on_one_thread_and_restores(self):
        seen = []

        class Spy(LeastSquaresProblem):
            def features(self, x):
                seen.append(_blas.threads())
                return x

        inner = small_instance()
        result = run(small_config(Spy(inner.A, inner.b, inner.known)))
        assert len(result.trajectory) == 30
        assert seen and set(seen) == {1}
        assert _blas.threads() == 2

    def test_run_many_iterates_on_one_thread_and_restores(self):
        seen = []

        class Spy(LeastSquaresProblem):
            def features_rows(self, X):
                seen.append(_blas.threads())
                return X

        inner = small_instance()
        results = optimizer.run_many(small_config(Spy(inner.A, inner.b, inner.known)), [0, 1, 2])
        assert [len(r.trajectory) for r in results] == [30, 30, 30]
        assert seen and set(seen) == {1}
        assert _blas.threads() == 2

    def test_count_restored_when_the_run_raises(self, monkeypatch):
        real = optimizer.backtrack

        def broken(phi, slope, params, alpha0, f_x):
            assert _blas.threads() == 1
            result = real(phi, slope, params, alpha0, f_x)
            return dataclasses.replace(result, accepted_f=f_x + 1.0)

        monkeypatch.setattr(optimizer, "backtrack", broken)
        with pytest.raises(CertificateError):
            run(small_config(small_instance()))
        assert _blas.threads() == 2

    def test_nested_use_restores_the_outer_count_once(self):
        with _blas.single_thread():
            assert _blas.threads() == 1
            with _blas.single_thread():
                assert _blas.threads() == 1
            assert _blas.threads() == 1
            run(small_config(small_instance()))
            assert _blas.threads() == 1
        assert _blas.threads() == 2

    def test_concurrent_pins_restore_after_the_last_exit(self):
        errors = []
        barrier = threading.Barrier(8, timeout=30)

        def worker():
            try:
                barrier.wait()
                for _ in range(200):
                    with _blas.single_thread():
                        if _blas.threads() != 1:
                            errors.append(_blas.threads())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert _blas.threads() == 2

    @pytest.mark.parametrize("fail", [False, True])
    def test_sweep_restores_the_count(self, tmp_path, monkeypatch, fail):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nkind = least_squares\nN = 8\nn = 12\nseed = 1\nspectrum = const:2.0\n"
            "[direction]\nc1 = 1.0\nc2 = 1.0\n"
            f"[run]\nmax_iters = 30\nout_csv = {tmp_path / 't.csv'}\n"
        )
        if fail:
            real = optimizer.backtrack

            def broken(phi, slope, params, alpha0, f_x):
                result = real(phi, slope, params, alpha0, f_x)
                return dataclasses.replace(result, accepted_f=f_x + 1.0)

            monkeypatch.setattr(optimizer, "backtrack", broken)
        assert cli.main(["sweep", str(cfg), "--seeds", "0..1", "--jobs", "1"]) == (5 if fail else 2)
        assert _blas.threads() == 2

    def test_no_library_found_means_no_pin(self, monkeypatch):
        get, _ = _blas.openblas()
        monkeypatch.setattr(_blas, "openblas", lambda: None)
        assert _blas.threads() is None
        with _blas.single_thread():
            assert get() == 2
        assert run(small_config(small_instance())).status == "max_iters"
        assert get() == 2


def _instance_bytes(p):
    k = p.known
    scalars = np.array([np.nan if v is None else v for v in (k.L, k.L_max, k.mu, k.f_star)])
    return p.A.tobytes(), p.b.tobytes(), scalars.tobytes(), k.x_star.tobytes()


# At 300 x 600 the least-squares build rounds differently at 2 threads when
# it is not pinned; the two-factor spec is the WIDE config below.
INSTANCES = {
    "least_squares": lambda: gen_interpolating_least_squares(300, 600, 2024, np.full(300, 2.0)),
    "two_factor": lambda: gen_nonconvex_interpolating(20, 110, 110, 7),
}


@needs_openblas
class TestBuildPin:
    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    def test_instance_bytes_do_not_depend_on_the_callers_count(self, kind):
        get, set_ = _blas.openblas()
        before = get()
        built = []
        try:
            for count in (1, 2):
                set_(count)
                assert get() == count
                built.append(_instance_bytes(INSTANCES[kind]()))
                assert get() == count
        finally:
            set_(before)
        assert built[0] == built[1]

    @pytest.mark.usefixtures("two_threads")
    def test_build_runs_on_one_thread_and_restores_when_it_raises(self, monkeypatch):
        seen = []

        def broken(rng, rows, cols):
            seen.append(_blas.threads())
            raise RuntimeError("spec failed mid-build")

        monkeypatch.setattr(problems, "_orthonormal_columns", broken)
        with pytest.raises(RuntimeError, match="mid-build"):
            INSTANCES["least_squares"]()
        assert seen == [1]
        assert _blas.threads() == 2


# Two-factor instance with 20 + 110 * 110 = 12,210 variables: long enough
# that OpenBLAS splits its dot products and matvecs across threads.
WIDE = """\
[problem]
kind = nonconvex
N = 20
n = 110
seed = 7

[direction]
kind = momentum
beta = 0.9
c1 = 10.0
c2 = 0.1

[linesearch]
gamma = 0.1
delta = 0.5
alpha_max = 10.0
alpha0_policy = warm_increase

[run]
max_iters = 60
grad_tol = 0.0
fgap_tol = 0.0
trace_every = 10
out_svg =
"""


@needs_openblas
def test_trace_bytes_do_not_depend_on_the_thread_count(tmp_path):
    cfg = tmp_path / "wide.ini"
    cfg.write_text(WIDE)
    src = os.path.dirname(os.path.dirname(os.path.abspath(slsopt.__file__)))
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace_{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "slsopt.cli", "run", str(cfg), "--override", f"run.out_csv={out}"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        traces.append(out.read_bytes())
    assert len(traces[0].splitlines()) == 61
    assert traces[0] == traces[1]


# (n_u, n_v) with n_u * n_v = n, for the stacked products of the two-factor
# rows; 40,200 = 200 * 201 is about the width of bench/configs/twofactor_wide.ini.
FACTORS = {1: (1, 1), 7: (7, 1), 200: (10, 20), 40_200: (200, 201)}


class TestKernelIdentities:
    """The bit identities optimizer.run_many rests on, on one BLAS thread.

    A lockstep row must get the floats its one-seed run gets: np.vecdot
    must give each row the bits of that row's dot product, and a stacked
    np.matmul those of the row's own product. A numpy or OpenBLAS upgrade
    that breaks one fails here by name, not as changed sweep traces.
    """

    @pytest.mark.parametrize("K", [1, 4, 20])
    @pytest.mark.parametrize("n", sorted(FACTORS))
    def test_stacked_kernels_give_each_row_its_own_bits(self, n, K):
        rng = np.random.default_rng(n * 100 + K)
        A, B = rng.standard_normal((K, n)), rng.standard_normal((K, n))
        p, q = FACTORS[n]
        U, V, a = rng.standard_normal((K, p)), rng.standard_normal((K, p, q)), rng.standard_normal((K, q))
        shared = rng.standard_normal(q)
        with _blas.single_thread():
            dots = np.vecdot(A, B)
            uV = np.matmul(U[:, None, :], V)[:, 0]
            Va = np.matmul(V, a[:, :, None])[:, :, 0]
            V_shared = np.matmul(V, shared)
            for k in range(K):
                assert dots[k].tobytes() == A[k].dot(B[k]).tobytes() == (A[k] @ B[k]).tobytes()
                assert uV[k].tobytes() == (U[k] @ V[k]).tobytes()
                assert Va[k].tobytes() == (V[k] @ a[k]).tobytes()
                assert V_shared[k].tobytes() == (V[k] @ shared).tobytes()
