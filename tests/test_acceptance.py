"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The shared instance is interpolating least squares with N=100 components in
R^200 and an equal spectrum (singular values all 2), so every regularity
constant is exact: L_max = max row norm squared, mu = 4/N, f_star = 0 at the
planted point. Line-search settings gamma=0.1, delta=0.5, alpha_max=10 unless
a criterion says otherwise.
"""

import time

import numpy as np
import pytest

from slsopt import (
    DirectionState,
    LineSearchParams,
    RunConfig,
    SgrParams,
    TheoremConstants,
    alpha_low,
    backtrack,
    compute_eta,
    estimate_c3,
    estimate_rho,
    exact_moments,
    full_oracle,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
    run,
    verify_lemma_bounds,
)
from slsopt import cli, fit_geometric_rate

from conftest import armijo_holds
from one_gradient import one_row

N_STD, DIM_STD, SEED_STD = 100, 200, 2024
SPECTRUM_STD = 2.0

STD_CONFIG_TEXT = f"""
[problem]
kind = least_squares
N = {N_STD}
n = {DIM_STD}
seed = {SEED_STD}
spectrum = const:{SPECTRUM_STD}

[direction]
kind = sgd
c1 = 1.0
c2 = 1.0

[linesearch]
gamma = 0.1
delta = 0.5
alpha_max = 10.0

[run]
max_iters = 5000
grad_tol = 0.0
fgap_tol = 1e-8
seed = 0
trace_every = 10
"""


@pytest.fixture(scope="module")
def std_instance():
    return gen_interpolating_least_squares(
        N_STD, DIM_STD, seed=SEED_STD, singular_values=np.full(N_STD, SPECTRUM_STD)
    )


def std_linesearch():
    return LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0)


def report(num, name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed{tail}"


def test_criterion_01_guaranteed_acceptance_below_threshold():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    gamma = 0.1
    counterexamples = 0
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
        shift = rng.standard_normal(n)
        x = rng.standard_normal(n)
        r = float(a @ (x - shift))
        if abs(r) < 1e-9:
            x = x + a / float(a @ a)
            r = float(a @ (x - shift))
        g = r * a
        L_k = float(a @ a)  # exact smoothness of this singleton batch
        threshold = alpha_low(1.0, 1.0, gamma, L_k)
        f_batch = lambda y: 0.5 * float(a @ (y - shift)) ** 2
        f_x = f_batch(x)
        for u in rng.uniform(0.0, 1.0, size=50):
            alpha = float(u * threshold)
            if not armijo_holds(f_batch, x, -g, g, alpha, gamma, f_x):
                counterexamples += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "guaranteed acceptance below 2 c2 (1-gamma) / (c1^2 L_k)",
        counterexamples == 0 and elapsed < 1.0,
        f"counterexamples={counterexamples}, {elapsed:.2f}s",
    )


def test_criterion_02_step_floor_and_backtrack_ceiling(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "std.ini"
    cfg_path.write_text(STD_CONFIG_TEXT)
    code = cli.cmd_verify(str(cfg_path))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "step floor and backtrack ceiling over a full run (cmd_verify)",
        code == 0 and elapsed < 10.0,
        f"exit={code}, {elapsed:.2f}s",
    )


def test_criterion_03_backtracking_maximality():
    rng = np.random.default_rng(303)
    params = LineSearchParams(gamma=0.2, delta=0.5, alpha_max=10.0, max_backtracks=60)
    mismatches = 0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 7))
        a = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
        shift = rng.standard_normal(n)
        x = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        r = float(a @ (x - shift))
        if abs(r) < 1e-8:
            continue
        g = r * a
        d = -g + rng.uniform(0.0, 0.5) * rng.standard_normal(n) * float(np.linalg.norm(g))
        if float(d @ g) >= 0.0:
            d = -g
        f_batch = lambda y: 0.5 * float(a @ (y - shift)) ** 2
        f_x = f_batch(x)
        alpha0 = float(rng.uniform(0.05, params.alpha_max))

        brute = None
        for j in range(params.max_backtracks + 1):
            if armijo_holds(f_batch, x, d, g, alpha0 * params.delta**j, params.gamma, f_x):
                brute = j
                break
        res = backtrack(lambda a: f_batch(x + a * d), float(np.dot(d, g)), params, alpha0=alpha0, f_x=f_x)
        if brute != res.backtracks:
            mismatches += 1
        checked += 1
    report(3, "backtrack count agrees with brute-force scan on 1000 instances",
           mismatches == 0, f"mismatches={mismatches}")


def _sweep(problem, kind, seeds, max_iters, sgr, beta=0.9, beta_cap=0.3):
    outcomes = []
    for seed in seeds:
        cfg = RunConfig(
            problem=problem,
            direction=DirectionState(kind=kind, beta=beta, beta_cap=beta_cap),
            linesearch=std_linesearch(),
            sgr=sgr,
            max_iters=max_iters,
            grad_tol=0.0,
            fgap_tol=1e-8,
            seed=seed,
            trace_full_oracle_every=10,
        )
        outcomes.append(run(cfg))
    return outcomes


def _median_gap_fit(outcomes, f_star):
    per_seed = []
    for res in outcomes:
        gaps = {r.k: r.f_full - f_star for r in res.trajectory
                if r.f_full is not None and r.f_full - f_star > 0}
        per_seed.append(gaps)
    common = sorted(set.intersection(*(set(g) for g in per_seed)))
    ks = np.array(common)
    med = np.array([np.median([g[k] for g in per_seed]) for k in common])
    return fit_geometric_rate(ks, med)


def test_criterion_04_linear_convergence_plain_direction(std_instance):
    t0 = time.perf_counter()
    outcomes = _sweep(std_instance, "sgd", range(20), 5000, SgrParams(c1=1.0, c2=1.0))
    converged = sum(1 for r in outcomes if r.status == "converged_fgap")
    rate, r2 = _median_gap_fit(outcomes, std_instance.known.f_star)
    elapsed = time.perf_counter() - t0
    report(
        4,
        "interpolation + gradient domination gives a linear rate",
        converged >= 18 and rate < 1.0 and r2 >= 0.9 and elapsed < 60.0,
        f"converged={converged}/20, rate={rate:.4f}, r2={r2:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_safeguarded_directions_converge(std_instance):
    sgr = SgrParams(c1=10.0, c2=0.1)
    results = {}
    for kind in ("momentum", "cg"):
        outcomes = _sweep(std_instance, kind, range(20), 10000, sgr)
        converged = sum(1 for r in outcomes if r.status == "converged_fgap")
        rows = [r for res in outcomes for r in res.trajectory]
        admissible = all(
            r.dTg <= -sgr.c2 * r.g_batch_norm**2 * (1.0 - 1e-12)
            and r.d_norm <= sgr.c1 * r.g_batch_norm * (1.0 + 1e-12)
            for r in rows
            if r.g_batch_norm > 0
        )
        restart_rate = sum(r.restarted for r in rows) / len(rows)
        results[kind] = (converged, admissible, restart_rate)
        print(f"criterion 5 {kind}: converged={converged}/20, restart_rate={restart_rate:.4f}")
    ok = all(c >= 18 and adm for c, adm, _ in results.values())
    report(5, "safeguarded momentum and cg directions converge",
           ok, ", ".join(f"{k}={v[0]}/20" for k, v in results.items()))


def test_criterion_06_rate_coefficient_and_certified_bound():
    # hand-substituted values
    base = dict(c1=1.0, c2=1.0, c3=0.0, rho=1.0, L=1.0, L_max=1.0,
                gamma=0.5, delta=0.5, alpha_max=1.0)
    eta_one = compute_eta(TheoremConstants(mu=1.0, **base)).eta
    eta_fifth = compute_eta(TheoremConstants(mu=1.4, **base)).eta
    hand_ok = abs(eta_one - 1.0) <= 1e-12 and abs(eta_fifth - 0.2) <= 1e-12

    # well-conditioned instance where tuning gamma, delta certifies the rate
    p = gen_interpolating_least_squares(4, 4, seed=6, singular_values=np.ones(4))
    rng = np.random.default_rng(1)
    points = [rng.standard_normal(p.n) for _ in range(50)]
    rho_hat = estimate_rho(p, points)
    c3_hat = estimate_c3(p, points)
    ls = LineSearchParams(gamma=0.5, delta=0.99, alpha_max=0.5)
    constants = TheoremConstants(
        c1=1.0, c2=1.0, c3=c3_hat, rho=rho_hat, mu=p.known.mu, L=p.known.L,
        L_max=p.known.L_max, gamma=ls.gamma, delta=ls.delta, alpha_max=ls.alpha_max,
    )
    eta_report = compute_eta(constants)

    if not eta_report.certified:
        print("criterion 6: bound inapplicable on this instance (flag not achieved)")
        report(6, "rate coefficient formula", hand_ok)
        return

    x0 = np.random.default_rng(999).standard_normal(p.n) / 2.0
    gap_by_k = {}
    for seed in range(20):
        cfg = RunConfig(
            problem=p, direction=DirectionState(kind="sgd"), linesearch=ls,
            sgr=SgrParams(c1=1.0, c2=1.0), max_iters=120, grad_tol=0.0,
            fgap_tol=0.0, seed=seed, trace_full_oracle_every=1, x0=x0,
        )
        for r in run(cfg).trajectory:
            if r.f_full is not None:
                gap_by_k.setdefault(r.k, []).append(r.f_full - p.known.f_star)
    gap0 = float(np.mean(gap_by_k[0]))
    violations = sum(
        1
        for k in gap_by_k
        if k >= 1 and np.mean(gap_by_k[k]) > eta_report.rate ** (k - 1) * gap0 * (1 + 1e-9)
    )
    report(
        6,
        "rate coefficient formula and certified mean-gap bound",
        hand_ok and violations == 0,
        f"eta={eta_report.eta:.4f}, rate={eta_report.rate:.4f}, violations={violations}",
    )


def test_criterion_07_moment_identities():
    instances = [
        gen_interpolating_least_squares(20, 30, seed=s, singular_values=spec)
        for s, spec in ((1, [1.0, 2.0]), (2, np.linspace(0.5, 2.0, 10)), (3, np.full(15, 1.5)))
    ]
    instances.append(gen_nonconvex_interpolating(15, 3, 4, seed=4))
    instances.append(gen_interpolating_least_squares(5, 5, seed=5, singular_values=np.ones(5)))

    rng = np.random.default_rng(700)
    bad_identity = bad_var = bad_rho = 0
    for p in instances:
        spec = DirectionState(kind="momentum", beta=0.9)
        for _ in range(100):
            x = rng.standard_normal(p.n)
            state = one_row(spec, p.n, x_prev=x - 0.3 * rng.standard_normal(p.n))
            for direction in (None, state):
                m = exact_moments(p, x, direction)
                lhs = m.E_dTg
                rhs = float(m.E_d @ m.E_g) + m.cov_dg
                if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs), abs(rhs)):
                    bad_identity += 1
                uncentered = m.E_norm_g_sq - float(m.E_g @ m.E_g)
                if abs(m.var_g - uncentered) > 1e-10 * max(1.0, m.E_norm_g_sq):
                    bad_var += 1
            gnorm = float(np.linalg.norm(m.E_g))
            if gnorm > 1e-10 and m.E_norm_g_sq / (gnorm * gnorm) < 1.0 - 1e-12:
                bad_rho += 1
    report(7, "covariance and variance identities with growth ratio >= 1",
           bad_identity == 0 and bad_var == 0 and bad_rho == 0,
           f"identity={bad_identity}, variance={bad_var}, rho={bad_rho}")


def test_criterion_08_expected_direction_bounds(std_instance):
    rng = np.random.default_rng(800)
    points = [rng.standard_normal(std_instance.n) for _ in range(100)]
    rho_hat = estimate_rho(std_instance, points)
    constants = TheoremConstants(
        c1=1.0, c2=1.0, c3=1.0, rho=rho_hat, mu=std_instance.known.mu,
        L=std_instance.known.L, L_max=std_instance.known.L_max,
        gamma=0.1, delta=0.5, alpha_max=10.0,
    )
    worst_norm = worst_descent = np.inf
    for x in points:
        rep = verify_lemma_bounds(std_instance, x, constants)
        worst_norm = min(worst_norm, rep.norm_slack)
        worst_descent = min(worst_descent, rep.descent_slack)
    ok = worst_norm >= -1e-10 and worst_descent >= -1e-10
    report(8, "expected-direction norm and descent bounds at 100 points",
           ok, f"min slacks: norm={worst_norm:.3e}, descent={worst_descent:.3e}")


def test_criterion_09_gradient_correctness():
    def central_diff(p, x, h=1e-6):
        g = np.zeros(p.n)
        for j in range(p.n):
            e = np.zeros(p.n)
            e[j] = h
            g[j] = (full_oracle(p, x + e)[0] - full_oracle(p, x - e)[0]) / (2 * h)
        return g

    instances = [
        gen_interpolating_least_squares(12, 20, seed=9, singular_values=np.linspace(0.5, 2.5, 8)),
        gen_nonconvex_interpolating(10, 3, 4, seed=9),
    ]
    rng = np.random.default_rng(900)
    failures = 0
    for p in instances:
        for _ in range(100):
            x = rng.standard_normal(p.n)
            _, g = full_oracle(p, x)
            fd = central_diff(p, x)
            rel = float(np.linalg.norm(g - fd)) / max(1.0, float(np.linalg.norm(g)))
            if rel > 1e-5:
                failures += 1
    report(9, "analytic gradients match central differences", failures == 0,
           f"failures={failures}/200")


def test_criterion_10_byte_identical_traces(tmp_path):
    cfg_path = tmp_path / "det.ini"
    cfg_path.write_text(STD_CONFIG_TEXT)
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli.cmd_run(
            str(cfg_path),
            overrides=[f"run.out_csv={out}", "run.max_iters=400", "run.fgap_tol=0.0"],
            seed=7,
        )
        assert code in (0, 2)
        blobs.append(out.read_bytes())
    report(10, "repeated runs with a fixed seed are byte-identical",
           blobs[0] == blobs[1], f"{len(blobs[0])} bytes")
