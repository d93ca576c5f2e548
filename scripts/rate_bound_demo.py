#!/usr/bin/env python3
"""Certify the geometric mean-gap bound on a well-conditioned instance.

Builds a small equal-spectrum least-squares instance where the strong-growth
ratio and gradient-domination constant are exact, tunes (gamma, delta,
alpha_max) so the contraction coefficient satisfies 0 < eta < 1/alpha_max,
and checks that (eta alpha_max)^k upper-bounds the mean optimality gap over a
seed sweep started from a common point.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from slsopt import (
    DirectionState,
    LineSearchParams,
    RunConfig,
    RunSettings,
    SgrParams,
    TheoremConstants,
    compute_eta,
    estimate_c3,
    estimate_rho,
    exact_moments,
    gen_interpolating_least_squares,
    run_many,
)
from slsopt.plotting import convergence_svg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=4)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--iters", type=int, default=120)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--delta", type=float, default=0.99)
    ap.add_argument("--alpha-max", type=float, default=0.5)
    ap.add_argument("--svg", default="rate_bound.svg")
    args = ap.parse_args()

    problem = gen_interpolating_least_squares(
        args.N, args.N, seed=6, singular_values=np.ones(args.N)
    )
    rng = np.random.default_rng(1)
    points = [rng.standard_normal(problem.n) for _ in range(50)]
    moments = exact_moments(problem, points)
    rho_hat, _ = estimate_rho(moments)
    c3_hat, _ = estimate_c3(moments)

    ls = LineSearchParams(gamma=args.gamma, delta=args.delta, alpha_max=args.alpha_max)
    sgr = SgrParams(c1=1.0, c2=1.0)
    constants = TheoremConstants(
        sgr=sgr, ls=ls, c3=c3_hat, rho=rho_hat, mu=problem.known.mu,
        L=problem.known.L, L_max=problem.known.L_max,
    )
    report = compute_eta(constants)
    print(f"rho_hat={rho_hat:.6f} c3_hat={c3_hat:.6f} mu={problem.known.mu:.4f}")
    print(f"eta={report.eta:.6f} eta*alpha_max={report.rate:.6f} certified={report.certified}")
    if not report.certified:
        print("bound inapplicable with these hyperparameters; try smaller alpha_max")
        return

    x0 = np.random.default_rng(999).standard_normal(problem.n) / 2.0
    cfg = RunConfig(
        problem=problem, direction=DirectionState(kind="sgd"), linesearch=ls, sgr=sgr,
        run=RunSettings(max_iters=args.iters, grad_tol=0.0, fgap_tol=0.0, trace_every=1), x0=x0,
    )
    gap_by_k = {}
    for result in run_many(cfg, range(args.seeds)):
        for r in result.trajectory:
            if r.f_full is not None:
                gap_by_k.setdefault(r.k, []).append(r.f_full)

    ks = sorted(gap_by_k)
    mean_gap = [float(np.mean(gap_by_k[k])) for k in ks]
    gap0 = mean_gap[0]
    bound = [gap0 * report.rate ** max(0, k - 1) for k in ks]
    violations = sum(1 for m, b in zip(mean_gap[1:], bound[1:]) if m > b * (1 + 1e-9))
    print(f"checked {len(ks) - 1} iterates, bound violations: {violations}")

    positive = [(k, m, b) for k, m, b in zip(ks, mean_gap, bound) if m > 0]
    svg = convergence_svg(
        [
            ("mean gap", [p[0] for p in positive], [p[1] for p in positive]),
            ("certified bound", [p[0] for p in positive], [p[2] for p in positive]),
        ],
        title="mean optimality gap vs certified geometric bound",
    )
    with open(args.svg, "w", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
