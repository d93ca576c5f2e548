#!/usr/bin/env python3
"""Seed-sweep comparison of direction recipes on the standard instance.

For each direction kind, runs an independent trajectory per seed on the
interpolating least-squares instance, then reports convergence counts, median
iteration counts, restart rates, and the geometric rate fitted to the median
gap trajectory. Optionally writes an SVG with one median curve per kind.
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
    fit_geometric_rate,
    gen_interpolating_least_squares,
    run_many,
)
from slsopt.plotting import convergence_svg

KIND_SETTINGS = {
    "sgd": dict(sgr=SgrParams(c1=1.0, c2=1.0), beta=0.9, beta_cap=0.3),
    "momentum": dict(sgr=SgrParams(c1=10.0, c2=0.1), beta=0.9, beta_cap=0.3),
    "cg": dict(sgr=SgrParams(c1=10.0, c2=0.1), beta=0.9, beta_cap=0.3),
}


def median_gap_curve(outcomes, f_star):
    per_seed = []
    for res in outcomes:
        per_seed.append(
            {r.k: r.f_full - f_star for r in res.trajectory
             if r.f_full is not None and r.f_full - f_star > 0}
        )
    common = sorted(set.intersection(*(set(g) for g in per_seed)))
    return common, [float(np.median([g[k] for g in per_seed])) for k in common]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--max-iters", type=int, default=10000)
    ap.add_argument("--N", type=int, default=100)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--spectrum", type=float, default=2.0)
    ap.add_argument("--problem-seed", type=int, default=2024)
    ap.add_argument("--fgap-tol", type=float, default=1e-8)
    ap.add_argument("--svg", default="", help="write median gap curves to this file")
    args = ap.parse_args()

    problem = gen_interpolating_least_squares(
        args.N, args.n, seed=args.problem_seed,
        singular_values=np.full(args.N, args.spectrum),
    )
    print(f"instance: N={args.N}, n={args.n}, L_max={problem.known.L_max:.4f}, "
          f"mu={problem.known.mu:.4f}")
    print(f"{'kind':<10} {'conv':>7} {'median_iters':>13} {'restart':>8} "
          f"{'rate':>8} {'r2':>6}")

    series = []
    for kind, settings in KIND_SETTINGS.items():
        cfg = RunConfig(
            problem=problem,
            direction=DirectionState(kind=kind, beta=settings["beta"],
                                     beta_cap=settings["beta_cap"]),
            linesearch=LineSearchParams(gamma=0.1, delta=0.5, alpha_max=10.0),
            sgr=settings["sgr"],
            run=RunSettings(max_iters=args.max_iters, grad_tol=0.0, fgap_tol=args.fgap_tol, trace_every=10),
        )
        outcomes = run_many(cfg, range(args.seeds))
        conv = sum(1 for r in outcomes if r.status.startswith("converged"))
        iters = int(np.median([len(r.trajectory) for r in outcomes]))
        rows = [r for res in outcomes for r in res.trajectory]
        restart = sum(r.restarted for r in rows) / max(1, len(rows))
        ks, med = median_gap_curve(outcomes, problem.known.f_star)
        rate, r2 = fit_geometric_rate(ks, med)
        print(f"{kind:<10} {conv:>4}/{args.seeds:<2} {iters:>13} {restart:>8.4f} "
              f"{rate:>8.4f} {r2:>6.3f}")
        series.append((kind, ks, med))

    if args.svg:
        with open(args.svg, "w", newline="\n") as fh:
            fh.write(convergence_svg(series, title="median optimality gap by direction kind"))
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
