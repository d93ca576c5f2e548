"""Finite-sum optimization with stochastic Armijo line searches.

The package couples backtracking line searches on sampled objectives with
general search directions (momentum, conjugate-gradient, diagonal adaptive)
kept admissible by a gradient-related safeguard, plus diagnostics that turn
the usual regularity assumptions (growth conditions, gradient domination,
direction covariance) into measurable quantities on synthetic interpolating
instances.
"""

from .diagnostics import (
    EtaReport,
    LemmaBoundsReport,
    MomentReport,
    TheoremConstants,
    compute_eta,
    estimate_c3,
    estimate_pl,
    estimate_rho,
    estimate_wgc,
    exact_moments,
    verify_lemma_bounds,
)
from .directions import (
    CG_VARIANTS,
    KINDS,
    DirectionOutcome,
    DirectionState,
    SgrParams,
    safeguarded_direction,
    update_memory,
)
from .linesearch import (
    LineSearchParams,
    LineSearchResult,
    alpha_low,
    backtrack,
    jstar,
    next_alpha0,
)
from .optimizer import (
    IterationRecord,
    RunConfig,
    RunResult,
    RunSettings,
    contraction_estimate,
    fit_geometric_rate,
    run,
    run_many,
    verify_trace_bounds,
)
from .problems import (
    BatchSampler,
    KnownConstants,
    LeastSquaresProblem,
    ResidualProblem,
    TwoFactorProblem,
    Vector,
    as_vector,
    evaluate_batch,
    full_oracle,
    gen_interpolating_least_squares,
    gen_nonconvex_interpolating,
)

__version__ = "0.1.0"
