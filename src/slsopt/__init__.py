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
    FrozenDirectionRule,
    LemmaBoundsReport,
    MomentReport,
    TheoremConstants,
    c3_from_moments,
    check_interpolation,
    compute_eta,
    estimate_c3,
    estimate_pl,
    estimate_rho,
    estimate_wgc,
    exact_moments,
    frozen_direction_rule,
    lemma_bounds_from_moments,
    monte_carlo_moments,
    negative_gradient_rule,
    pl_from_moments,
    point_moments,
    rho_from_moments,
    verify_lemma_bounds,
    wgc_from_moments,
)
from .directions import (
    CG_VARIANTS,
    KINDS,
    DirectionOutcome,
    DirectionState,
    SgrParams,
    propose_direction,
    safeguarded_direction,
    sgr_check,
    update_memory,
)
from .linesearch import (
    LineSearchParams,
    LineSearchResult,
    Ray,
    alpha_low,
    armijo_holds,
    backtrack,
    jstar,
    next_alpha0,
)
from .optimizer import (
    IterationRecord,
    RunConfig,
    RunResult,
    contraction_estimate,
    fit_geometric_rate,
    run,
    verify_trace_bounds,
)
from .problems import (
    Batch,
    BatchSampler,
    FiniteSumProblem,
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
    load_least_squares,
    save_least_squares,
)

__version__ = "0.1.0"
