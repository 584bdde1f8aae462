"""Greedy randomized Kaczmarz solvers with pathwise convergence certification.

The package bundles four row-action solvers for consistent linear systems
(cyclic and randomized Kaczmarz, greedy randomized Kaczmarz, and its
heavy-ball momentum variant), the closed-form convergence constants that
govern them, and a benchmark harness that runs seeded multi-trial
experiments and certifies every recorded trajectory against its bound.
"""

from .linalg import (
    InconsistentSystemError,
    Problem,
    RowAccessMatrix,
    min_norm_solution,
    smallest_nonzero_singular_value,
)
from .selection import (
    GammaMode,
    GreedyCertificateError,
    ProbabilityRule,
    active_set_gamma,
    greedy_set,
    sample_index,
    sampling_distribution,
)
from .solvers import (
    SolverConfig,
    SolverVariant,
    Trace,
    run,
)
from .analysis import (
    CertificationResult,
    ComplexityReport,
    MomentumReport,
    RateReport,
    beta_upper,
    certify_trace,
    gamma_leaveout,
    grk_bounds,
    iteration_complexity,
    momentum_factors,
    rate_report,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    MethodResult,
    RandomProblemSpec,
    TrialResult,
    emit_results,
    gen_random_problem,
    load_problem_from_file,
    read_matrix_market,
    read_trace_csv,
    run_experiment,
    write_matrix_market,
    write_trace_csv,
)

__version__ = "0.1.0"
