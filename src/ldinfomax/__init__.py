"""Blind source separation by log-determinant information maximization.

The toolkit separates linear mixtures of possibly *dependent* sources by
maximizing the log-determinant mutual information between the mixtures and
the source estimates, subject to every estimate column lying in a known
polytope. It ships the information-measure kernels, polytope projections,
the projected-gradient solver, synthetic correlated-source scenario
generation, ground-truth-aligned evaluation, and an extended-infomax ICA
baseline for comparison.
"""

from .config import write_trajectory_csv
from .datagen import (
    Scenario,
    ScenarioConfig,
    add_noise,
    copula_t_uniforms,
    make_scenario,
    mixing_matrix,
    save_scenario,
    sources_in_polytope,
    toeplitz_correlation,
)
from .evaluation import (
    Alignment,
    EvaluationReport,
    aggregate,
    best_alignment,
    evaluate,
    mse,
    sinr_db,
)
from .ica import (
    IcaConfig,
    IcaDivergenceError,
    affine_match_to_reference,
    ica_infomax,
    ica_separate,
    whiten,
)
from .polytopes import (
    PolytopeSpec,
    ProjectionReport,
    contains,
    preset,
    project,
    project_columns,
)
from .solver import (
    DivergenceError,
    SolverConfig,
    SolverState,
    TrajectoryPoint,
    gradient,
    initialize,
    run,
)
from .stats import (
    CovarianceBundle,
    conditional_error_covariance,
    cross_covariance,
    ld_entropy,
    ld_mutual_information,
    sample_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "CovarianceBundle",
    "DivergenceError",
    "EvaluationReport",
    "IcaConfig",
    "IcaDivergenceError",
    "PolytopeSpec",
    "ProjectionReport",
    "Scenario",
    "ScenarioConfig",
    "SolverConfig",
    "SolverState",
    "TrajectoryPoint",
    "add_noise",
    "affine_match_to_reference",
    "aggregate",
    "best_alignment",
    "conditional_error_covariance",
    "contains",
    "copula_t_uniforms",
    "cross_covariance",
    "evaluate",
    "gradient",
    "ica_infomax",
    "ica_separate",
    "initialize",
    "ld_entropy",
    "ld_mutual_information",
    "make_scenario",
    "mixing_matrix",
    "mse",
    "preset",
    "project",
    "project_columns",
    "run",
    "sample_covariance",
    "save_scenario",
    "sinr_db",
    "sources_in_polytope",
    "toeplitz_correlation",
    "whiten",
    "write_trajectory_csv",
]
