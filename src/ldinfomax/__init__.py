"""Blind source separation by log-determinant information maximization.

The toolkit separates linear mixtures of possibly *dependent* sources by
maximizing the log-determinant mutual information between the mixtures and
the source estimates, subject to every estimate column lying in a known
polytope. It ships the information-measure kernels, polytope projections,
the projected-gradient solver, synthetic correlated-source scenario
generation, ground-truth-aligned evaluation, and an infomax ICA baseline
with a fixed sub-Gaussian source model for comparison.
"""

from .config import write_trajectory_csv
from .datagen import (
    Scenario,
    ScenarioConfig,
    make_scenario,
    save_scenario,
)
from .evaluation import (
    Alignment,
    EvaluationReport,
    aggregate,
    evaluate,
    sinr_db,
)
from .ica import (
    IcaConfig,
    IcaDivergenceError,
    affine_match_to_reference,
    ica_separate,
)
from .polytopes import (
    PolytopeSpec,
    contains,
    preset,
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
    conditional_error_covariance,
    ld_entropy,
    ld_mutual_information,
    sample_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "DivergenceError",
    "EvaluationReport",
    "IcaConfig",
    "IcaDivergenceError",
    "PolytopeSpec",
    "Scenario",
    "ScenarioConfig",
    "SolverConfig",
    "SolverState",
    "TrajectoryPoint",
    "affine_match_to_reference",
    "aggregate",
    "conditional_error_covariance",
    "contains",
    "evaluate",
    "gradient",
    "ica_separate",
    "initialize",
    "ld_entropy",
    "ld_mutual_information",
    "make_scenario",
    "preset",
    "project_columns",
    "run",
    "sample_covariance",
    "save_scenario",
    "sinr_db",
    "write_trajectory_csv",
]
