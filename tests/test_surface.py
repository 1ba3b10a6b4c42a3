"""The public names and the config knobs, pinned as literal lists.

A change that adds or removes a public name or a config field has to edit
these lists, so the change shows in its diff.
"""

from dataclasses import fields

import pytest

import ldinfomax
from ldinfomax.config import ExperimentConfig

PUBLIC_NAMES = [
    "Alignment", "CovarianceBundle", "DivergenceError", "EvaluationReport",
    "IcaConfig", "IcaDivergenceError", "PolytopeSpec", "Scenario",
    "ScenarioConfig", "SolverConfig", "SolverState", "TrajectoryPoint",
    "affine_match_to_reference", "aggregate", "best_alignment",
    "conditional_error_covariance", "contains", "cross_covariance", "evaluate",
    "gradient", "ica_infomax", "ica_separate", "initialize", "ld_entropy",
    "ld_mutual_information", "make_scenario", "mse", "preset",
    "project_columns", "run", "sample_covariance", "save_scenario", "sinr_db",
    "whiten", "write_trajectory_csv",
]

CONFIG_FIELDS = [
    (ldinfomax.ScenarioConfig, [
        "r", "m", "n", "rho", "dof", "snr_db", "polytope", "source_mode", "l1_mode", "seed",
    ]),
    (ldinfomax.SolverConfig, ["epsilon", "mu0", "iterations", "record_every", "seed"]),
    (ldinfomax.IcaConfig, ["learning_rate", "max_iter", "tol", "seed"]),
    (ExperimentConfig, [
        "scenario", "solver", "ica", "algo", "trials", "rho_grid", "output_dir",
    ]),
]


def test_public_names():
    assert sorted(ldinfomax.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("cls, names", CONFIG_FIELDS, ids=[c.__name__ for c, _ in CONFIG_FIELDS])
def test_config_fields(cls, names):
    assert [f.name for f in fields(cls)] == names
