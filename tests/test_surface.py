"""The public names and the knobs, pinned as literal lists.

A change that adds or removes a public name, a submodule's exported name, a
config field or a command-line option has to edit these lists, so the change
shows in its diff.
"""

import argparse
import importlib
from dataclasses import fields

import pytest

import ldinfomax
from ldinfomax import cli
from ldinfomax.config import ExperimentConfig

PUBLIC_NAMES = [
    "Alignment", "DivergenceError", "EvaluationReport", "IcaConfig",
    "IcaDivergenceError", "PolytopeSpec", "Scenario", "ScenarioConfig",
    "SolverConfig", "SolverState", "TrajectoryPoint", "affine_match_to_reference",
    "aggregate", "conditional_error_covariance", "contains", "evaluate",
    "gradient", "ica_separate", "initialize", "ld_entropy",
    "ld_mutual_information", "make_scenario", "preset", "project_columns", "run",
    "sample_covariance", "save_scenario", "sinr_db", "write_trajectory_csv",
]

SUBMODULE_NAMES = {
    "cli": ["main"],
    "config": [
        "ExperimentConfig", "format_float", "load_experiment", "save_experiment", "write_csv",
        "write_trajectory_csv",
    ],
    "datagen": ["Scenario", "ScenarioConfig", "make_scenario", "save_scenario"],
    "evaluation": ["Alignment", "EvaluationReport", "aggregate", "evaluate", "sinr_db"],
    "ica": ["IcaConfig", "IcaDivergenceError", "affine_match_to_reference", "ica_separate"],
    "polytopes": [
        "PRESET_NAMES", "PolytopeSpec", "contains", "max_violation", "preset",
        "project_columns",
    ],
    "solver": [
        "DivergenceError", "SolverConfig", "SolverState", "TrajectoryPoint",
        "canonical_orientation", "gradient", "initialize", "run",
    ],
    "stats": [
        "conditional_error_covariance", "ld_entropy", "ld_mutual_information",
        "logdet_regularized", "sample_covariance",
    ],
}

CONFIG_FIELDS = [
    (ldinfomax.ScenarioConfig, [
        "r", "m", "n", "rho", "dof", "snr_db", "polytope", "source_mode", "l1_mode", "seed",
    ]),
    (ldinfomax.SolverConfig, ["epsilon", "mu0", "iterations", "record_every", "seed"]),
    (ldinfomax.IcaConfig, ["seed"]),
    (ExperimentConfig, [
        "scenario", "solver", "ica", "algo", "trials", "rho_grid", "output_dir",
    ]),
]

# each subcommand's options, in declaration order, without --help
CLI_OPTIONS = {
    "gen": ["--config", "--seed", "--out"],
    "run": ["--config", "--seed", "--out", "--algo"],
    "sweep": ["--config", "--seed", "--out", "--algo"],
    "eval": ["--out"],
}


def test_public_names():
    assert sorted(ldinfomax.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(ldinfomax, name), name


@pytest.mark.parametrize("module, names", SUBMODULE_NAMES.items(), ids=list(SUBMODULE_NAMES))
def test_submodule_names(module, names):
    mod = importlib.import_module(f"ldinfomax.{module}")
    assert sorted(mod.__all__) == names
    for name in names:
        assert hasattr(mod, name), f"ldinfomax.{module}.{name} does not resolve"


@pytest.mark.parametrize("cls, names", CONFIG_FIELDS, ids=[c.__name__ for c, _ in CONFIG_FIELDS])
def test_config_fields(cls, names):
    assert [f.name for f in fields(cls)] == names


def test_cli_options():
    subs = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [o for action in sub._actions for o in action.option_strings if o not in ("-h", "--help")]
        for name, sub in subs.choices.items()
    }
    assert options == CLI_OPTIONS
