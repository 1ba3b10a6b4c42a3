"""Each demo runs to completion from a scratch working directory."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_information_measures.py",
        "02_polytope_projections.py",
        "03_separate_bounded_sources.py",
        pytest.param("04_dependent_sources_vs_ica.py", marks=pytest.mark.slow),
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch):
    # demo 03 writes its trajectory CSV to the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
