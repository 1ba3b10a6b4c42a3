"""Tests of the benchmark's output checks and of its span tracer."""

from types import SimpleNamespace

import ldinfomax
import ldinfomax.cli  # noqa: F401  (the tracer wraps cli.main)
import numpy as np
import spans
import workloads
from ldinfomax import datagen, evaluation, polytopes, solver

BOX = polytopes.preset("linf_nonneg", 3)
RHO_GRID = (0.0, 0.3)
ALGOS = ("ld_infomax", "ica")


def _truth():
    return np.random.default_rng(0).random((3, 50))


def test_feasible_estimate_passes():
    s = _truth()
    state = SimpleNamespace(estimate=0.9 * s + 0.05, objective=1.5)
    out, sinr = workloads.check_estimate("ok", BOX, state, s)
    assert (out.attempted, out.failed) == (1, 0)
    assert np.isfinite(sinr)


def test_infeasible_estimate_counts_as_failure():
    s = _truth()
    bad = s.copy()
    bad[0, 0] = 1.5
    out, sinr = workloads.check_estimate("bad", BOX, SimpleNamespace(estimate=bad, objective=1.5), s)
    assert (out.attempted, out.failed) == (1, 1)
    assert sinr is None
    assert "outside the polytope" in out.problems[0]


def test_nonfinite_objective_and_exception_count_as_failures():
    s = _truth()
    out, _ = workloads.check_estimate("nan", BOX, SimpleNamespace(estimate=s, objective=np.nan), s)
    assert out.failed == 1
    out, _ = workloads.check_estimate("raised", BOX, RuntimeError("diverged"), s)
    assert out.failed == 1


def _write_sweep(path, rows):
    lines = [workloads.SWEEP_HEADER] + [f"{rho},{algo},{m},{sd}" for rho, algo, m, sd in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _full_rows():
    return [(rho, algo, 12.5, 0.5) for rho in RHO_GRID for algo in ALGOS]


def test_complete_sweep_passes(tmp_path):
    csv = tmp_path / "sweep.csv"
    _write_sweep(csv, _full_rows())
    out, ld_means = workloads.check_sweep(csv, 0, "", RHO_GRID, ALGOS, trials=2)
    assert (out.attempted, out.failed) == (8, 0)
    assert ld_means == [12.5, 12.5]


def test_missing_sweep_row_counts_as_failure(tmp_path):
    csv = tmp_path / "sweep.csv"
    _write_sweep(csv, [r for r in _full_rows() if r[:2] != (0.3, "ica")])
    out, _ = workloads.check_sweep(csv, 0, "", RHO_GRID, ALGOS, trials=2)
    assert out.failed == 2
    assert "rho=0.3 ica" in out.problems[0]


def test_nonfinite_sweep_row_and_logged_trial_failures(tmp_path):
    csv = tmp_path / "sweep.csv"
    rows = _full_rows()
    rows[0] = (0.0, "ld_infomax", "nan", "nan")
    _write_sweep(csv, rows)
    stderr = "rho=0.3 ica trial 1 failed: unmixing matrix diverged\n"
    out, _ = workloads.check_sweep(csv, 0, stderr, RHO_GRID, ALGOS, trials=2)
    assert out.failed == 3


def test_missing_file_or_exit_code_fails_every_trial(tmp_path):
    out, _ = workloads.check_sweep(tmp_path / "none.csv", 0, "", RHO_GRID, ALGOS, trials=2)
    assert out.failed == out.attempted == 8
    csv = tmp_path / "sweep.csv"
    _write_sweep(csv, _full_rows())
    out, _ = workloads.check_sweep(csv, 1, "", RHO_GRID, ALGOS, trials=2)
    assert out.failed == 8


def test_tracer_restores_entry_points_and_accounts_self_time():
    before = (solver.run, solver.project_columns, evaluation.sinr_db, datagen.make_scenario)
    tracer = spans.Tracer(ldinfomax)
    tracer.install()
    try:
        assert solver.run is not before[0]
        cfg = datagen.ScenarioConfig(r=3, m=4, n=200, polytope=BOX, seed=1)
        sc = datagen.make_scenario(cfg)
        state = solver.run(sc.y, BOX, solver.SolverConfig(iterations=5, record_every=5),
                           ground_truth=sc.s_true)
    finally:
        tracer.uninstall()
    assert (solver.run, solver.project_columns, evaluation.sinr_db,
            datagen.make_scenario) == before
    (run,) = tracer.calls("solver.run")
    assert run.work == state.k == 5
    assert len(tracer.calls("polytopes.project_columns.box")) == 6
    assert all(s.parent is run for s in tracer.calls("evaluation.sinr_db"))
    own = dict((id(s), t) for s, t in tracer.self_seconds())
    assert all(t >= 0 for t in own.values())
    roots = [s for s in tracer.spans if s.parent is None]
    assert abs(sum(own.values()) - sum(s.seconds for s in roots)) < 1e-9
