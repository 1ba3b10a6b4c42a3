import csv
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ldinfomax
from ldinfomax import cli, ica, solver, stats
from ldinfomax.cli import main
from ldinfomax.config import ExperimentConfig, load_experiment, save_experiment
from ldinfomax.datagen import ScenarioConfig
from ldinfomax.ica import IcaConfig
from ldinfomax.polytopes import PolytopeSpec, preset
from ldinfomax.solver import SolverConfig


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    # a fresh interpreter: the package's import must pull in neither subpackage
    src = str(Path(ldinfomax.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, ldinfomax.cli; "
        "print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"


SIDECAR_TEXT = """\
scenario.r = 3
scenario.m = 4
scenario.n = 200
scenario.rho = 0.25
scenario.dof = 4
scenario.snr_db = none
scenario.polytope = custom
scenario.polytope.domains = signed, signed, nonneg
scenario.polytope.groups = 0 1; 1 2
scenario.source_mode = copula_t
scenario.l1_mode = reject
scenario.seed = 7
solver.epsilon = 1e-05
solver.mu0 = 20
solver.iterations = 80
solver.record_every = 40
solver.seed = 7
ica.seed = 7
experiment.algo = both
experiment.trials = 3
experiment.rho_grid = 0, 0.125
experiment.output_dir = res
"""


def small_experiment(seed=0, **kw):
    scenario = ScenarioConfig(
        r=2, m=4, n=200, rho=0.2, snr_db=30.0,
        polytope=preset("l1_nonneg", 2), seed=seed,
    )
    solver = SolverConfig(iterations=80, record_every=40, seed=seed, mu0=20.0)
    kw.setdefault("trials", 2)
    return ExperimentConfig(scenario=scenario, solver=solver, **kw)


class TestConfigRoundtrip:
    def test_kv_roundtrip(self, tmp_path):
        # one assignment per line, spaces around "=" optional; the writer puts
        # one "key = value" line per field and reads back equal
        path = tmp_path / "a.cfg"
        path.write_text("solver.mu0=20\n  experiment.trials   =  3  \n")
        cfg = load_experiment(path)
        assert (cfg.solver.mu0, cfg.trials) == (20.0, 3)
        save_experiment(cfg, path)
        lines = path.read_text().splitlines()
        assert "solver.mu0 = 20" in lines and "experiment.trials = 3" in lines
        assert all(" = " in line for line in lines)
        assert load_experiment(path) == cfg

    def test_kv_comments_and_errors(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("# comment\nscenario.r = 3  # inline\n\n")
        assert load_experiment(path).scenario.r == 3
        path.write_text("# comment\nnot an assignment\n")
        with pytest.raises(ValueError, match=r"b\.cfg:2: expected 'key = value'"):
            load_experiment(path)

    def test_experiment_roundtrip(self, tmp_path):
        cfg = small_experiment(seed=3, algo="ica", rho_grid=(0.0, 0.5))
        path = tmp_path / "exp.cfg"
        save_experiment(cfg, path)
        assert load_experiment(path) == cfg

    def test_noiseless_roundtrip(self, tmp_path):
        cfg = small_experiment()
        cfg = replace(cfg, scenario=replace(cfg.scenario, snr_db=None))
        path = tmp_path / "exp.cfg"
        save_experiment(cfg, path)
        assert "scenario.snr_db = none" in path.read_text().splitlines()
        assert load_experiment(path) == cfg

    def test_custom_polytope_roundtrip(self, tmp_path):
        p = PolytopeSpec(3, ("signed", "signed", "nonneg"), ((0, 1), (1, 2)))
        cfg = ExperimentConfig(scenario=ScenarioConfig(r=3, m=4, polytope=p))
        path = tmp_path / "exp.cfg"
        save_experiment(cfg, path)
        assert "scenario.polytope = custom" in path.read_text().splitlines()
        assert load_experiment(path).scenario.polytope == p

    def test_preset_polytope_roundtrip(self, tmp_path):
        p = preset("l1", 4)
        cfg = ExperimentConfig(scenario=ScenarioConfig(r=4, m=4, polytope=p))
        path = tmp_path / "exp.cfg"
        save_experiment(cfg, path)
        polytope_lines = [line for line in path.read_text().splitlines() if "polytope" in line]
        assert polytope_lines == ["scenario.polytope = l1"]
        assert load_experiment(path).scenario.polytope == p

    def test_sidecar_text_pins_key_order(self, tmp_path):
        cfg = ExperimentConfig(
            scenario=ScenarioConfig(
                r=3, m=4, n=200, rho=0.25, snr_db=None, seed=7,
                polytope=PolytopeSpec(3, ("signed", "signed", "nonneg"), ((0, 1), (1, 2))),
            ),
            solver=SolverConfig(iterations=80, record_every=40, mu0=20.0, seed=7),
            ica=IcaConfig(seed=7),
            algo="both", trials=3, rho_grid=(0.0, 0.125), output_dir="res",
        )
        path = tmp_path / "exp.cfg"
        save_experiment(cfg, path)
        assert path.read_text() == SIDECAR_TEXT
        assert load_experiment(path) == cfg

    def test_defaults_from_empty_mapping(self, tmp_path):
        # an empty file, and one of comments only
        path = tmp_path / "empty.cfg"
        for text in ("", "# nothing set\n\n"):
            path.write_text(text)
            assert load_experiment(path) == ExperimentConfig()

    def test_unknown_keys_rejected(self, tmp_path):
        # a misspelt key, and removed keys that older sidecars still carry
        path = tmp_path / "typo.cfg"
        for key in ("solver.iteration", "solver.averaging_power", "experiment.starts"):
            path.write_text(f"{key} = 5\n")
            with pytest.raises(ValueError, match=f"typo.cfg:1: {key}: unknown key"):
                load_experiment(path)
        # sidecars written while the step rule, the start, the ICA source
        # model, the ICA learning rate and the ICA stop rule were settable
        for key, value in (
            ("solver.schedule", "inverse_sqrt"), ("solver.init", "random"), ("ica.n_subgauss", "2"),
            ("ica.learning_rate", "0.1"), ("ica.max_iter", "500"), ("ica.tol", "1e-07"),
        ):
            path.write_text(f"{SIDECAR_TEXT}{key} = {value}\n")
            with pytest.raises(ValueError, match=f"typo.cfg:23: {key}: unknown key"):
                load_experiment(path)

    def test_out_of_range_rho_rejected(self, tmp_path):
        # r=5 needs rho in (-0.25, 1); a bad value fails before any trial runs
        with pytest.raises(ValueError, match="need rho in"):
            ScenarioConfig(r=5, rho=-0.5)
        with pytest.raises(ValueError, match="rho=-0.5"):
            ExperimentConfig(rho_grid=(0.0, -0.5, 0.3))
        path = tmp_path / "rho.cfg"
        path.write_text("experiment.rho_grid = 0, 1\n")
        with pytest.raises(ValueError, match=r"rho\.cfg:1: experiment\.rho_grid: rho=1\.0"):
            load_experiment(path)


# each text, the line and key its error names, and the reason
BAD_CONFIGS = {
    "float_for_int": ("solver.iterations = 5.0\n", 1, "solver.iterations", "expected int, got '5.0'"),
    "word_for_float": ("scenario.snr_db = loud\n", 1, "scenario.snr_db", "expected float, got 'loud'"),
    "nan_snr": (
        "scenario.snr_db = nan\n", 1, "scenario.snr_db", "snr_db must be None, finite or inf, got nan",
    ),
    "minus_inf_snr": (
        "scenario.snr_db = -inf\n", 1, "scenario.snr_db", "snr_db must be None, finite or inf, got -inf",
    ),
    "custom_without_domains": (
        "# a custom polytope\nscenario.polytope = custom\n", 2, "scenario.polytope",
        "custom needs scenario.polytope.domains",
    ),
    "repeated_key": (
        "solver.mu0 = 20\nsolver.mu0 = 30\n", 2, "solver.mu0", "given again (first on line 1)",
    ),
    "unknown_tag": (
        "scenario.r = 2\nscenario.polytope = custom\nscenario.polytope.domains = signed, open\n",
        3, "scenario.polytope.domains", "unknown domain tag 'open'",
    ),
    "group_out_of_range": (
        "scenario.r = 2\nscenario.polytope = custom\nscenario.polytope.domains = signed, signed\n"
        "scenario.polytope.groups = 0 2\n", 4, "scenario.polytope.groups", "group (0, 2) has indices",
    ),
    "groups_beside_a_preset": (
        "scenario.polytope = l1\nscenario.polytope.groups = 0 1\n", 2, "scenario.polytope.groups",
        "is read only when scenario.polytope = custom",
    ),
    "unknown_preset": (
        "scenario.polytope = cube\n", 1, "scenario.polytope", "expected custom or one of",
    ),
}


class TestConfigErrors:
    """The reader names the file, the line and the key of every value it rejects."""

    @pytest.mark.parametrize("text, line, key, reason", BAD_CONFIGS.values(), ids=list(BAD_CONFIGS))
    def test_names_file_line_and_key(self, tmp_path, text, line, key, reason):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_experiment(path)
        assert str(info.value).startswith(f"{path}:{line}: {key}: {reason}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["solver.epsilon", "solver.mu0"])
    def test_non_finite_positive_value_names_its_line(self, tmp_path, key, value):
        name = key.split(".")[1]
        reason = f"{name} must be positive and finite, got {float(value)}"
        with pytest.raises(ValueError, match=f"^{reason}$"):
            SolverConfig(**{name: float(value)})
        path = tmp_path / "bad.cfg"
        path.write_text(f"solver.iterations = 5\n{key} = {value}\n")
        with pytest.raises(ValueError) as info:
            load_experiment(path)
        assert str(info.value) == f"{path}:2: {key}: {reason}"

    def test_gen_exits_1_naming_the_entry(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("solver.mu0 = 20\nsolver.mu0 = 30\n")
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: solver.mu0: given again (first on line 1)\n"
        assert not (tmp_path / "out").exists()


class TestGen:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=1), cfg_path)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        written = ["sources.csv", "mixing.csv", "mixtures.csv", "scenario.cfg"]
        assert sorted(f.name for f in out.iterdir()) == sorted(written)
        text = capsys.readouterr().out
        assert "feasible: True" in text
        assert f"wrote {', '.join(written)} to {out}" in text

    def test_noiseless_flag_exact_product(self, tmp_path):
        # the config's scenario.snr_db = none drops the mixture noise
        cfg = small_experiment(seed=2)
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(replace(cfg, scenario=replace(cfg.scenario, snr_db=None)), cfg_path)
        assert "scenario.snr_db = none" in cfg_path.read_text().splitlines()
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        s = np.loadtxt(out / "sources.csv", delimiter=",")
        h = np.loadtxt(out / "mixing.csv", delimiter=",")
        y = np.loadtxt(out / "mixtures.csv", delimiter=",")
        assert np.allclose(y, h @ s, rtol=1e-9, atol=1e-12)

    def test_same_seed_identical_files(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=3), cfg_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["gen", "--config", str(cfg_path), "--out", str(out1)])
        main(["gen", "--config", str(cfg_path), "--out", str(out2)])
        for name in ("sources.csv", "mixing.csv", "mixtures.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestRun:
    def test_convergence_schema_and_rows(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=4, trials=1), cfg_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,sinr_mean_db,sinr_std_db"
        # iterations=80, record_every=40 -> records at 0, 40, 80
        assert len(lines) == 4
        trials = (out / "trials.csv").read_text().strip().splitlines()
        assert trials[0] == "trial,seed,status,final_objective,final_sinr_db"
        assert (out / "run.cfg").exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=5), cfg_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--out", str(out2)])
        assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()

    def test_ica_run(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=6, algo="ica", trials=2), cfg_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # single aggregated row for ICA

    def test_run_rejects_both(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=7, algo="both"), cfg_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err


def _failing(*args, **kwargs):
    raise RuntimeError("injected failure, with a comma")


class TestFailedTrials:
    def test_run_exits_nonzero_when_no_trial_succeeds(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=4), cfg_path)
        # the stacked run solves each trial alone once the stack fails
        monkeypatch.setattr(solver, "_solve", _failing)
        out = tmp_path / "out"
        out.mkdir()
        (out / "convergence.csv").write_text("stale table from an earlier run\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2
        assert all(r[2] == "failed: injected failure, with a comma" for r in rows)
        assert all(len(r) == 5 for r in rows)
        assert not (out / "convergence.csv").exists()
        assert "no trial succeeded" in capsys.readouterr().err

    def test_sweep_exits_nonzero_when_a_cell_is_empty(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(
            small_experiment(seed=8, algo="both", rho_grid=(0.0,), trials=1), cfg_path
        )
        monkeypatch.setattr(ica, "ica_separate", _failing)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,ld_infomax")
        assert "no trial succeeded for rho=0 ica" in capsys.readouterr().err

    def test_sweep_records_a_scenario_failure_per_trial(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(
            small_experiment(seed=8, algo="both", rho_grid=(0.0, 0.3), trials=2), cfg_path
        )
        real = cli.make_scenario

        def fail_trial_1(scenario_cfg):
            if scenario_cfg.seed == 9:
                raise RuntimeError("injected scenario failure")
            return real(scenario_cfg)

        monkeypatch.setattr(cli, "make_scenario", fail_trial_1)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        for rho in ("0", "0.3"):
            for algo in ("ld_infomax", "ica"):
                assert f"rho={rho} {algo} trial 1 failed: injected scenario failure" in err
        assert "trial 0 failed" not in err
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            ["0", "ld_infomax"], ["0", "ica"], ["0.3", "ld_infomax"], ["0.3", "ica"],
        ]
        assert (out / "sweep.cfg").exists()


class TestSweep:
    def test_two_rows_for_single_rho_both_algos(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(
            small_experiment(seed=8, algo="both", rho_grid=(0.0,), trials=1), cfg_path
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,algo,sinr_mean_db,sinr_std_db"
        assert len(lines) == 3
        assert lines[1].startswith("0,ld_infomax")
        assert lines[2].startswith("0,ica")

    def test_inf_sinr_gives_inf_std(self, tmp_path, monkeypatch):
        # trial 0 recovers exactly (SINR inf), trial 1 does not: std is inf, not nan
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=8, rho_grid=(0.0,), trials=2), cfg_path)
        real = solver.run

        def exact_on_trial_0(y, p, cfgs, ground_truth=None):
            states = real(y, p, cfgs, ground_truth)  # the sweep passes its trials as one stack
            for cfg, state in zip(cfgs, states):
                if cfg.seed == 8:
                    last = state.trajectory[-1]
                    state.trajectory[-1] = solver.TrajectoryPoint(last.iteration, last.objective,
                                                                  float("inf"))
            return states

        monkeypatch.setattr(solver, "run", exact_on_trial_0)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[1:] == ["0,ld_infomax,inf,inf"]

    def test_deterministic(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(
            small_experiment(seed=9, algo="both", rho_grid=(0.0, 0.3), trials=1),
            cfg_path,
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["sweep", "--config", str(cfg_path), "--out", str(out1)])
        main(["sweep", "--config", str(cfg_path), "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def _outputs(out):
    """Every file under ``out``, by relative path, as bytes."""
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


class TestWorkers:
    """``run`` and ``sweep`` spread trial chunks over worker processes: one
    worker and two must give the same bytes, and leave no process behind."""

    @pytest.mark.parametrize("error", [
        solver.DivergenceError("objective became non-finite at iteration 3", {"k": 3}),
        ica.IcaDivergenceError("infomax did not converge in 3 iterations"),
    ])
    def test_trial_errors_cross_the_pool(self, error):
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error) and str(back) == str(error)
        assert getattr(back, "state", None) == getattr(error, "state", None)

    def test_stacks_fill_the_cache_budget(self, monkeypatch):
        # one trial's solve at r=5, M=8, N=2,000 iterates over (3*5+8+1) x 2,000
        # float64, 384,000 bytes, so 5 trials fit the 2 MiB budget; one CPU takes
        # every chunk
        assert stats._solve_bytes(5, 8, 2000) == 384_000
        chunks = []
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(cli, "_map_chunks", lambda c, workers: chunks.extend(c) or [])
        cfg = ExperimentConfig(scenario=ScenarioConfig(r=5, m=8, n=2000), trials=20)
        for budget, sizes in ((stats.CACHE_BYTES, [5] * 4), (4 * 24 * 2000 * 8, [4] * 5)):
            monkeypatch.setattr(stats, "CACHE_BYTES", budget)
            chunks.clear()
            assert list(cli._trials(cfg, (0.0,), ("ld_infomax",))) == []
            assert [len(chunk[2]) for chunk in chunks] == sizes

    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        # five trials, at most four per stack: chunks of 4 and 1 on one worker,
        # 3 and 2 on two; trial 1's scenario, trial 2's ICA and trial 3's LD fail
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(
            small_experiment(seed=20, algo="both", rho_grid=(0.0, 0.3), trials=5), cfg_path
        )
        monkeypatch.setattr(stats, "CACHE_BYTES", 4 * stats._solve_bytes(2, 4, 200))
        real_scenario, real_run, real_ica = cli.make_scenario, solver.run, ica.ica_separate

        def scenario_fails_on_21(scenario_cfg):
            if scenario_cfg.seed == 21:
                raise RuntimeError("injected scenario failure")
            return real_scenario(scenario_cfg)

        # trial 2's mixtures at every rho the sweep and the ICA run solve
        cfg = load_experiment(cfg_path)
        trial_2 = [real_scenario(replace(cfg.scenario, seed=22, rho=rho)).y
                   for rho in (*cfg.rho_grid, cfg.scenario.rho)]

        def ica_fails_on_22(y, r):
            if any(np.array_equal(y, mixtures) for mixtures in trial_2):
                raise ica.IcaDivergenceError("injected ICA divergence")
            return real_ica(y, r)

        def ld_diverges_on_23(ys, p, cfgs, ground_truth=None):
            states = real_run(ys, p, cfgs, ground_truth)
            return [
                solver.DivergenceError("injected divergence", state) if cfg.seed == 23 else state
                for cfg, state in zip(cfgs, states)
            ]

        monkeypatch.setattr(cli, "make_scenario", scenario_fails_on_21)
        monkeypatch.setattr(ica, "ica_separate", ica_fails_on_22)
        monkeypatch.setattr(solver, "run", ld_diverges_on_23)
        seen = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            out = tmp_path / f"w{workers}"
            codes = [
                main(["run", "--config", str(cfg_path), "--out", str(out / "ld"),
                      "--algo", "ld_infomax"]),
                main(["run", "--config", str(cfg_path), "--out", str(out / "ica"),
                      "--algo", "ica"]),
                main(["sweep", "--config", str(cfg_path), "--out", str(out / "sweep")]),
            ]
            streams = capsys.readouterr()
            seen.append((codes, streams.out.replace(str(out), "OUT"), streams.err,
                         _outputs(out)))
            assert multiprocessing.active_children() == []
        assert seen[0] == seen[1]
        codes, _, err, files = seen[0]
        assert codes == [0, 0, 0]
        for line in ("rho=0 ld_infomax trial 1 failed: injected scenario failure",
                     "rho=0.3 ica trial 2 failed: injected ICA divergence",
                     "rho=0.3 ld_infomax trial 3 failed: injected divergence"):
            assert line in err
        assert b"failed: injected divergence" in files["ld/trials.csv"]
        assert b"failed: injected ICA divergence" in files["ica/trials.csv"]

    @staticmethod
    def overlapping_pairs_sweep(tmp_path, monkeypatch):
        """A sweep config on overlapping l1 pairs with steps large enough to
        need many Newton steps per projection; two trials per stack either
        way, so one worker and two solve the same stacks."""
        scenario = ScenarioConfig(
            r=5, m=6, n=500, snr_db=30.0, seed=7,
            polytope=PolytopeSpec(5, ("signed",) * 5, ((0, 1), (1, 2), (2, 3))),
        )
        solver_cfg = SolverConfig(iterations=8, record_every=4, mu0=2000.0, seed=7)
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(
            ExperimentConfig(scenario=scenario, solver=solver_cfg, algo="ld_infomax",
                             trials=4, rho_grid=(0.0, 0.25)),
            cfg_path,
        )
        monkeypatch.setattr(stats, "CACHE_BYTES", 2 * stats._solve_bytes(5, 6, 500))
        return cfg_path

    def test_worker_warnings_reach_the_parent_in_trial_order(self, tmp_path, monkeypatch):
        # forked workers inherit the patched scenario generator, which warns once per trial
        cfg_path = self.overlapping_pairs_sweep(tmp_path, monkeypatch)
        real = cli.make_scenario

        def warn_per_trial(scenario_cfg):
            warnings.warn(f"scenario rho={scenario_cfg.rho} seed={scenario_cfg.seed}")
            return real(scenario_cfg)

        monkeypatch.setattr(cli, "make_scenario", warn_per_trial)
        seen = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            seen.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        assert seen[0] == seen[1]
        assert [w[0] for w in seen[0]] == [
            f"scenario rho={rho} seed={seed}" for rho in (0.0, 0.25) for seed in range(7, 11)
        ]

    def test_overlapping_pairs_sweep_is_the_same_on_any_worker_count(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg_path = self.overlapping_pairs_sweep(tmp_path, monkeypatch)
        seen = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            out = tmp_path / f"w{workers}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
            streams = capsys.readouterr()
            seen.append((code, streams.out.replace(str(out), "OUT"), streams.err, _outputs(out),
                         [str(w.message) for w in caught]))
        assert seen[0] == seen[1]
        code, _, err, files, caught = seen[0]
        assert code == 0 and err == "" and caught == []
        assert set(files) == {"sweep.csv", "sweep.cfg"}

    def test_a_killed_worker_fails_the_command(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=30, algo="both", trials=4), cfg_path)
        parent, real = os.getpid(), cli.make_scenario

        def exit_in_worker(scenario_cfg):
            if os.getpid() != parent:
                os._exit(3)
            return real(scenario_cfg)

        monkeypatch.setattr(cli, "make_scenario", exit_in_worker)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        codes = []
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert codes == [1]
        assert "error: A process in the process pool was terminated abruptly" in (
            capsys.readouterr().err)
        assert multiprocessing.active_children() == []


class TestEval:
    def test_exact_estimate_inf(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        truth = rng.standard_normal((3, 40))
        np.savetxt(tmp_path / "t.csv", truth, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "e.csv", truth, delimiter=",", fmt="%.17g")
        assert main(["eval", str(tmp_path / "e.csv"), str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "o")]) == 0
        assert "SINR: inf" in capsys.readouterr().out

    def test_permuted_negated_estimate_inf(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        truth = rng.standard_normal((3, 40))
        est = -truth[[2, 0, 1]]
        np.savetxt(tmp_path / "t.csv", truth, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "e.csv", est, delimiter=",", fmt="%.17g")
        assert main(["eval", str(tmp_path / "e.csv"), str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "o")]) == 0
        assert "SINR: inf" in capsys.readouterr().out

    def test_zero_estimate_closed_form(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        truth = rng.standard_normal((4, 60))
        est = np.zeros_like(truth)
        np.savetxt(tmp_path / "t.csv", truth, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "e.csv", est, delimiter=",", fmt="%.17g")
        assert main(["eval", str(tmp_path / "e.csv"), str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        value = float([l for l in out.splitlines() if l.startswith("SINR:")][0].split()[1])
        assert value == pytest.approx(10 * np.log10(1 / 4), abs=1e-6)
        report = (tmp_path / "o" / "report.csv").read_text().splitlines()
        assert report[0] == "field,value"

    def test_one_sample_files_keep_their_rows(self, tmp_path):
        # a 3 x 1 estimate and truth are three sources of one sample each
        truth = np.array([[0.5], [-0.25], [1.0]])
        np.savetxt(tmp_path / "t.csv", truth, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "e.csv", truth[[1, 2, 0]], delimiter=",", fmt="%.17g")
        assert main(["eval", str(tmp_path / "e.csv"), str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "o")]) == 0
        report = dict(
            line.split(",", 1)
            for line in (tmp_path / "o" / "report.csv").read_text().splitlines()[1:]
        )
        assert len(report["perm"].split()) == 3

    def test_non_finite_estimate_names_its_file(self, tmp_path, capsys):
        truth = np.random.default_rng(13).standard_normal((3, 40))
        estimate = truth.copy()
        estimate[1, 5] = np.nan
        np.savetxt(tmp_path / "t.csv", truth, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "e.csv", estimate, delimiter=",", fmt="%.17g")
        assert main(["eval", str(tmp_path / "e.csv"), str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'e.csv'} contain non-finite entries\n"
        assert not (tmp_path / "o").exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")]) == 1
        assert "error" in capsys.readouterr().err
