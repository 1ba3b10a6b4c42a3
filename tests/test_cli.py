import csv
import multiprocessing
import os
import pickle
import threading
import warnings

import numpy as np
import pytest

from ldinfomax import cli, ica, solver
from ldinfomax.cli import main
from ldinfomax.config import (
    ExperimentConfig,
    experiment_from_mapping,
    experiment_to_mapping,
    load_experiment,
    polytope_from_fields,
    polytope_to_fields,
    read_kv,
    save_experiment,
    write_kv,
)
from ldinfomax.datagen import ScenarioConfig
from ldinfomax.ica import IcaConfig
from ldinfomax.polytopes import PolytopeSpec, preset
from ldinfomax.solver import SolverConfig


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
ica.max_iter = 500
ica.tol = 1e-07
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
        path = tmp_path / "a.cfg"
        write_kv(path, {"x.y": "1", "z": "hello"})
        assert read_kv(path) == {"x.y": "1", "z": "hello"}

    def test_kv_comments_and_errors(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("# comment\nscenario.r = 5  # inline\n\n")
        assert read_kv(path) == {"scenario.r": "5"}
        path.write_text("not an assignment\n")
        with pytest.raises(ValueError):
            read_kv(path)

    def test_experiment_roundtrip(self, tmp_path):
        cfg = small_experiment(seed=3, algo="ica", rho_grid=(0.0, 0.5))
        path = tmp_path / "exp.cfg"
        save_experiment(cfg, path)
        assert load_experiment(path) == cfg

    def test_noiseless_roundtrip(self):
        cfg = small_experiment()
        from dataclasses import replace

        cfg = replace(cfg, scenario=replace(cfg.scenario, snr_db=None))
        assert experiment_from_mapping(experiment_to_mapping(cfg)) == cfg

    def test_custom_polytope_roundtrip(self):
        p = PolytopeSpec(3, ("signed", "signed", "nonneg"), ((0, 1), (1, 2)))
        fields = polytope_to_fields(p)
        assert fields["scenario.polytope"] == "custom"
        assert polytope_from_fields(fields, 3) == p

    def test_preset_polytope_roundtrip(self):
        p = preset("l1", 4)
        fields = polytope_to_fields(p)
        assert fields == {"scenario.polytope": "l1"}
        assert polytope_from_fields(fields, 4) == p

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

    def test_defaults_from_empty_mapping(self):
        cfg = experiment_from_mapping({})
        assert cfg == ExperimentConfig()

    def test_unknown_keys_rejected(self, tmp_path):
        # a misspelt key, and removed keys that older sidecars still carry
        for key in ("solver.iteration", "solver.averaging_power", "experiment.starts"):
            with pytest.raises(ValueError, match=key):
                experiment_from_mapping({key: "5"})
        path = tmp_path / "typo.cfg"
        path.write_text("solver.iteration = 5\n")
        with pytest.raises(ValueError, match="solver.iteration"):
            load_experiment(path)
        # sidecars written while the step rule, the start, the ICA source
        # model and the ICA learning rate were settable
        for key, value in (
            ("solver.schedule", "inverse_sqrt"), ("solver.init", "random"), ("ica.n_subgauss", "2"),
            ("ica.learning_rate", "0.1"),
        ):
            path.write_text(f"{SIDECAR_TEXT}{key} = {value}\n")
            with pytest.raises(ValueError, match=key):
                load_experiment(path)

    def test_out_of_range_rho_rejected(self):
        # r=5 needs rho in (-0.25, 1); a bad value fails before any trial runs
        with pytest.raises(ValueError, match="need rho in"):
            ScenarioConfig(r=5, rho=-0.5)
        with pytest.raises(ValueError, match="rho=-0.5"):
            ExperimentConfig(rho_grid=(0.0, -0.5, 0.3))
        with pytest.raises(ValueError, match="rho=1.0"):
            experiment_from_mapping({"experiment.rho_grid": "0, 1"})


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
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(small_experiment(seed=2), cfg_path)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out), "--noiseless"]) == 0
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
        monkeypatch.setattr(solver, "run", _failing)
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

    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        # five trials, at most four per stack: chunks of 4 and 1 on one worker,
        # 3 and 2 on two; trial 1's scenario, trial 2's ICA and trial 3's LD fail
        cfg_path = tmp_path / "exp.cfg"
        save_experiment(
            small_experiment(seed=20, algo="both", rho_grid=(0.0, 0.3), trials=5), cfg_path
        )
        monkeypatch.setattr(cli, "STACK_BYTES", 4 * (2 + 4) * 200 * 8)
        real_scenario, real_run, real_ica = cli.make_scenario, solver.run, ica.ica_separate

        def scenario_fails_on_21(scenario_cfg):
            if scenario_cfg.seed == 21:
                raise RuntimeError("injected scenario failure")
            return real_scenario(scenario_cfg)

        def ica_fails_on_22(y, r, cfg):
            if cfg.seed == 22:
                raise ica.IcaDivergenceError("injected ICA divergence")
            return real_ica(y, r, cfg)

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

    def test_worker_warnings_reach_the_parent_in_trial_order(self, tmp_path, monkeypatch):
        # Dykstra's projection on overlapping l1 pairs stops at its sweep cap;
        # two trials per stack either way, so both runs solve the same stacks
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
        monkeypatch.setattr(cli, "STACK_BYTES", 2 * (5 + 6) * 500 * 8)
        seen = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            seen.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        assert seen[0] == seen[1]
        assert len(seen[0]) == 4 and all("Dykstra" in w[0] for w in seen[0])

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

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")]) == 1
        assert "error" in capsys.readouterr().err
