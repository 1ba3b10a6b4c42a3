"""The benchmark's workloads: inputs built from a seed, timed cases, and the
checks that count failed outputs.

A workload's fixed work is one round over its cases. Solve workloads call
``solver.run`` on scenarios generated at set-up, one case per solve; the
sweep workload calls the CLI in-process, so its scenarios are generated
inside its one case.
"""

import contextlib
import io
import math
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ldinfomax import cli, config, datagen, evaluation, ica, polytopes, solver

# five coordinates, three overlapping l1 pairs: projected by Dykstra's loop
MIXED_PAIRS = polytopes.PolytopeSpec(5, ("signed",) * 5, ((0, 1), (1, 2), (2, 3)))


@dataclass
class Outcome:
    """Trials attempted and failed, with a message per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, trials, message):
        self.failed += trials
        self.problems.append(message)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def check_estimate(label, p, state, s_true):
    """One solve: finite objective, estimate inside ``p``, finite SINR."""
    out = Outcome(attempted=1)
    if isinstance(state, Exception):
        out.fail(1, f"{label}: raised {type(state).__name__}: {state}")
        return out, None
    estimate = np.asarray(state.estimate, dtype=float)
    if not math.isfinite(state.objective):
        out.fail(1, f"{label}: objective {state.objective}")
        return out, None
    if not np.all(np.isfinite(estimate)) or not polytopes.contains(p, estimate):
        out.fail(1, f"{label}: estimate outside the polytope "
                    f"(violation {polytopes.max_violation(p, estimate):.3g})")
        return out, None
    sinr = evaluation.sinr_db(estimate, s_true)
    if math.isnan(sinr):
        out.fail(1, f"{label}: SINR is nan")
        return out, None
    return out, sinr


SWEEP_HEADER = "rho,algo,sinr_mean_db,sinr_std_db"
_FAILED_TRIAL = re.compile(r"^rho=(\S+) (\S+) trial \d+ failed:", re.MULTILINE)


def check_sweep(csv_path, exit_code, stderr, rho_grid, algos, trials):
    """Count failed trials of one ``ldinfomax sweep`` call.

    Returns the :class:`Outcome` and the LD rows' mean SINRs. The exit code
    alone proves nothing: the sweep drops failed trials, logs them on stderr
    and still exits 0. Every (rho, algo) row must be present
    once with finite values; a missing or non-finite row fails all of its
    trials, and a present row fails the trials its stderr lines name.
    """
    out = Outcome(attempted=len(rho_grid) * len(algos) * trials)
    if exit_code != 0:
        out.fail(out.attempted, f"sweep exited with code {exit_code}")
        return out, []
    try:
        lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        out.fail(out.attempted, f"sweep.csv unreadable: {exc}")
        return out, []
    if not lines or lines[0] != SWEEP_HEADER:
        out.fail(out.attempted, f"sweep.csv header is {lines[:1]}")
        return out, []
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        try:
            key = (float(fields[0]), fields[1])
            rows.setdefault(key, []).append((float(fields[2]), float(fields[3])))
        except (IndexError, ValueError):
            out.problems.append(f"sweep.csv row not parsed: {line!r}")
    ld_means = []
    logged = Counter((float(r), a) for r, a in _FAILED_TRIAL.findall(stderr))
    for rho in rho_grid:
        for algo in algos:
            got = rows.get((float(rho), algo), [])
            if len(got) != 1 or not all(math.isfinite(v) for v in got[0]):
                out.fail(trials, f"sweep.csv row rho={rho} {algo}: {got}")
                continue
            n_failed = min(logged[(float(rho), algo)], trials)
            if n_failed:
                out.fail(n_failed, f"rho={rho} {algo}: {n_failed} trials failed")
            if algo == "ld_infomax":
                ld_means.append(got[0][0])
    return out, ld_means


@dataclass(frozen=True)
class Solve:
    """One LD solve: scenario, solver settings, and whether its SINR is scored."""

    label: str
    scenario_cfg: datagen.ScenarioConfig
    solver_cfg: solver.SolverConfig
    scored: bool = True


class SolveWorkload:
    """Direct ``solver.run`` calls, one case per solve, on scenarios
    generated at set-up.

    ``sinr`` maps each scored case to the SINR of its estimate, which is
    deterministic given the seed. ``sinr_db`` is their median, because some
    scenarios stall near 4 dB and one of them would swing a mean. Every
    later repetition of a case must return the same estimate as its first.
    """

    def __init__(self, solves):
        self.solves = solves
        self.cases = [s.label for s in solves]
        self.scenarios = [datagen.make_scenario(s.scenario_cfg) for s in solves]
        self.first = {}
        self.sinr = {}
        self.notes = {}

    def run_case(self, i):
        spec, sc = self.solves[i], self.scenarios[i]
        try:
            return solver.run(
                sc.y, spec.scenario_cfg.polytope, spec.solver_cfg, ground_truth=sc.s_true
            )
        except Exception as exc:  # a failed solve is counted, not fatal
            return exc

    def check_case(self, i, state):
        spec, sc = self.solves[i], self.scenarios[i]
        out, sinr = check_estimate(spec.label, spec.scenario_cfg.polytope, state, sc.s_true)
        if sinr is None:
            return out
        self.notes[f"{spec.label}.sinr_db"] = sinr
        if spec.scored:
            self.sinr[spec.label] = sinr
        if not np.array_equal(state.estimate, self.first.setdefault(i, state.estimate)):
            out.fail(1, f"{spec.label}: estimate differs from the first repetition")
        return out


class SweepWorkload:
    """In-process ``ldinfomax sweep --algo both`` writing CSVs into ``out_dir``.

    Its one case is the whole sweep; its scenarios are generated inside it.
    Its SINR is the mean of the LD rows, i.e. over every LD trial: per
    scenario the sweep's LD SINR spans 8-17.5 dB, so only an average over
    several trials is steady from seed to seed.
    """

    algos = ("ld_infomax", "ica")

    def __init__(self, seed, out_dir, rho_grid, trials, iterations):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.rho_grid = rho_grid
        self.trials = trials
        cfg = config.ExperimentConfig(
            scenario=datagen.ScenarioConfig(
                r=5, m=8, n=2000, rho=0.0, snr_db=30.0,
                polytope=polytopes.preset("linf_nonneg", 5), seed=seed,
            ),
            solver=solver.SolverConfig(
                iterations=iterations, record_every=iterations, seed=seed
            ),
            ica=ica.IcaConfig(seed=seed),
            algo="both",
            trials=trials,
            rho_grid=rho_grid,
            output_dir=str(self.out_dir),
        )
        cfg_path = self.out_dir / "bench_sweep.cfg"
        config.save_experiment(cfg, cfg_path)
        self.argv = [
            "sweep", "--config", str(cfg_path), "--algo", "both",
            "--seed", str(seed), "--out", str(self.out_dir),
        ]
        self.csv = self.out_dir / "sweep.csv"
        self.cases = [f"sweep.{seed}"]
        self.first = None
        self.sinr = {}
        self.notes = {}

    def run_case(self, i):
        self.csv.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli.main(self.argv)
        return exit_code, stderr.getvalue()

    def check_case(self, i, result):
        exit_code, stderr = result
        out, ld_means = check_sweep(
            self.csv, exit_code, stderr, self.rho_grid, self.algos, self.trials
        )
        if out.failed:
            return out
        label = self.cases[i]
        self.sinr[label] = self.notes[f"{label}.ld_sinr_db"] = statistics.fmean(ld_means)
        text = self.csv.read_text(encoding="utf-8")
        if self.first is None:
            self.first = text
        elif text != self.first:
            out.fail(out.attempted, "sweep.csv differs from the first repetition")
        return out


def _curve_box(seed, scenarios):
    return [
        Solve(
            f"curve-box.{seed + k}",
            datagen.ScenarioConfig(
                r=5, m=8, n=2000, rho=0.5, snr_db=30.0,
                polytope=polytopes.preset("linf_nonneg", 5), seed=seed + k,
            ),
            solver.SolverConfig(iterations=1000, record_every=100, seed=seed + k),
        )
        for k in range(scenarios)
    ]


def _project_heavy(seed):
    solves = [Solve(
        f"l1-n20000.{seed}",
        datagen.ScenarioConfig(
            r=5, m=8, n=20000, rho=0.5, snr_db=30.0,
            polytope=polytopes.preset("l1", 5), seed=seed,
        ),
        # some seeds sit near 0 dB until iteration 300; in ten seeds tried,
        # all reached 17 dB or more by iteration 500
        solver.SolverConfig(iterations=500, record_every=500, seed=seed),
    )]
    # Dykstra's sweep count depends on the data, so several short mixed
    # solves average it. scored=False: this polytope does not separate
    # within any budget the benchmark can afford (about -6 dB at 60 steps).
    solves += [
        Solve(
            f"mixed-n2000.{seed + k}",
            datagen.ScenarioConfig(
                r=5, m=8, n=2000, rho=0.5, snr_db=30.0,
                polytope=MIXED_PAIRS, seed=seed + k,
            ),
            solver.SolverConfig(iterations=8, record_every=8, seed=seed + k),
            scored=False,
        )
        for k in range(3)
    ]
    return solves


def _record_r12(seed, scenarios):
    # independent sources: at r=12 dependent copula sources stay near 0 dB
    # for thousands of iterations, which would make sinr_db meaningless here
    return [
        Solve(
            f"r12.{seed + k}",
            datagen.ScenarioConfig(
                r=12, m=16, n=2000, snr_db=30.0, source_mode="uniform_iid",
                polytope=polytopes.preset("linf_nonneg", 12), seed=seed + k,
            ),
            solver.SolverConfig(iterations=500, record_every=50, seed=seed + k),
        )
        for k in range(scenarios)
    ]


def make(name, seed, out_dir):
    """Build workload ``name`` for ``seed``; this is the timed set-up."""
    if name == "curve-box":
        return SolveWorkload(_curve_box(seed, scenarios=5))
    if name == "project-heavy":
        return SolveWorkload(_project_heavy(seed))
    if name == "record-r12":
        return SolveWorkload(_record_r12(seed, scenarios=5))
    if name == "sweep":
        return SweepWorkload(seed, out_dir, rho_grid=(0.0, 0.3, 0.6), trials=5, iterations=300)
    raise ValueError(f"unknown workload {name!r}")
