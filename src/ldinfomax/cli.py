"""Experiment harness: scenario generation, solver runs, correlation sweeps,
and estimate evaluation, all emitting plot-ready CSV files.

Subcommands
-----------
``gen``    write a scenario (sources, mixing matrix, mixtures) plus sidecar.
``run``    run seeded trials of one algorithm and write the aggregated
           SINR-versus-iteration convergence table plus per-trial finals.
``sweep``  run both algorithms over a grid of source correlation levels and
           write the (rho, algo, sinr) comparison table.
``eval``   score an estimate CSV against a ground-truth CSV.

Every command writes a config sidecar next to its outputs so any result can
be regenerated, and all floats are formatted with 12 significant digits so
reruns with the same master seed produce byte-identical files.
"""

import argparse
import contextlib
import itertools
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, ica, solver, stats
from .config import (
    ExperimentConfig,
    format_float,
    load_experiment,
    save_experiment,
    write_csv,
)
from .datagen import make_scenario, save_scenario
from .polytopes import contains

__all__ = ["main"]


def _cmd_gen(cfg, out_dir):
    """Generate one scenario and write its matrices and sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario = make_scenario(cfg.scenario)
    save_scenario(scenario, out)
    save_experiment(cfg, out / "scenario.cfg")

    feasible = contains(cfg.scenario.polytope, scenario.s_true, tol=1e-9)
    clean = scenario.h_mix @ scenario.s_true
    noise = scenario.y - clean
    if scenario.noise_sigma > 0:
        realized = 10.0 * np.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
        snr_text = f"{realized:.2f} dB"
    else:
        snr_text = "noiseless"
    print(
        f"scenario: r={cfg.scenario.r} m={cfg.scenario.m} n={cfg.scenario.n} "
        f"rho={format_float(cfg.scenario.rho)}"
    )
    print(f"sources feasible: {feasible}; realized SNR: {snr_text}")
    print(f"wrote sources.csv, mixing.csv, mixtures.csv, scenario.cfg to {out}")
    return 0


def _usable_cpus():
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _trials(cfg, rhos, algos):
    """Run every trial at each correlation in ``rhos`` with each algorithm in ``algos``.

    Trial ``t`` seeds its scenario, solver and ICA with the master seed + ``t``.
    The trials of each correlation go in chunks (:func:`_chunk`), whose LD
    trials run as one stacked :func:`solver.run`: at most as many as keep the
    solve's working set, the stacked (r+M+1, T, N) float64 buffer with the
    (r, T, N) step and weighted-sum buffers, within :data:`stats.CACHE_BYTES`
    (5 at r=5, M=8, N=2,000), and at most the trials divided by the usable
    CPUs, rounded up, so that every CPU gets a share; the chunks run on one
    worker process per CPU (:func:`_map_chunks`). Yields
    ``(trial, seed, results)`` in (rho, trial) order, each chunk's once it and
    every earlier chunk are done; ``results`` maps each algorithm to
    ``(curve, final_sinr, objective)`` or to the exception that failed it.
    Each trial's results do not depend on its chunk, so neither does the
    output on the number of CPUs.
    """
    sc = cfg.scenario
    cpus = _usable_cpus()
    fit = stats.CACHE_BYTES // stats._solve_bytes(sc.r, sc.m, sc.n)
    size = max(1, min(fit, math.ceil(cfg.trials / cpus)))
    chunks = [
        (cfg, rho, range(first, min(first + size, cfg.trials)), algos)
        for rho in rhos
        for first in range(0, cfg.trials, size)
    ]
    for chunk, results in zip(chunks, _map_chunks(chunks, min(cpus, len(chunks)))):
        for trial, result in zip(chunk[2], results):
            yield trial, sc.seed + trial, result


def _map_chunks(chunks, workers):
    """Yield the results of :func:`_chunk` on each of ``chunks``, in order.

    With one worker, or without the ``fork`` start method, the chunks run in
    this process. Otherwise they run in ``workers`` forked processes, which
    start from this process's modules as they are; each chunk's warnings are
    issued again here before its results are yielded.
    """
    import multiprocessing  # the pool machinery loads only when a command runs

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield from itertools.starmap(_chunk, chunks)
        return
    from concurrent.futures import ProcessPoolExecutor

    # a forked worker flushes its copy of what these buffer when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        for results, caught in pool.map(_chunk_in_worker, chunks):
            _reissue(caught)
            yield results


def _chunk_in_worker(chunk):
    """Run :func:`_chunk`; return its results and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        results = _chunk(*chunk)
    return results, [(w.message, w.filename, w.lineno) for w in caught]


def _reissue(caught):
    """Issue warnings recorded in a worker as their origin issued them there.

    Each goes through this process's filters and its origin module's
    registry, so a warning shows, repeats or raises as in a one-process run.
    """
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = modules.get(filename)
        if module is None:
            warnings.warn_explicit(message, type(message), filename, lineno)
        else:
            warnings.warn_explicit(
                message, type(message), filename, lineno, module=module.__name__,
                registry=vars(module).setdefault("__warningregistry__", {}),
            )


def _chunk(cfg, rho, trials, algos):
    """Run ``trials`` at correlation ``rho``; return each trial's results.

    First the scenarios, then all of their LD trials in one stacked
    :func:`solver.run`, then ICA trial by trial. A scenario that fails to
    generate fails every algorithm.
    """
    sc = cfg.scenario
    seeds = [sc.seed + trial for trial in trials]
    scenarios, results = [], []
    for seed in seeds:
        try:
            scenarios.append(make_scenario(replace(sc, seed=seed, rho=rho)))
            results.append({})
        except Exception as exc:  # a failed trial is recorded, not fatal
            scenarios.append(None)
            results.append(dict.fromkeys(algos, exc))
    ok = [i for i, scenario in enumerate(scenarios) if scenario is not None]
    for algo in algos:
        if algo == "ld_infomax":
            done = _ld_trials(cfg, [scenarios[i] for i in ok], [seeds[i] for i in ok])
        else:
            done = [_ica_trial(cfg, scenarios[i], seeds[i]) for i in ok]
        for i, result in zip(ok, done):
            results[i][algo] = result
    return results


def _ld_trials(cfg, scenarios, seeds):
    """Solve the LD trials of ``scenarios`` as one stack; return each one's result."""
    try:
        states = solver.run(
            [scenario.y for scenario in scenarios], cfg.scenario.polytope,
            [replace(cfg.solver, seed=seed) for seed in seeds],
            ground_truth=[scenario.s_true for scenario in scenarios],
        )
    except Exception as exc:  # a failure of the whole stack fails each of its trials
        return [exc] * len(scenarios)
    results = []
    for state in states:
        if isinstance(state, Exception):
            results.append(state)
        else:
            curve = [(pt.iteration, pt.sinr_db) for pt in state.trajectory]
            results.append((curve, curve[-1][1], state.objective))
    return results


def _ica_trial(cfg, scenario, seed):
    """Run one ICA trial; return its result or the exception that failed it."""
    try:
        # the per-row affine fit against the truth mirrors the error-minimizing
        # diagonal of the evaluation convention; the LD solver gets no such aid
        s_est = ica.ica_separate(scenario.y, cfg.scenario.r, replace(cfg.ica, seed=seed))
        s_est = ica.affine_match_to_reference(s_est, scenario.s_true)
        final_sinr = evaluation.sinr_db(s_est, scenario.s_true)
        return [(cfg.ica.max_iter, final_sinr)], final_sinr, float("nan")
    except Exception as exc:
        return exc


def _cmd_run(cfg, out_dir):
    """Run seeded trials of one algorithm; write convergence and finals CSVs.

    Returns 1 when no trial succeeded, else 0.
    """
    if cfg.algo == "both":
        raise ValueError("run expects a single algorithm; use sweep for both")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves, finals = [], []
    for trial, seed, results in _trials(cfg, (cfg.scenario.rho,), (cfg.algo,)):
        result = results[cfg.algo]
        if isinstance(result, Exception):
            finals.append((trial, seed, f"failed: {result}", "", ""))
            print(f"trial {trial} failed: {result}", file=sys.stderr, flush=True)
            continue
        curve, final_sinr, objective = result
        curves.append(curve)
        finals.append((trial, seed, "ok", objective, final_sinr))
        print(f"trial {trial}: final SINR {final_sinr:.2f} dB", flush=True)

    if curves:
        grid, mean, std = evaluation.aggregate(curves)
        write_csv(
            out / "convergence.csv",
            ("iteration", "sinr_mean_db", "sinr_std_db"),
            zip(grid.tolist(), mean.tolist(), std.tolist()),
        )
    else:
        # an earlier run's table must not sit beside this run's failures
        (out / "convergence.csv").unlink(missing_ok=True)
    write_csv(
        out / "trials.csv",
        ("trial", "seed", "status", "final_objective", "final_sinr_db"),
        finals,
    )
    save_experiment(cfg, out / "run.cfg")
    if not curves:
        print(f"wrote trials.csv, run.cfg to {out}")
        print("error: no trial succeeded; see trials.csv", file=sys.stderr)
        return 1
    print(f"wrote convergence.csv, trials.csv, run.cfg to {out}")
    return 0


def _cmd_sweep(cfg, out_dir):
    """Sweep source correlation for each algorithm; write the comparison CSV.

    A failed trial, including one whose scenario fails to generate, is logged
    on stderr and left out of its cell's mean. A (rho, algo) cell without a
    successful trial has no row in sweep.csv, and the command then returns 1.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    algos = ("ld_infomax", "ica") if cfg.algo == "both" else (cfg.algo,)
    rows, missing = [], []
    with contextlib.closing(_trials(cfg, cfg.rho_grid, algos)) as trials:
        for rho in cfg.rho_grid:
            per_algo = {algo: [] for algo in algos}
            for trial, _, results in itertools.islice(trials, cfg.trials):
                for algo, result in results.items():
                    if isinstance(result, Exception):
                        print(
                            f"rho={format_float(rho)} {algo} trial {trial} failed: {result}",
                            file=sys.stderr,
                            flush=True,
                        )
                    else:
                        per_algo[algo].append(result[1])
            for algo in algos:
                vals = np.asarray(per_algo[algo], dtype=float)
                if vals.size == 0:
                    missing.append(f"rho={format_float(rho)} {algo}")
                    continue
                mean, std = float(vals.mean()), float(evaluation._population_std(vals))
                rows.append((float(rho), algo, mean, std))
                print(
                    f"rho={format_float(rho)} {algo}: mean SINR {mean:.2f} dB (std {std:.2f})",
                    flush=True,
                )
    write_csv(out / "sweep.csv", ("rho", "algo", "sinr_mean_db", "sinr_std_db"), rows)
    save_experiment(cfg, out / "sweep.cfg")
    print(f"wrote sweep.csv, sweep.cfg to {out}")
    if missing:
        print(f"error: no trial succeeded for {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(estimate_path, truth_path, out_dir):
    """Score an estimate against ground truth; print and write the report."""
    # ndmin=2 reads a one-sample file as r x 1, not 1 x r; a rejected matrix is named by its file
    s_est, s_true = (
        stats._as_samples(np.loadtxt(path, delimiter=",", ndmin=2), str(path), min_samples=1)
        for path in (estimate_path, truth_path)
    )
    report = evaluation.evaluate(s_est, s_true)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        ("mse", format_float(report.mse)),
        ("sinr_db", format_float(report.sinr_db)),
        ("perm", " ".join(str(i) for i in report.alignment.perm)),
        ("signs", " ".join(str(s) for s in report.alignment.signs)),
        ("per_source_corr", " ".join(format_float(c) for c in report.per_source_corr)),
    ]
    write_csv(out / "report.csv", ("field", "value"), rows)
    print(f"MSE: {format_float(report.mse)}")
    print(f"SINR: {format_float(report.sinr_db)} dB")
    print(f"perm: {report.alignment.perm}  signs: {report.alignment.signs}")
    print(f"wrote report.csv to {out}")
    return 0


def _apply_overrides(cfg, args):
    scenario, solver_cfg, ica_cfg = cfg.scenario, cfg.solver, cfg.ica
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
        solver_cfg = replace(solver_cfg, seed=args.seed)
        ica_cfg = replace(ica_cfg, seed=args.seed)
    if getattr(args, "noiseless", False):
        scenario = replace(scenario, snr_db=None)
    cfg = replace(cfg, scenario=scenario, solver=solver_cfg, ica=ica_cfg)
    if getattr(args, "algo", None) is not None:
        cfg = replace(cfg, algo=args.algo)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    return cfg


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None, help="key-value config file")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--noiseless", action="store_true", help="drop mixture noise")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ldinfomax",
        description="LD-infomax source separation experiment harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("gen", help="generate a scenario")
    _add_common(p_gen)

    p_run = subs.add_parser("run", help="run trials, record convergence")
    _add_common(p_run)
    p_run.add_argument("--algo", choices=("ld_infomax", "ica"), default=None)
    p_run.add_argument("--trials", type=int, default=None)

    p_sweep = subs.add_parser("sweep", help="sweep source correlation levels")
    _add_common(p_sweep)
    p_sweep.add_argument("--algo", choices=("ld_infomax", "ica", "both"), default=None)
    p_sweep.add_argument("--trials", type=int, default=None)

    p_eval = subs.add_parser("eval", help="score an estimate against ground truth")
    p_eval.add_argument("estimate", type=str, help="estimate matrix CSV")
    p_eval.add_argument("truth", type=str, help="ground-truth matrix CSV")
    p_eval.add_argument("--out", type=str, default=None, help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args.estimate, args.truth, args.out or "out")
        cfg = load_experiment(args.config) if args.config else ExperimentConfig()
        cfg = _apply_overrides(cfg, args)
        out_dir = args.out or cfg.output_dir
        if args.command == "gen":
            return _cmd_gen(cfg, out_dir)
        if args.command == "run":
            return _cmd_run(cfg, out_dir)
        if args.command == "sweep":
            return _cmd_sweep(cfg, out_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
