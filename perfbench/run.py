"""Benchmark of ldinfomax's LD-infomax solves, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload curve-box --seed 3000 --seconds 20 --trace 0

One process runs one workload with one BLAS thread. After set-up it repeats
rounds of the workload's cases (one round is its fixed work), checks every
output, and starts no round that would end after ``--seconds``. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine, the
seed and the raw samples.

``scaled_wall_s`` is the median time of one round with each case's time
divided by the speed the reference kernel measured around it, and
``setup_s`` is scaled by the kernel timed right after set-up, because this
benchmark was tuned on a shared machine that alternates for tens of seconds
between quiet spells and spells up to 1.8x slower; raw times are in the info
line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics; spans are
installed only around traced cases and removed after each one.
"""

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine  # pins BLAS threads; must precede every numpy import

WORKLOADS = ("curve-box", "project-heavy", "record-r12", "sweep")
SETUP_SAMPLES = 3  # this process plus fresh processes, for the setup_s median
MIN_ROUNDS = 3  # untraced rounds per run, whatever --seconds says
REF_ITERATIONS = 40
# the reference kernel's time in quiet spells on a 2-vCPU Xeon VM (numpy 2.4,
# one OpenBLAS thread); there scaled times equal raw times
REF_SECONDS = 0.0095
LAYERS = ("solver", "polytopes", "evaluation", "datagen", "ica", "cli")
FAMILIES = ("box", "l1", "mixed")
UNMEASURED = {
    "stats": "on no workload path: the solver uses its own statistics kernel",
    "polytopes.project_columns.simplex": "no workload solves on l1_nonneg",
}


def timed_setup(workload, seed, out_dir):
    """Import the package and build the workload.

    Returns the raw set-up seconds, the same scaled by the reference kernel
    timed right after, and the workload.
    """
    t0 = time.perf_counter()
    machine.import_package()
    import workloads

    built = workloads.make(workload, seed, out_dir)
    raw = time.perf_counter() - t0
    ref = Reference()
    return raw, raw * REF_SECONDS / statistics.median(ref.seconds() for _ in range(3)), built


def probe_setup(workload, seed):
    """Raw and scaled set-up seconds measured in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--probe-setup",
    ]
    done = subprocess.run(
        cmd, cwd=machine.ROOT, capture_output=True, text=True, timeout=170, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Reference:
    """A fixed kernel that measures how fast the machine is right now.

    It is a frozen copy of the shape of one box-solver iteration at r=5,
    N=2000 (centring, covariance, a 5x5 Cholesky solve against 5x2000, a
    clamp), so contention slows it about as much as the solver. Case times
    are divided by the kernel's time around them and multiplied by
    ``REF_SECONDS``: seconds of a machine on which the kernel takes that long.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve

        self.np, self.cho_factor, self.cho_solve = np, cho_factor, cho_solve
        self.s = np.random.default_rng(0).random((5, 2000))

    def seconds(self):
        np, s = self.np, self.s
        t0 = time.perf_counter()
        for _ in range(REF_ITERATIONS):
            c = s - s.mean(axis=1, keepdims=True)
            cov = c @ c.T / s.shape[1] + 1e-5 * np.eye(s.shape[0])
            g = self.cho_solve(self.cho_factor(cov, lower=True), c)
            np.clip(s + 1e-3 * g, 0.0, 1.0, out=s)
        return time.perf_counter() - t0


def measure(built, seconds, tracer=None):
    """Time and check rounds of the workload's cases until ``seconds`` is used.

    A round runs every case once. With ``tracer``, even-numbered rounds are
    traced and odd-numbered rounds are not. Each case is bracketed by runs
    of the reference kernel. Returns the outcome and, for untraced and for
    traced rounds, per case the raw and the scaled times.
    """
    import workloads

    n = len(built.cases)
    ref = Reference()
    raw = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    scaled = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    outcome = workloads.Outcome()
    min_rounds = MIN_ROUNDS + (tracer is not None)
    ref_before = ref.seconds()
    start = time.perf_counter()
    for rnd in itertools.count(1):
        traced = tracer is not None and rnd % 2 == 0
        round_start = time.perf_counter()
        for i in range(n):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                result = built.run_case(i)
                dt = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            ref_after = ref.seconds()
            raw[traced][i].append(dt)
            scaled[traced][i].append(dt * 2.0 * REF_SECONDS / (ref_before + ref_after))
            ref_before = ref_after
            outcome.merge(built.check_case(i, result))
        now = time.perf_counter()
        if rnd >= min_rounds and now - start + (now - round_start) > seconds:
            return outcome, raw, scaled


def fixed_work_seconds(times):
    """Time of one round: the sum over cases of each case's median."""
    return sum(statistics.median(t) for t in times)


def end_to_end(setup_s, outcome, scaled, sinr):
    return {
        "scaled_wall_s": (fixed_work_seconds(scaled), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sinr_db": (statistics.median(sinr.values()) if sinr else float("nan"), "dB"),
        "ok_frac": (1.0 - outcome.failed / outcome.attempted, "frac"),
    }


def per_layer(tracer, raw, scaled):
    """Per-layer metrics from the spans of the traced rounds (phase "unit").

    Per-call figures are mean inclusive span durations and also cover spans
    made during traced set-up; counts are per traced round; shares divide
    each layer's self time by the summed raw time of the traced cases. The
    overhead compares scaled times of traced and untraced rounds.
    """
    rounds = len(raw[True][0])
    wall = sum(sum(t) for t in raw[True])

    def per_call(name, scale, phase=None):
        spans = tracer.calls(name, phase)
        return sum(s.seconds for s in spans) / len(spans) * scale if spans else 0.0

    def count(name):
        return (len(tracer.calls(name, "unit")) / rounds, "count")

    own = tracer.self_seconds("unit")
    run_self = sum(t for s, t in own if s.name == "solver.run")
    iterations = sum(s.work for s in tracer.calls("solver.run", "unit"))
    cli_calls = tracer.calls("cli.main", "unit")
    cli_self = sum(t for s, t in own if s.name == "cli.main")
    m = {
        "solver.self_us_per_iter": (run_self / iterations * 1e6 if iterations else 0.0, "us"),
        "solver.iterations": (iterations / rounds, "count"),
        "solver.initialize.ms_per_call": (per_call("solver.initialize", 1e3), "ms"),
        "solver.canonical_orientation.ms_per_call": (
            per_call("solver.canonical_orientation", 1e3), "ms"),
        "solver.canonical_orientation.calls": count("solver.canonical_orientation"),
    }
    for family in FAMILIES:
        name = f"polytopes.project_columns.{family}"
        m[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
        m[f"{name}.calls"] = count(name)
    m["evaluation.sinr_db.us_per_call"] = (per_call("evaluation.sinr_db", 1e6), "us")
    m["ica.ica_separate.ms_per_call"] = (per_call("ica.ica_separate", 1e3), "ms")
    m["datagen.make_scenario.ms_per_call"] = (per_call("datagen.make_scenario", 1e3), "ms")
    m["cli.self_ms"] = (cli_self / len(cli_calls) * 1e3 if cli_calls else 0.0, "ms")
    shares = {layer: 0.0 for layer in LAYERS}
    for span, t in own:
        shares[span.layer] += t / wall
    for layer in LAYERS:
        m[f"{layer}.share"] = (shares[layer], "frac")
    m["outside.share"] = (1.0 - sum(shares.values()), "frac")
    m["trace.overhead_frac"] = (
        fixed_work_seconds(scaled[True]) / fixed_work_seconds(scaled[False]) - 1.0, "frac")
    return m


def run(args):
    out_dir = machine.ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.probe_setup:
            raw_setup, scaled_setup, _ = timed_setup(args.workload, args.seed, out_dir)
            print(json.dumps({"raw": raw_setup, "scaled": scaled_setup}))
            return 0
        if args.trace:
            import spans

            pkg = machine.import_package()
            tracer = spans.Tracer(pkg)
            tracer.install()
            try:
                raw_setup, scaled_setup, built = timed_setup(
                    args.workload, args.seed, out_dir)
            finally:
                tracer.uninstall()
            tracer.phase = "unit"
            outcome, raw, scaled = measure(built, args.seconds, tracer)
            metrics = per_layer(tracer, raw, scaled)
            setup = {"raw": [raw_setup], "scaled": [scaled_setup]}
        else:
            raw_setup, scaled_setup, built = timed_setup(args.workload, args.seed, out_dir)
            outcome, raw, scaled = measure(built, args.seconds)
            probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
            setup = {
                "raw": [raw_setup] + [p["raw"] for p in probes],
                "scaled": [scaled_setup] + [p["scaled"] for p in probes],
            }
            metrics = end_to_end(setup["scaled"], outcome, scaled[False], built.sinr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # only when no other run is using it

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": built.cases,
        "case_seconds": {
            "raw": raw[False], "scaled": scaled[False],
            "raw_traced": raw[True], "scaled_traced": scaled[True],
        },
        "setup_s_samples": setup,
        "notes": built.notes,
        "problems": outcome.problems[:20],
        "unmeasured_layers": UNMEASURED,
        "machine": machine.record(),
    }
    print(json.dumps(info, default=str))
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=3000)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
