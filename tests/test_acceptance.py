"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavy end-to-end scenarios (noiseless separation, the convergence-curve
analog, and the correlation sweep) use a fixed master seed and the library's
documented defaults; per-trial seeds are master + trial index throughout.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ldinfomax import (
    IcaConfig,
    ScenarioConfig,
    SolverConfig,
    cross_covariance,
    gradient,
    ld_mutual_information,
    make_scenario,
    mse,
    preset,
    run,
    sample_covariance,
    sinr_db,
)
from ldinfomax.cli import main
from ldinfomax.config import ExperimentConfig, save_experiment
from ldinfomax.evaluation import best_alignment
from ldinfomax.polytopes import PolytopeSpec, contains, project
from ldinfomax.stats import CovarianceBundle, conditional_error_covariance, logdet_regularized
from oracles import QpProjectionOracle, exhaustive_alignment_mse, finite_difference_gradient

MASTER_SEED = 3000


def _report(name, ok, detail):
    print(f"\ncriterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_1_gradient_check():
    """Analytic gradient matches central finite differences on 10 instances."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    eps, worst = 1e-5, 0.0
    for _ in range(10):
        s = rng.standard_normal((3, 40))
        y = rng.standard_normal((4, 40))
        g = gradient(s, y, eps)
        fd = finite_difference_gradient(s, y, eps, h=1e-6)
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
    elapsed = time.time() - t0
    _report(
        "1 gradient-vs-finite-differences",
        worst <= 1e-5 and elapsed < 10,
        f"max rel frobenius err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_information_identities():
    """Chain rule, conditioning symmetry, and nonnegativity on 100 instances."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 1)
    eps = 1e-5
    worst_chain = worst_sym = 0.0
    min_mi = np.inf
    for _ in range(100):
        r = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(10, 80))
        s = rng.standard_normal((r, n))
        y = rng.standard_normal((m, n))
        r_s, r_y = sample_covariance(s), sample_covariance(y)
        r_sy = cross_covariance(s, y)
        joint = sample_covariance(np.vstack([s, y]))
        r_e = conditional_error_covariance(CovarianceBundle(r_s, r_y, r_sy, eps))
        chain_gap = abs(
            logdet_regularized(joint, eps)
            - logdet_regularized(r_y, eps)
            - logdet_regularized(r_e, eps)
        )
        sym_gap = abs(ld_mutual_information(s, y, eps) - ld_mutual_information(y, s, eps))
        worst_chain = max(worst_chain, chain_gap)
        worst_sym = max(worst_sym, sym_gap)
        min_mi = min(min_mi, ld_mutual_information(s, y, eps))
    uncorrelated = abs(
        ld_mutual_information([[1.0, -1.0, 1.0, -1.0]], [[1.0, 1.0, -1.0, -1.0]], eps)
    )
    elapsed = time.time() - t0
    ok = (
        worst_chain <= 1e-9
        and worst_sym <= 1e-9
        and min_mi >= -1e-9
        and uncorrelated <= 1e-12
        and elapsed < 5
    )
    _report(
        "2 information-measure-identities",
        ok,
        f"chain {worst_chain:.1e}, sym {worst_sym:.1e}, min MI {min_mi:.1e}, "
        f"uncorrelated {uncorrelated:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_projection_exactness():
    """Projections match the active-set QP oracle on all five presets."""
    t0 = time.time()
    presets = [
        ("l1", preset("l1", 4)),
        ("linf", preset("linf", 4)),
        ("l1_nonneg", preset("l1_nonneg", 4)),
        ("linf_nonneg", preset("linf_nonneg", 4)),
        ("mixed_pairs", PolytopeSpec(3, ("signed", "signed", "nonneg"), ((0, 1), (1, 2)))),
    ]
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_gap = worst_idem = worst_exp = 0.0
    for _, p in presets:
        oracle = QpProjectionOracle(p)
        for _ in range(50):
            v = rng.uniform(-2.0, 2.0, p.dim)
            got = project(p, v).point
            worst_gap = max(worst_gap, float(np.abs(got - oracle.project(v)).max()))
            again = project(p, got).point
            worst_idem = max(worst_idem, float(np.abs(again - got).max()))
            u = rng.uniform(-2.0, 2.0, p.dim)
            du = project(p, u).point
            expansion = np.linalg.norm(du - got) - np.linalg.norm(u - v)
            worst_exp = max(worst_exp, float(expansion))
            assert contains(p, got, tol=1e-8)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-6 and worst_idem <= 1e-9 and worst_exp <= 1e-9 and elapsed < 30
    _report(
        "3 projection-exactness",
        ok,
        f"oracle gap {worst_gap:.1e}, idempotence {worst_idem:.1e}, "
        f"expansion {worst_exp:.1e}, {elapsed:.1f}s",
    )


def test_criterion_4_alignment_oracle():
    """Hungarian alignment ties the exhaustive search on 50 instances."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst = 0.0
    for _ in range(50):
        r = int(rng.integers(2, 6))
        n = int(rng.integers(50, 200))
        s_true = rng.standard_normal((r, n))
        mix = np.eye(r) + 0.6 * rng.standard_normal((r, r))
        s_est = mix @ s_true
        got = mse(s_est, s_true, best_alignment(s_est, s_true))
        worst = max(worst, abs(got - exhaustive_alignment_mse(s_est, s_true)))
    elapsed = time.time() - t0
    _report(
        "4 alignment-oracle-tie",
        worst <= 1e-12 and elapsed < 10,
        f"max value gap {worst:.1e}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_5_noiseless_separation():
    """Noiseless antisparse mixtures separate to >= 25 dB in >= 8/10 trials."""
    t0 = time.time()
    good, finals = 0, []
    for trial in range(10):
        seed = MASTER_SEED + trial
        sc_cfg = ScenarioConfig(
            r=3, m=5, n=2000, rho=0.0, snr_db=None,
            polytope=preset("linf", 3), seed=seed, source_mode="uniform_iid",
        )
        scenario = make_scenario(sc_cfg)
        cfg = SolverConfig(iterations=5000, seed=seed, record_every=5000)
        state = run(scenario.y, sc_cfg.polytope, cfg)
        final = sinr_db(state.estimate, scenario.s_true)
        finals.append(final)
        good += final >= 25.0
    elapsed = time.time() - t0
    _report(
        "5 noiseless-separation",
        good >= 8 and elapsed < 180,
        f"{good}/10 trials >= 25 dB "
        f"({' '.join(f'{v:.1f}' for v in finals)}), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_6_convergence_curve_analog():
    """Noisy correlated scenario converges to >= 15 dB mean with a smooth tail.

    Paper-rule settings pinned by the criterion: eps = 1e-5 and
    mu_k = 200/sqrt(k+1). Sources are dependent copula-t uniforms filling the
    nonnegative unit box (the uniform-marginal reading of the experiment;
    rejection-truncated simplex sources are super-Gaussian, contradicting
    both the stated uniform sources and the all-sub-Gaussian baseline
    configuration).
    """
    t0 = time.time()
    iterations, record_every = 20000, 2000
    curves, finals = [], []
    for trial in range(10):
        seed = MASTER_SEED + trial
        sc_cfg = ScenarioConfig(
            r=5, m=8, n=2000, rho=0.5, dof=4, snr_db=30.0,
            polytope=preset("linf_nonneg", 5), seed=seed,
        )
        scenario = make_scenario(sc_cfg)
        cfg = SolverConfig(
            epsilon=1e-5, mu0=200.0, schedule="inverse_sqrt",
            iterations=iterations, record_every=record_every, seed=seed,
        )
        state = run(scenario.y, sc_cfg.polytope, cfg, ground_truth=scenario.s_true)
        curves.append([(pt.iteration, pt.sinr_db) for pt in state.trajectory])
        finals.append(sinr_db(state.estimate, scenario.s_true))
    mean_curve = np.mean([[v for _, v in c] for c in curves], axis=0)
    grid = np.array([k for k, _ in curves[0]])
    tail = mean_curve[grid >= 0.8 * iterations]
    tail_ok = bool(np.all(np.diff(tail) >= -0.5))
    mean_final = float(np.mean(finals))
    elapsed = time.time() - t0
    _report(
        "6 convergence-curve-analog",
        mean_final >= 15.0 and tail_ok and elapsed < 600,
        f"mean final {mean_final:.2f} dB, tail non-decreasing {tail_ok} "
        f"(tail {' '.join(f'{v:.2f}' for v in tail)}), {elapsed:.0f}s",
    )


def _sweep_config(out_dir, trials=10, iterations=20000):
    scenario = ScenarioConfig(
        r=5, m=8, n=2000, rho=0.0, dof=4, snr_db=30.0,
        polytope=preset("linf_nonneg", 5), seed=MASTER_SEED,
    )
    solver = SolverConfig(iterations=iterations, record_every=iterations, seed=MASTER_SEED)
    return ExperimentConfig(
        scenario=scenario,
        solver=solver,
        ica=IcaConfig(seed=MASTER_SEED),
        algo="both",
        trials=trials,
        rho_grid=(0.0, 0.2, 0.4, 0.6),
        output_dir=str(out_dir),
    )


@pytest.mark.slow
def test_criterion_7_correlation_sweep(tmp_path):
    """Correlation sweep reproduces the dependent-source comparison trends."""
    t0 = time.time()
    cfg_path = tmp_path / "sweep.cfg"
    save_experiment(_sweep_config(tmp_path / "out"), cfg_path)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1:]
    table = {}
    for row in rows:
        rho, algo, mean, _ = row.split(",")
        table[(float(rho), algo)] = float(mean)
    ld0, ld6 = table[(0.0, "ld_infomax")], table[(0.6, "ld_infomax")]
    ica0, ica6 = table[(0.0, "ica")], table[(0.6, "ica")]
    margin = ld6 - ica6
    ica_drop = ica0 - ica6
    ld_drop = ld0 - ld6
    elapsed = time.time() - t0
    ok = margin >= 5.0 and ica_drop >= 3.0 and ld_drop <= ica_drop and elapsed < 1800
    _report(
        "7 correlation-sweep-trends",
        ok,
        f"LD {ld0:.1f}->{ld6:.1f} dB, ICA {ica0:.1f}->{ica6:.1f} dB; "
        f"margin@0.6 {margin:.1f} (need >=5), ICA drop {ica_drop:.1f} (need >=3), "
        f"LD drop {ld_drop:.1f} <= ICA drop, {elapsed:.0f}s",
    )


def test_criterion_8_determinism(tmp_path):
    """Re-running any harness command with the same master seed reproduces
    byte-identical CSV outputs."""
    t0 = time.time()
    cfg = _sweep_config(tmp_path, trials=2, iterations=400)
    cfg = replace(cfg, rho_grid=(0.3,))
    cfg_path = tmp_path / "exp.cfg"
    save_experiment(cfg, cfg_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out / "run"),
                     "--algo", "ld_infomax"]) == 0
        outs.append(out)
    sweep_same = (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    conv_same = (
        (outs[0] / "run" / "convergence.csv").read_bytes()
        == (outs[1] / "run" / "convergence.csv").read_bytes()
    )
    trials_same = (
        (outs[0] / "run" / "trials.csv").read_bytes()
        == (outs[1] / "run" / "trials.csv").read_bytes()
    )
    # scenario regeneration is bit-identical as well
    sc_cfg = ScenarioConfig(r=3, m=5, n=500, rho=0.4, polytope=preset("l1_nonneg", 3),
                            seed=MASTER_SEED)
    a, b = make_scenario(sc_cfg), make_scenario(sc_cfg)
    scen_same = np.array_equal(a.y, b.y) and np.array_equal(a.s_true, b.s_true)
    elapsed = time.time() - t0
    ok = sweep_same and conv_same and trials_same and scen_same
    _report(
        "8 determinism",
        ok,
        f"sweep {sweep_same}, convergence {conv_same}, trials {trials_same}, "
        f"scenario {scen_same}, {elapsed:.0f}s",
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
