import numpy as np
import pytest

import ldinfomax.solver as solver_mod
from ldinfomax.config import write_trajectory_csv
from ldinfomax.datagen import ScenarioConfig, make_scenario
from ldinfomax.evaluation import sinr_db
from ldinfomax.polytopes import contains, preset
from ldinfomax.solver import (
    DivergenceError,
    SolverConfig,
    SolverState,
    gradient,
    initialize,
    run,
    step_size,
)
from ldinfomax.stats import (
    CovarianceBundle,
    conditional_error_covariance,
    cross_covariance,
    ld_mutual_information,
    sample_covariance,
)
from oracles import finite_difference_gradient, two_solve_gradient


def small_scenario(seed=0, n=300, noiseless=True):
    cfg = ScenarioConfig(
        r=3, m=5, n=n, rho=0.0, snr_db=None if noiseless else 30.0,
        polytope=preset("linf", 3), seed=seed, source_mode="uniform_iid",
    )
    return make_scenario(cfg), cfg.polytope


class TestStepSize:
    def test_inverse_sqrt_start(self):
        assert step_size(SolverConfig(), 0) == pytest.approx(200.0)

    def test_inverse_sqrt_decay(self):
        assert step_size(SolverConfig(), 3) == pytest.approx(100.0)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        eps = 1e-5
        for _ in range(3):
            s = rng.standard_normal((3, 40))
            y = rng.standard_normal((4, 40))
            g = gradient(s, y, eps)
            fd = finite_difference_gradient(s, y, eps)
            rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert rel <= 1e-5

    def test_self_information_gradient_finite(self):
        # y = s drives the error covariance to the regularization floor; use a
        # milder epsilon so the finite-difference oracle itself stays accurate
        rng = np.random.default_rng(1)
        s = rng.standard_normal((2, 30))
        eps = 1e-3
        g = gradient(s, s, eps)
        assert np.all(np.isfinite(g))
        fd = finite_difference_gradient(s, s, eps)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

    def test_constant_columns_finite(self):
        s = np.ones((2, 20))
        y = np.random.default_rng(2).standard_normal((3, 20))
        assert np.all(np.isfinite(gradient(s, y, 1e-5)))

    def test_matches_two_solve_formula(self):
        # the r x (r+M) map equals PAPER.md's two solves against r x N samples;
        # on the noiseless truth R_e sits below the eps floor
        eps = 1e-5
        for snr_db, truth in ((30.0, False), (None, True)):
            cfg = ScenarioConfig(
                r=5, m=8, n=2000, rho=0.5, snr_db=snr_db,
                polytope=preset("linf_nonneg", 5), seed=20,
            )
            scenario = make_scenario(cfg)
            if truth:
                s = scenario.s_true
                r_e = conditional_error_covariance(CovarianceBundle(
                    sample_covariance(s), sample_covariance(scenario.y),
                    cross_covariance(s, scenario.y), eps,
                ))
                assert np.linalg.eigvalsh(r_e).min() < eps
            else:
                s = initialize(scenario.y, cfg.polytope, SolverConfig(seed=20))
            g = gradient(s, scenario.y, eps)
            ref = two_solve_gradient(s, scenario.y, eps)
            assert np.linalg.norm(g - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_rows_sum_to_zero(self):
        # the map acts on centered samples, so each row of its output is centered
        rng = np.random.default_rng(15)
        g = gradient(rng.uniform(size=(5, 300)), rng.standard_normal((8, 300)), 1e-5)
        assert np.abs(g.sum(axis=1)).max() <= 1e-12 * np.abs(g).sum(axis=1).max()

    def test_not_positive_definite_names_the_matrix(self):
        # a negative shift leaves R_y - I positive definite for these large
        # mixtures but not R_s - I (small sources) or R_e - I (sources that
        # the mixtures predict exactly)
        rng = np.random.default_rng(16)
        y = 10.0 * rng.standard_normal((4, 200))
        with pytest.raises(np.linalg.LinAlgError, match=r"^R_s \+ -1.0\*I"):
            gradient(0.1 * rng.standard_normal((2, 200)), y, -1.0)
        with pytest.raises(np.linalg.LinAlgError, match=r"^R_e \+ -1.0\*I"):
            gradient(y[:2], y, -1.0)

    def test_centering_kills_constant_shift(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((3, 50))
        y = rng.standard_normal((4, 50))
        shift = rng.standard_normal((4, 1))
        assert np.allclose(gradient(s, y, 1e-5), gradient(s, y + shift, 1e-5), atol=1e-9)


class TestInitialize:
    def test_columns_feasible(self):
        scenario, p = small_scenario(seed=1)
        for strategy in ("projected_random_map", "random"):
            s0 = initialize(scenario.y, p, SolverConfig(init=strategy, seed=3))
            assert contains(p, s0, tol=1e-9)

    def test_deterministic(self):
        scenario, p = small_scenario(seed=2)
        cfg = SolverConfig(seed=11)
        a = initialize(scenario.y, p, cfg)
        b = initialize(scenario.y, p, cfg)
        assert np.array_equal(a, b)

    def test_nonzero_cross_covariance(self):
        scenario, p = small_scenario(seed=3)
        yc = scenario.y - scenario.y.mean(axis=1, keepdims=True)
        for seed in range(20):
            s0 = initialize(scenario.y, p, SolverConfig(seed=seed))
            sc = s0 - s0.mean(axis=1, keepdims=True)
            assert np.linalg.norm(sc @ yc.T / yc.shape[1]) > 0

    def test_rank_deficient_falls_back_to_random(self):
        rng = np.random.default_rng(4)
        y = np.outer(rng.standard_normal(5), rng.standard_normal(200))
        p = preset("linf", 3)
        with pytest.warns(RuntimeWarning, match="falling back to random init"):
            s0 = initialize(y, p, SolverConfig(seed=5))
        assert contains(p, s0, tol=1e-9)

    def test_more_sources_than_mixtures_rejected(self):
        y = np.random.default_rng(6).standard_normal((2, 50))
        for init in ("projected_random_map", "random"):
            with pytest.raises(ValueError, match=r"r=3 .*M=2"):
                initialize(y, preset("linf", 3), SolverConfig(init=init))


class TestSharedKernel:
    def test_objective_equals_ld_mutual_information(self):
        # the solver's objective and the validated stats measure run one kernel
        rng = np.random.default_rng(14)
        for _ in range(5):
            s = rng.uniform(size=(3, 60))
            y = rng.standard_normal((5, 60))
            for eps in (1e-5, 1e-2):
                ctx = solver_mod._RunContext(y, eps, s.shape[0])
                assert ld_mutual_information(s, y, eps) == solver_mod._Stats(s, ctx).objective


class TestStep:
    def test_zero_gradient_leaves_point(self):
        # exactly uncorrelated feasible iterate: the two gradient terms cancel,
        # so even the first (largest) step moves it by less than 1e-12
        s = np.array([[0.5, -0.5, 0.5, -0.5]])
        y = np.array([[1.0, 1.0, -1.0, -1.0]])
        cfg = SolverConfig()
        move = step_size(cfg, 0) * gradient(s, y, cfg.epsilon)
        assert np.allclose(move, 0.0, atol=1e-12)

    def test_iterates_stay_feasible(self):
        scenario, p = small_scenario(seed=5)
        for k in range(1, 6):
            state = run(scenario.y, p, SolverConfig(iterations=k, seed=7))
            assert state.k == k
            assert contains(p, state.s, tol=1e-8)


class TestRun:
    def test_zero_iterations_returns_init(self):
        scenario, p = small_scenario(seed=6)
        cfg = SolverConfig(iterations=0, seed=9)
        state = run(scenario.y, p, cfg)
        s0 = initialize(scenario.y, p, cfg)
        assert np.array_equal(state.s, s0)
        assert state.k == 0

    def test_ascent_on_noiseless_antisparse(self):
        cfg_s = ScenarioConfig(
            r=3, m=5, n=2000, rho=0.0, snr_db=None,
            polytope=preset("linf", 3), seed=10, source_mode="uniform_iid",
        )
        scenario = make_scenario(cfg_s)
        # the default init is nearly linear in the mixtures, which already
        # maximizes the conditional term; start from random feasible points
        # so the recorded trajectory reflects plain ascent
        cfg = SolverConfig(iterations=400, seed=10, init="random")
        state = run(scenario.y, cfg_s.polytope, cfg)
        assert state.trajectory[-1].objective > state.trajectory[0].objective

    def test_endpoint_objective_improvement_rate(self):
        improved = 0
        for seed in range(20):
            scenario, p = small_scenario(seed=100 + seed, n=250)
            cfg = SolverConfig(iterations=150, seed=seed, init="random")
            state = run(scenario.y, p, cfg)
            if state.trajectory[-1].objective >= state.trajectory[0].objective:
                improved += 1
        assert improved >= 19

    def test_deterministic(self):
        scenario, p = small_scenario(seed=7)
        cfg = SolverConfig(iterations=50, seed=13)
        a = run(scenario.y, p, cfg)
        b = run(scenario.y, p, cfg)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.estimate, b.estimate)

    def test_trajectory_grid_and_sinr(self, monkeypatch):
        scenario, p = small_scenario(seed=8)
        cfg = SolverConfig(iterations=25, record_every=10, seed=1)
        calls = []
        real = solver_mod.canonical_orientation
        monkeypatch.setattr(
            solver_mod, "canonical_orientation", lambda *a: calls.append(1) or real(*a)
        )
        state = run(scenario.y, p, cfg, ground_truth=scenario.s_true)
        assert [pt.iteration for pt in state.trajectory] == [0, 10, 20, 25]
        assert all(pt.sinr_db is not None for pt in state.trajectory)
        # the last point scores the returned estimate, canonicalized once
        assert state.trajectory[-1].sinr_db == sinr_db(state.estimate, scenario.s_true)
        assert len(calls) == 4
        state2 = run(scenario.y, p, cfg)
        assert all(pt.sinr_db is None for pt in state2.trajectory)
        assert len(calls) == 5

    def test_estimate_feasible_and_better_than_raw_tail(self):
        scenario, p = small_scenario(seed=9, n=1500)
        cfg = SolverConfig(iterations=1500, record_every=500, seed=2)
        state = run(scenario.y, p, cfg, ground_truth=scenario.s_true)
        assert contains(p, state.estimate, tol=1e-8)
        assert sinr_db(state.estimate, scenario.s_true) > 10.0

    def test_divergence_aborts_with_state(self, monkeypatch):
        scenario, p = small_scenario(seed=11)
        real_stats = solver_mod._Stats

        class PoisonedStats(real_stats):
            calls = 0

            def __init__(self, s, ctx):
                super().__init__(s, ctx)
                PoisonedStats.calls += 1
                if PoisonedStats.calls > 2:
                    self.objective = float("nan")

        monkeypatch.setattr(solver_mod, "_Stats", PoisonedStats)
        with pytest.raises(DivergenceError) as info:
            run(scenario.y, p, SolverConfig(iterations=10, seed=3))
        assert isinstance(info.value.state, SolverState)


class TestTrajectoryCsv:
    def test_with_and_without_sinr(self, tmp_path):
        scenario, p = small_scenario(seed=13)
        cfg = SolverConfig(iterations=20, record_every=10, seed=4)
        state = run(scenario.y, p, cfg, ground_truth=scenario.s_true)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,objective,sinr_db"
        assert len(lines) == len(state.trajectory) + 1

        state2 = run(scenario.y, p, cfg)
        path2 = tmp_path / "traj2.csv"
        write_trajectory_csv(state2, path2)
        assert path2.read_text().splitlines()[0] == "iteration,objective"


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(mu0=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(schedule="linear")
        with pytest.raises(ValueError):
            SolverConfig(init="zeros")
