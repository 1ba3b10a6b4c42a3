import math
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ldinfomax.solver as solver_mod
from ldinfomax import evaluation, stats
from ldinfomax.config import write_trajectory_csv
from ldinfomax.datagen import ScenarioConfig, make_scenario
from ldinfomax.evaluation import sinr_db
from ldinfomax.polytopes import NONNEG, SIGNED, PolytopeSpec, contains, preset, project_columns
from ldinfomax.solver import (
    DivergenceError,
    SolverConfig,
    SolverState,
    canonical_orientation,
    gradient,
    initialize,
    run,
)
from ldinfomax.stats import conditional_error_covariance, ld_mutual_information
from oracles import exhaustive_orientation, finite_difference_gradient, two_solve_gradient
from test_solve_bytes import SOLVE_DIGESTS, solve_digests


def small_scenario(seed=0, n=300, noiseless=True):
    cfg = ScenarioConfig(
        r=3, m=5, n=n, rho=0.0, snr_db=None if noiseless else 30.0,
        polytope=preset("linf", 3), seed=seed, source_mode="uniform_iid",
    )
    return make_scenario(cfg), cfg.polytope


def random_start(monkeypatch):
    """Make :func:`initialize` take its uniform-in-box fallback."""
    def rank_deficient(*_):
        raise np.linalg.LinAlgError("rank deficient")

    monkeypatch.setattr(solver_mod, "_whiten", rank_deficient)


def manual_steps(y, p, cfg):
    """Iterate ``project_columns(p, s + mu0/sqrt(k) * gradient)`` for k = 1..iterations."""
    s = initialize(y, p, cfg)
    for k in range(1, cfg.iterations + 1):
        s = project_columns(p, s + cfg.mu0 / math.sqrt(k) * gradient(s, y, cfg.epsilon))
    return s


class TestStepSize:
    # run steps by mu0/sqrt(k) at step k = 1, 2, ...; an off-by-one rule
    # mu0/sqrt(k+1) moves the iterates far beyond atol
    def test_inverse_sqrt_start(self):
        # the first step moves by the full default mu0 = 200
        scenario, p = small_scenario(seed=5, noiseless=False)
        cfg = SolverConfig(iterations=1, seed=5)
        assert cfg.mu0 == pytest.approx(200.0)
        expected = manual_steps(scenario.y, p, cfg)
        assert np.allclose(run(scenario.y, p, cfg).s, expected, rtol=0.0, atol=1e-9)

    def test_inverse_sqrt_decay(self):
        # steps 1..4 move by 200, 200/sqrt(2), 200/sqrt(3), 100
        scenario, p = small_scenario(seed=5, noiseless=False)
        cfg = SolverConfig(iterations=4, seed=5)
        expected = manual_steps(scenario.y, p, cfg)
        assert np.allclose(run(scenario.y, p, cfg).s, expected, rtol=0.0, atol=1e-9)


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
        # the r x (r+M+1) map equals PAPER.md's two solves against r x N samples;
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
                r_e = conditional_error_covariance(s, scenario.y, eps)
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
        # a negative shift, which only the kernel takes, leaves R_y - I positive
        # definite for these large mixtures but not R_s - I (small sources) or
        # R_e - I (sources that the mixtures predict exactly)
        rng = np.random.default_rng(16)
        y = 10.0 * rng.standard_normal((4, 200))
        kernel = solver_mod._Kernel([y], -1.0, 2)
        with pytest.raises(np.linalg.LinAlgError, match=r"^R_s \+ -1.0\*I"):
            kernel.load(solver_mod._center(0.1 * rng.standard_normal((2, 200))))
        with pytest.raises(np.linalg.LinAlgError, match=r"^R_e \+ -1.0\*I"):
            kernel.load(solver_mod._center(y[:2]))

    @pytest.mark.parametrize("case, message", [
        ("zero epsilon", "epsilon must be positive"),
        ("negative epsilon", "epsilon must be positive"),
        ("NaN epsilon", "epsilon must be positive and finite, got nan"),
        ("NaN in s", "s contain non-finite entries"),
        ("1-D s", "s must be 2-D"),
        ("inf in y", "y contain non-finite entries"),
    ], ids=["zero_epsilon", "negative_epsilon", "nan_epsilon", "nan_in_s", "1d_s", "inf_in_y"])
    def test_rejects_what_the_measures_reject(self, case, message):
        rng = np.random.default_rng(17)
        s, y, eps = rng.uniform(size=(3, 50)), rng.standard_normal((4, 50)), 1e-5
        if case == "zero epsilon":
            eps = 0.0
        elif case == "negative epsilon":
            eps = -1e-3
        elif case == "NaN epsilon":
            eps = np.nan
        elif case == "NaN in s":
            s[1, 4] = np.nan
        elif case == "1-D s":
            s = s[0]
        else:
            y[2, 9] = np.inf
        with pytest.raises(ValueError) as measure:
            ld_mutual_information(s, y, eps)
        with pytest.raises(ValueError) as info:
            gradient(s, y, eps)
        assert str(info.value).startswith(message)
        assert str(info.value) == str(measure.value)

    def test_centering_kills_constant_shift(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((3, 50))
        y = rng.standard_normal((4, 50))
        shift = rng.standard_normal((4, 1))
        assert np.allclose(gradient(s, y, 1e-5), gradient(s, y + shift, 1e-5), atol=1e-9)


class TestInitialize:
    def test_columns_feasible(self):
        scenario, p = small_scenario(seed=1)
        s0 = initialize(scenario.y, p, SolverConfig(seed=3))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mixtures_rejected(self, bad):
        # not taken for rank deficiency: no warning, no random start
        scenario, p = small_scenario(seed=6)
        y = scenario.y.copy()
        y[2, 30] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^mixtures contain non-finite entries"):
                initialize(y, p, SolverConfig(seed=6))

    def test_more_sources_than_mixtures_rejected(self):
        y = np.random.default_rng(6).standard_normal((2, 50))
        with pytest.raises(ValueError, match=r"r=3 .*M=2"):
            initialize(y, preset("linf", 3), SolverConfig())


class TestSharedKernel:
    def test_objective_equals_ld_mutual_information(self):
        # the validated stats measure centers s and runs the solver's kernel;
        # the solver runs it on its uncentered iterate, which the box bounds
        rng = np.random.default_rng(14)
        for _ in range(5):
            s = rng.uniform(size=(3, 60))
            y = rng.standard_normal((5, 60))
            for eps in (1e-5, 1e-2):
                value = ld_mutual_information(s, y, eps)
                kernel = solver_mod._Kernel([y], eps, s.shape[0])
                assert value == kernel.load(solver_mod._center(s))[0]
                assert kernel.load(s)[0] == pytest.approx(value, rel=1e-12)


class TestStep:
    def test_zero_gradient_leaves_point(self):
        # exactly uncorrelated feasible iterate: the two gradient terms cancel,
        # so even the first (largest) step moves it by less than 1e-12
        s = np.array([[0.5, -0.5, 0.5, -0.5]])
        y = np.array([[1.0, 1.0, -1.0, -1.0]])
        cfg = SolverConfig()
        move = cfg.mu0 * gradient(s, y, cfg.epsilon)
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

    def test_ascent_on_noiseless_antisparse(self, monkeypatch):
        cfg_s = ScenarioConfig(
            r=3, m=5, n=2000, rho=0.0, snr_db=None,
            polytope=preset("linf", 3), seed=10, source_mode="uniform_iid",
        )
        scenario = make_scenario(cfg_s)
        # the default init is nearly linear in the mixtures, which already
        # maximizes the conditional term; start from random feasible points
        # so the recorded trajectory reflects plain ascent
        random_start(monkeypatch)
        cfg = SolverConfig(iterations=400, seed=10)
        with pytest.warns(RuntimeWarning, match="falling back to random init"):
            state = run(scenario.y, cfg_s.polytope, cfg)
        assert state.trajectory[-1].objective > state.trajectory[0].objective

    def test_endpoint_objective_improvement_rate(self, monkeypatch):
        random_start(monkeypatch)
        improved = 0
        for seed in range(20):
            scenario, p = small_scenario(seed=100 + seed, n=250)
            cfg = SolverConfig(iterations=150, seed=seed)
            with pytest.warns(RuntimeWarning, match="falling back to random init"):
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

        class PoisonedKernel(solver_mod._Kernel):
            calls = 0

            def statistics(self, s):
                super().statistics(s)
                PoisonedKernel.calls += 1
                if PoisonedKernel.calls > 2:  # from iteration 2, no record point
                    self.r_s[...] = np.nan

        monkeypatch.setattr(solver_mod, "_Kernel", PoisonedKernel)
        with pytest.raises(DivergenceError) as info:
            run(scenario.y, p, SolverConfig(iterations=10, seed=3))
        assert isinstance(info.value.state, SolverState)

    def test_real_non_positive_definite_factor_names_the_matrix(self):
        # noiseless square mixtures: the start is linear in them, so R_e is
        # zero up to rounding, which a shift of 1e-300 leaves indefinite
        p = preset("linf", 5)
        scenario = make_scenario(ScenarioConfig(
            r=5, m=5, n=300, rho=0.0, snr_db=None, polytope=p, seed=2,
            source_mode="uniform_iid",
        ))
        cfg = SolverConfig(iterations=5, epsilon=1e-300, seed=2)
        with pytest.raises(np.linalg.LinAlgError) as info:
            run(scenario.y, p, cfg)
        assert str(info.value) == (
            "R_e + 1e-300*I is not positive definite: Matrix is not positive definite"
        )
        stack = run([scenario.y] * 2, p, [cfg] * 2)
        for failed in stack:
            assert type(failed) is type(info.value) and str(failed) == str(info.value)


# five coordinates, three overlapping l1 pairs: projected by Newton on the group multipliers
MIXED_PAIRS = PolytopeSpec(5, (SIGNED,) * 5, ((0, 1), (1, 2), (2, 3)))


def stack_inputs(p, seeds, iterations, n=300):
    scenarios = [
        make_scenario(ScenarioConfig(r=5, m=8, n=n, rho=0.5, snr_db=30.0, polytope=p, seed=seed))
        for seed in seeds
    ]
    cfgs = [SolverConfig(iterations=iterations, record_every=10, seed=seed) for seed in seeds]
    return scenarios, cfgs


def assert_same_solve(a, b):
    assert np.array_equal(a.s, b.s)
    assert a.k == b.k
    assert np.array_equal(a.objective, b.objective, equal_nan=True)
    assert np.array_equal(a.estimate, b.estimate)
    assert a.trajectory == b.trajectory


def poison_kernel(monkeypatch, marker, after, mode):
    """From statistics step ``after`` + 1 on a kernel (iteration ``after``),
    poison the shifted R_s of the trials whose whitened mixtures equal
    ``marker``: a pivot of -inf fails its Cholesky factor (``"cholesky"``,
    which fails any stack they are in), NaN entries turn their objective NaN
    (``"divergence"``). Each solve counts on its own kernel, so a trial solved
    alone fails at the same iteration in or out of a stack."""

    class Poisoned(solver_mod._Kernel):
        calls = 0

        def statistics(self, s):
            super().statistics(s)
            self.calls += 1
            r = s.shape[-2]
            hit = np.array([np.array_equal(z[r:], marker) for z in self.z]) & (self.calls > after)
            if mode == "cholesky":
                self.r_s[hit, -1, -1] = -np.inf
            if mode == "divergence":
                self.r_s[hit] = np.nan

    monkeypatch.setattr(solver_mod, "_Kernel", Poisoned)


def assert_stack_equals_single_solves(p, iterations):
    scenarios, cfgs = stack_inputs(p, range(30, 34), iterations)
    truths = [sc.s_true for sc in scenarios]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = [run(sc.y, p, c, ground_truth=sc.s_true) for sc, c in zip(scenarios, cfgs)]
        stack = run([sc.y for sc in scenarios], p, cfgs, ground_truth=truths)
    assert len(stack) == len(single)
    for a, b in zip(stack, single):
        assert_same_solve(a, b)
    assert stack.k == len(single) * iterations


STACK_CASES = pytest.mark.parametrize("p, iterations", [
    (preset("linf_nonneg", 5), 40), (preset("l1", 5), 40), (MIXED_PAIRS, 6),
], ids=["box", "l1", "mixed"])


class TestStack:
    @STACK_CASES
    def test_equals_single_solves(self, p, iterations):
        assert_stack_equals_single_solves(p, iterations)

    @STACK_CASES
    def test_equals_single_solves_in_column_blocks(self, monkeypatch, p, iterations):
        # stack_inputs' N=300 samples in three blocks of 100 per trial
        monkeypatch.setattr(stats, "CACHE_BYTES", 100 * (5 + 8 + 1) * 8)
        y = stack_inputs(p, [30], 0)[0][0].y
        assert len(stats._Kernel([y], 1e-5, 5).blocks) == 3
        assert_stack_equals_single_solves(p, iterations)

    @pytest.mark.parametrize("mode", ["setup", "cholesky", "divergence", "record"])
    def test_failing_trial_leaves_the_stack(self, monkeypatch, mode):
        p = preset("linf_nonneg", 5)
        scenarios, cfgs = stack_inputs(p, range(40, 43), 25)
        ys = [sc.y for sc in scenarios]
        truths = [sc.s_true for sc in scenarios]
        bad = 0
        if mode == "setup":  # NaN mixtures fail before the first iteration
            ys[bad] = ys[bad].copy()
            ys[bad][0, 0] = np.nan
        if mode == "record":  # a truth one column short fails the SINR at iteration 0
            truths[bad] = truths[bad][:, :-1]
        if mode in ("cholesky", "divergence"):
            marker = solver_mod._Kernel([ys[bad]], cfgs[bad].epsilon, p.dim).z[0, p.dim:]
            poison_kernel(monkeypatch, marker, 12, mode)
        # the stack is solved again without nesting calls of the module's run,
        # whose spans a tracer sums
        calls = []
        monkeypatch.setattr(solver_mod, "run", lambda *a: calls.append(a) or run(*a))

        stack = solver_mod.run(ys, p, cfgs, truths)
        assert len(calls) == 1
        with pytest.raises(Exception) as info:
            run(ys[bad], p, cfgs[bad], truths[bad])
        assert type(stack[bad]) is type(info.value)
        assert str(stack[bad]) == str(info.value)
        assert str(info.value).startswith({
            "setup": "mixtures contain non-finite entries", "cholesky": "R_s + ",
            "divergence": "objective became non-finite at iteration 12",
            "record": "shape mismatch",
        }[mode])
        if mode == "divergence":
            assert_same_solve(stack[bad].state, info.value.state)
        for t in (1, 2):
            assert_same_solve(stack[t], run(ys[t], p, cfgs[t], truths[t]))
        assert stack.k == 2 * 25

    def test_configs_may_differ_only_in_seed(self):
        p = preset("linf_nonneg", 5)
        scenarios, cfgs = stack_inputs(p, range(2), 5)
        cfgs[1] = SolverConfig(iterations=6, seed=1)
        with pytest.raises(ValueError, match="only in their seed"):
            run([sc.y for sc in scenarios], p, cfgs)

    def test_lengths_must_match(self):
        # zip would drop the trials past the shortest sequence without a word
        p = preset("linf_nonneg", 5)
        scenarios, cfgs = stack_inputs(p, range(3), 5)
        ys, truths = [sc.y for sc in scenarios], [sc.s_true for sc in scenarios]
        for y_list, truth_list in ((ys, truths[:2]), (ys[:2], truths), (ys[:2], None)):
            with pytest.raises(ValueError, match="one mixture, config and truth each"):
                run(y_list, p, cfgs, ground_truth=truth_list)


class TestFoldedStep:
    """One iteration is the product ``K Z`` with the identity folded into ``K``: it
    lands where projecting ``s0 + mu0 * gradient(s0)`` lands."""

    @pytest.mark.parametrize("p", [
        preset("linf_nonneg", 5), preset("l1", 5), MIXED_PAIRS,
    ], ids=["box", "l1", "mixed"])
    def test_one_step_equals_projected_gradient_step(self, p):
        eps = 1e-2  # a well-conditioned start keeps the gradient's rounding small
        scenarios, cfgs = stack_inputs(p, range(60, 63), 1)
        cfgs = [replace(c, epsilon=eps) for c in cfgs]
        expected = []
        for sc, c in zip(scenarios, cfgs):
            s0 = initialize(sc.y, p, c)
            expected.append(project_columns(p, s0 + c.mu0 * gradient(s0, sc.y, eps)))
        single = [run(sc.y, p, c).s for sc, c in zip(scenarios, cfgs)]
        stack = [state.s for state in run([sc.y for sc in scenarios], p, cfgs)]
        for got in (single, stack):
            for s, want in zip(got, expected):
                assert np.abs(s - want).max() <= 1e-12


class TestWorkspace:
    """Each solve owns its workspace; the states it returns share no memory."""

    @staticmethod
    def solves():
        p = preset("linf_nonneg", 5)
        scenarios, cfgs = stack_inputs(p, range(50, 53), 15)
        ys, truths = [sc.y for sc in scenarios], [sc.s_true for sc in scenarios]
        return [run(ys[0], p, cfgs[0], truths[0]), *run(ys, p, cfgs, truths),
                run(ys[1], p, cfgs[1], truths[1])]

    def test_states_share_no_memory(self):
        arrays = [a for state in self.solves() for a in (state.s, state.estimate)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_overwriting_a_state_leaves_a_rerun_unchanged(self):
        first = self.solves()
        expected = [(state.s.tobytes(), state.estimate.tobytes()) for state in first]
        for state in first:
            state.s[...] = np.nan
            state.estimate[...] = np.nan
        again = [(state.s.tobytes(), state.estimate.tobytes()) for state in self.solves()]
        assert again == expected


class TestTracerHooks:
    """The solver reaches the projection, the orientation and the SINR
    through their module attributes, which a benchmark tracer replaces to
    time each call: a solve of K iterations projects once per trial start
    and once per iteration, and orients and scores once per trial and
    record point."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {}
        for module, name in ((solver_mod, "project_columns"),
                             (solver_mod, "canonical_orientation"),
                             (evaluation, "sinr_db")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            calls[name] = 0
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("trials", [1, 3])
    def test_calls_per_iteration_and_record_point(self, monkeypatch, trials):
        # record points 0, 4, 8 and the last iteration, 10
        p = preset("l1", 5)
        scenarios, cfgs = stack_inputs(p, range(70, 70 + trials), 10)
        cfgs = [replace(c, record_every=4) for c in cfgs]
        calls = self.count_calls(monkeypatch)
        if trials == 1:
            run(scenarios[0].y, p, cfgs[0], ground_truth=scenarios[0].s_true)
        else:
            run([sc.y for sc in scenarios], p, cfgs, ground_truth=[sc.s_true for sc in scenarios])
        assert calls == {"project_columns": trials + 10,
                         "canonical_orientation": 4 * trials, "sinr_db": 4 * trials}

    def test_without_ground_truth_orients_once_at_the_end(self, monkeypatch):
        p = preset("linf_nonneg", 5)
        scenarios, cfgs = stack_inputs(p, range(2), 10)
        calls = self.count_calls(monkeypatch)
        run([sc.y for sc in scenarios], p, cfgs)
        assert calls == {"project_columns": 2 + 10, "canonical_orientation": 2, "sinr_db": 0}


class TestFactorAtRecordPoints:
    """A step reads only the shifted pair (R_s, R_e); the solver factors it for
    the objective at the start and at each record point."""

    @pytest.mark.parametrize("trials", [1, 3])
    def test_factors_once_per_record_point(self, monkeypatch, trials):
        # record points 0, 10, 20, 30 and the last iteration, 37
        p = preset("linf_nonneg", 5)
        scenarios, cfgs = stack_inputs(p, range(80, 80 + trials), 37)
        factored = []

        def counted(shifted, epsilon, names, _fn=stats._factor):
            factored.append(names)
            return _fn(shifted, epsilon, names)

        monkeypatch.setattr(stats, "_factor", counted)
        if trials == 1:
            run(scenarios[0].y, p, cfgs[0])
        else:
            run([sc.y for sc in scenarios], p, cfgs)
        # the kernel's set-up factors each trial's R_y; each stack's pair is one call
        assert factored == ["R_y"] * trials + [("R_s", "R_e")] * 5

    def test_finite_indefinite_pair_raises_at_the_next_record_point(self, monkeypatch):
        # a shifted pair that is finite but not positive definite (which takes an
        # epsilon near rounding) passes the finiteness check, so it is factored,
        # and raises, at the next record point: iteration 20, not 12
        p = preset("linf_nonneg", 5)
        scenarios, cfgs = stack_inputs(p, [90], 25)

        class Indefinite(solver_mod._Kernel):
            calls = 0

            def statistics(self, s):
                super().statistics(s)
                Indefinite.calls += 1
                if Indefinite.calls > 12:  # from iteration 12 on
                    np.negative(self.r_e, out=self.r_e)

        monkeypatch.setattr(solver_mod, "_Kernel", Indefinite)
        with pytest.raises(np.linalg.LinAlgError) as info:
            run(scenarios[0].y, p, cfgs[0])
        assert str(info.value) == (
            "R_e + 1e-05*I is not positive definite: Matrix is not positive definite"
        )
        assert Indefinite.calls == 21  # iterations 0 to 20


class TestAlignedBuffers:
    """The kernel's buffer and the solver's step and weighted-sum buffers start
    on a 64-byte line, which numpy's allocation does not promise. Both
    products over the samples read these buffers; alignment changes their
    speed and none of their bytes."""

    @staticmethod
    def record_starts(monkeypatch):
        """At each projection of the loop, record where the kernel's source rows
        (``out``), the step's buffer (``points``) and the weighted sum start, mod 64."""
        starts = []

        def recorded(p, points, out=None, _fn=solver_mod.project_columns):
            if out is not None:  # the starts are projected without ``out``
                weighted = sys._getframe(1).f_locals["weighted"]  # _solve's local
                starts.append(
                    (out.ctypes.data % 64, points.ctypes.data % 64, weighted.ctypes.data % 64)
                )
            return _fn(p, points, out=out)

        monkeypatch.setattr(solver_mod, "project_columns", recorded)
        return starts

    @pytest.mark.parametrize(("r", "m", "n", "trials"), [
        (5, 8, 2000, 1), (5, 8, 2000, 3), (12, 16, 2000, 1), (5, 8, 1999, 1),
    ], ids=["r5", "stack-3", "r12-m16", "n1999"])
    def test_buffers_start_on_a_line(self, monkeypatch, r, m, n, trials):
        p = preset("linf_nonneg", r)
        scenarios = [
            make_scenario(ScenarioConfig(r=r, m=m, n=n, rho=0.5, snr_db=30.0, polytope=p,
                                         seed=seed, source_mode="uniform_iid"))
            for seed in range(110, 110 + trials)
        ]
        cfgs = [SolverConfig(iterations=5, seed=seed) for seed in range(110, 110 + trials)]
        starts = self.record_starts(monkeypatch)
        if trials == 1:
            run(scenarios[0].y, p, cfgs[0])
        else:
            run([sc.y for sc in scenarios], p, cfgs)
        assert starts == [(0, 0, 0)] * 5

    @pytest.mark.parametrize("case", ["linf_nonneg-r12", "stack-3"])
    def test_offsets_change_no_byte(self, monkeypatch, case):
        # a BLAS build whose rounding depends on alignment fails here
        aligned = solve_digests(case)
        assert aligned == SOLVE_DIGESTS[case]
        real = stats._aligned_empty

        def shifted(shape):  # ``offset`` bytes past a line, as the loop below sets it
            size = math.prod(shape)
            return real((size + 8,))[offset // 8:][:size].reshape(shape)

        monkeypatch.setattr(stats, "_aligned_empty", shifted)
        monkeypatch.setattr(solver_mod, "_aligned_empty", shifted)
        starts = self.record_starts(monkeypatch)
        for offset in (8, 16, 32, 48):
            starts.clear()
            assert solve_digests(case) == aligned
            assert starts and set(starts) == {(offset,) * 3}


class TestCanonicalOrientation:
    @staticmethod
    def scenario(p, seed, n=500, snr_db=30.0):
        cfg = ScenarioConfig(
            r=p.dim, m=p.dim + 3, n=n, rho=0.0, snr_db=snr_db, polytope=p, seed=seed,
            source_mode="uniform_iid",
        )
        return make_scenario(cfg)

    def test_matches_exhaustive_oracle(self):
        # early, poorly fitted iterates are where a relax-and-round choice
        # departs from the exhaustive optimum
        flipped = 0
        for r in range(1, 11):
            p = preset("linf_nonneg", r)
            for seed in range(3):
                scenario = self.scenario(p, 40 + seed)
                cfg = SolverConfig(iterations=50, seed=seed)
                state = run(scenario.y, p, cfg)
                rng = np.random.default_rng(seed)
                for s in (initialize(scenario.y, p, cfg), state.s, rng.random((r, 500))):
                    out = canonical_orientation(s, scenario.y, p)
                    assert np.array_equal(out, exhaustive_orientation(s, scenario.y, p))
                    flipped += out is not s
        # most instances flip some rows, so agreement is not the trivial "no flip"
        assert flipped >= 60

    def test_reflected_true_rows_flip_back(self):
        p = preset("linf_nonneg", 5)
        scenario = self.scenario(p, 50, n=2000, snr_db=None)
        assert canonical_orientation(scenario.s_true, scenario.y, p) is scenario.s_true
        rows = [0, 2, 3]
        s = scenario.s_true.copy()
        s[rows] = 1.0 - s[rows]
        out = canonical_orientation(s, scenario.y, p)
        assert np.array_equal(out[rows], 1.0 - s[rows])
        assert np.array_equal(out[[1, 4]], scenario.s_true[[1, 4]])

    def test_no_box_only_nonneg_rows_returns_input(self):
        for name in ("linf", "l1", "l1_nonneg"):
            p = preset(name, 4)
            scenario = self.scenario(p, 51)
            assert canonical_orientation(scenario.s_true, scenario.y, p) is scenario.s_true

    def test_mixed_domains_flip_only_box_nonneg_rows(self):
        # rows 0 and 2 are nonneg boxes; row 3 is nonneg but shares an l1 pair,
        # so its reflection is no symmetry and stays as given
        p = PolytopeSpec(5, (NONNEG, SIGNED, NONNEG, NONNEG, SIGNED), ((3, 4),))
        scenario = self.scenario(p, 52, n=2000, snr_db=None)
        s = scenario.s_true.copy()
        s[[0, 2, 3]] = 1.0 - s[[0, 2, 3]]
        out = canonical_orientation(s, scenario.y, p)
        assert np.array_equal(out[[0, 2]], 1.0 - s[[0, 2]])
        assert np.array_equal(out[[1, 3, 4]], s[[1, 3, 4]])

    def test_r20_within_time_bound(self):
        # 2^20 flip sets would take tens of seconds per call
        p = preset("linf_nonneg", 20)
        scenario = self.scenario(p, 53, n=2000)
        cfg = SolverConfig(iterations=300, seed=3)
        for s in (initialize(scenario.y, p, cfg), run(scenario.y, p, cfg).s):
            t0 = time.perf_counter()
            out = canonical_orientation(s, scenario.y, p)
            assert time.perf_counter() - t0 < 1.0
            assert contains(p, out, tol=1e-12)


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
