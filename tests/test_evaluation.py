import numpy as np
import pytest

from ldinfomax.evaluation import (
    Alignment,
    aggregate,
    best_alignment,
    evaluate,
    mse,
    sinr_db,
)
from oracles import exhaustive_alignment_mse


class TestAlignment:
    def test_validates_permutation(self):
        with pytest.raises(ValueError):
            Alignment((0, 0), (1, 1))

    def test_validates_signs(self):
        with pytest.raises(ValueError):
            Alignment((0, 1), (2, 1))

    def test_apply(self):
        s = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = Alignment((1, 0), (-1, 1)).apply(s)
        assert np.allclose(out, [[-3.0, -4.0], [1.0, 2.0]])


class TestBestAlignment:
    def test_identity(self):
        s = np.random.default_rng(0).standard_normal((4, 50))
        a = best_alignment(s, s)
        assert a.perm == (0, 1, 2, 3)
        assert a.signs == (1, 1, 1, 1)

    def test_reversed_and_negated(self):
        s = np.random.default_rng(1).standard_normal((4, 50))
        a = best_alignment(-s[::-1], s)
        assert a.perm == (3, 2, 1, 0)
        assert a.signs == (-1, -1, -1, -1)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        s_true = rng.standard_normal((4, 200))
        mix = np.eye(4) + 0.4 * rng.standard_normal((4, 4))
        s_est = mix @ s_true
        value = mse(s_est, s_true, best_alignment(s_est, s_true))
        assert value == pytest.approx(exhaustive_alignment_mse(s_est, s_true), abs=1e-12)

    def test_zero_norm_row_rejected(self):
        s = np.ones((2, 10))
        bad = s.copy()
        bad[0] = 0.0
        with pytest.raises(ValueError):
            best_alignment(bad, s)


class TestMse:
    def test_exact_recovery(self):
        s = np.random.default_rng(3).standard_normal((3, 40))
        assert mse(s, s, best_alignment(s, s)) == pytest.approx(0.0, abs=1e-15)

    def test_constant_offset(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((3, 40))
        c = 0.7
        a = Alignment((0, 1, 2), (1, 1, 1))
        assert mse(s + c, s, a) == pytest.approx(3 * c**2, abs=1e-12)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(5)
        s_true = rng.standard_normal((3, 60))
        s_est = rng.standard_normal((3, 60))
        a = best_alignment(s_est, s_true)
        aligned = np.array([a.signs[i] * s_true[a.perm[i]] for i in range(3)])
        direct = np.linalg.norm(s_est - aligned, "fro") ** 2 / 60
        assert mse(s_est, s_true, a) == pytest.approx(direct, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones((2, 5)), np.ones((2, 6)), Alignment((0, 1), (1, 1)))


class TestSinr:
    def test_perfect_recovery_is_inf(self):
        s = np.random.default_rng(6).standard_normal((3, 30))
        assert sinr_db(s, s) == np.inf

    def test_zero_estimate_closed_form(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((4, 100))
        s[np.abs(s) < 1e-3] = 1e-3  # keep row norms safely nonzero
        est = np.zeros_like(s)
        assert sinr_db(est, s) == pytest.approx(10 * np.log10(1 / 4), abs=1e-6)

    def test_scaled_error_closed_form(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((3, 50))
        err = rng.standard_normal((3, 50))
        est = s + 0.1 * err
        expected_mse = np.linalg.norm(0.1 * err, "fro") ** 2 / 50
        power = np.linalg.norm(s, "fro") ** 2 / 150
        a = best_alignment(est, s)
        assert a.perm == (0, 1, 2)
        assert sinr_db(est, s) == pytest.approx(
            10 * np.log10(power / expected_mse), abs=1e-9
        )

    def test_invariant_to_row_permutation_and_sign(self):
        rng = np.random.default_rng(9)
        s_true = rng.standard_normal((4, 80))
        s_est = s_true + 0.2 * rng.standard_normal((4, 80))
        base = sinr_db(s_est, s_true)
        flipped = np.diag([1, -1, 1, -1]) @ s_est[[2, 0, 3, 1]]
        assert sinr_db(flipped, s_true) == pytest.approx(base, abs=1e-9)

    def test_mse_invariant_under_simultaneous_row_permutation(self):
        rng = np.random.default_rng(10)
        s_true = rng.standard_normal((3, 50))
        s_est = s_true + 0.3 * rng.standard_normal((3, 50))
        a = best_alignment(s_est, s_true)
        base = mse(s_est, s_true, a)
        perm = [2, 0, 1]
        a2 = best_alignment(s_est[perm], s_true[perm])
        assert mse(s_est[perm], s_true[perm], a2) == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(11)
        s_true = rng.standard_normal((3, 60))
        report = evaluate(s_true + 0.05 * rng.standard_normal((3, 60)), s_true)
        assert report.mse > 0
        assert report.sinr_db > 20
        assert len(report.per_source_corr) == 3
        assert np.all(report.per_source_corr > 0.9)


class TestAggregate:
    def test_single_trial_zero_std(self):
        grid, mean, std = aggregate([[(0, 10.0), (5, 12.0)]])
        assert np.allclose(grid, [0, 5])
        assert np.allclose(mean, [10.0, 12.0])
        assert np.allclose(std, [0.0, 0.0])

    def test_two_trials_population_std(self):
        curves = [[(0, 10.0)], [(0, 20.0)]]
        _, mean, std = aggregate(curves)
        assert mean[0] == pytest.approx(15.0)
        assert std[0] == pytest.approx(5.0)

    def test_exact_recovery_is_not_nan(self):
        # exact recovery scores inf; trials that agree have std 0, and inf
        # beside a finite value has std inf
        inf = float("inf")
        curves = [[(0, 10.0), (5, inf), (9, inf)], [(0, 12.0), (5, 20.0), (9, inf)]]
        _, mean, std = aggregate(curves)
        assert mean.tolist() == [11.0, inf, inf]
        assert std.tolist() == [1.0, inf, 0.0]

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(12)
        values = rng.normal(12.0, 3.0, size=(100, 4))
        grid = [0, 10, 20, 30]
        curves = [list(zip(grid, row)) for row in values]
        _, mean, std = aggregate(curves)
        for j in range(4):
            col = values[:, j]
            m = sum(col) / len(col)
            var = sum((v - m) ** 2 for v in col) / len(col)
            assert mean[j] == pytest.approx(m, abs=1e-12)
            assert std[j] == pytest.approx(np.sqrt(var), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            aggregate([[(0, 1.0)], [(5, 1.0)]])
