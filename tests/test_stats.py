import numpy as np
import pytest
from scipy.linalg import hadamard

from ldinfomax import stats
from ldinfomax.datagen import ScenarioConfig, make_scenario
from ldinfomax.polytopes import preset
from ldinfomax.solver import gradient
from ldinfomax.stats import (
    _LOG_2PI_E,
    _center,
    _cross,
    _Kernel,
    conditional_error_covariance,
    ld_entropy,
    ld_mutual_information,
    logdet_regularized,
    sample_covariance,
)
from oracles import (
    chain_rule_mi,
    eig_logdet,
    schur_conditional_cov,
    two_pass_covariance,
    two_solve_gradient,
)


class TestSampleCovariance:
    def test_single_row_unit_variance(self):
        assert np.allclose(sample_covariance([[1.0, -1.0]]), [[1.0]])

    def test_constant_rows_zero(self):
        x = 3.7 * np.ones((3, 20))
        assert np.allclose(sample_covariance(x), np.zeros((3, 3)))

    def test_matches_two_pass_oracle(self):
        x = np.random.default_rng(1).standard_normal((3, 50))
        assert np.allclose(sample_covariance(x), two_pass_covariance(x), atol=1e-12)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((3, 1)))

    def test_rejects_nonfinite(self):
        x = np.ones((2, 5))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            sample_covariance(x)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 30))
        shift = rng.standard_normal((4, 1))
        assert np.allclose(
            sample_covariance(x + shift), sample_covariance(x), atol=1e-10
        )


def cross_covariance(s, y):
    """The kernel's biased cross covariance of two sample sets."""
    return _cross(_center(np.asarray(s, float)), _center(np.asarray(y, float)))


class TestCrossCovariance:
    def test_self_consistency(self):
        x = np.random.default_rng(3).standard_normal((3, 40))
        assert np.allclose(cross_covariance(x, x), sample_covariance(x), atol=1e-12)

    def test_constant_rows_zero(self):
        s = np.ones((2, 10))
        y = np.random.default_rng(4).standard_normal((3, 10))
        assert np.allclose(cross_covariance(s, y), np.zeros((2, 3)))

    def test_perfect_anticorrelation(self):
        assert np.allclose(cross_covariance([[1.0, -1.0]], [[-1.0, 1.0]]), [[-1.0]])

    def test_rejects_mismatched_samples(self):
        with pytest.raises(ValueError, match="sample counts differ"):
            conditional_error_covariance(np.ones((2, 5)), np.ones((2, 6)), 1e-5)


class TestLdEntropy:
    def test_identity_covariance(self):
        r, eps = 4, 1e-3
        expected = 0.5 * r * np.log(1 + eps) + 0.5 * r * _LOG_2PI_E
        assert ld_entropy(np.eye(r), eps) == pytest.approx(expected, abs=1e-12)

    def test_zero_covariance_floor(self):
        r, eps = 3, 1e-5
        expected = 0.5 * r * np.log(eps) + 0.5 * r * _LOG_2PI_E
        assert ld_entropy(np.zeros((r, r)), eps) == pytest.approx(expected, abs=1e-12)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T
        eps = 1e-4
        expected = 0.5 * eig_logdet(cov, eps) + 2.0 * _LOG_2PI_E
        assert ld_entropy(cov, eps) == pytest.approx(expected, abs=1e-10)

    def test_not_positive_definite_is_an_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            logdet_regularized(-np.eye(3), 1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ld_entropy(np.array([[1.0, 0.5], [0.0, 1.0]]), 1e-5)
        with pytest.raises(ValueError, match="square"):
            ld_entropy(np.float64(1.0), 1e-5)

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T
        scale = 2.5
        lhs = ld_entropy(scale**2 * cov, 1e-4 * scale**2)
        rhs = ld_entropy(cov, 1e-4) + 3 * np.log(scale)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# rows 1-7 of a Hadamard matrix are zero-mean, orthogonal, and of unit biased variance
HADAMARD_8 = hadamard(8).astype(float)


class TestConditionalErrorCovariance:
    def test_no_correlation_no_reduction(self):
        s = np.diag(np.sqrt([2.0, 3.0])) @ HADAMARD_8[1:3]
        y = HADAMARD_8[3:7]
        assert np.allclose(conditional_error_covariance(s, y, 1e-5), np.diag([2.0, 3.0]))

    def test_identical_blocks_identity(self):
        eps = 1e-5
        s = HADAMARD_8[1:4]
        expected = (eps / (1 + eps)) * np.eye(3)
        assert np.allclose(conditional_error_covariance(s, s, eps), expected, atol=1e-12)

    def test_matches_schur_oracle(self):
        rng = np.random.default_rng(7)
        r, eps = 3, 1e-5
        s = rng.standard_normal((r, 200))
        y = rng.standard_normal((5, 200))
        joint = sample_covariance(np.vstack([s, y]))
        expected = schur_conditional_cov(joint[:r, :r], joint[r:, r:], joint[:r, r:], eps)
        assert np.allclose(conditional_error_covariance(s, y, eps), expected, atol=1e-10)

    def test_matches_solver_kernel(self):
        # the public function centers s and takes the solver kernel's route to
        # R_e, so the kernel factors exactly the matrix the public function returns
        rng = np.random.default_rng(21)
        for _ in range(20):
            r, m, n = rng.integers(2, 6), rng.integers(2, 9), rng.integers(50, 400)
            eps = 10.0 ** rng.uniform(-6, -2)
            y = rng.standard_normal((m, m)) @ rng.standard_normal((m, n)) + 3.0
            s = rng.standard_normal((r, m)) @ y + rng.standard_normal((r, n))
            kernel = _Kernel([y], eps, r)
            kernel.load(_center(s))  # leaves the shifted pair it factored
            public = conditional_error_covariance(s, y, eps)
            assert np.array_equal(public, public.T)
            assert np.array_equal(public + eps * np.eye(r), kernel.pair[0, 1])

    def test_validation(self):
        s, y = np.eye(2), np.eye(2)
        with pytest.raises(ValueError, match="epsilon"):
            conditional_error_covariance(s, y, 0.0)
        with pytest.raises(ValueError, match="2-D"):
            conditional_error_covariance(np.ones(4), np.ones((2, 4)), 1e-5)


class TestLdMutualInformation:
    def test_uncorrelated_pair_is_zero(self):
        s = np.array([[1.0, -1.0, 1.0, -1.0]])
        y = np.array([[1.0, 1.0, -1.0, -1.0]])
        assert abs(ld_mutual_information(s, y, 1e-5)) <= 1e-12

    def test_self_information_positive(self):
        s = np.random.default_rng(8).standard_normal((3, 100))
        assert ld_mutual_information(s, s, 1e-5) > 1.0

    def test_matches_chain_rule_oracle(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((4, 150))
        mix = rng.standard_normal((3, 4))
        s = mix @ y + 0.3 * rng.standard_normal((3, 150))
        eps = 1e-5
        assert ld_mutual_information(s, y, eps) == pytest.approx(
            chain_rule_mi(s, y, eps), abs=1e-9
        )


class TestIdentities:
    def test_chain_rule_logdet_factorization(self):
        rng = np.random.default_rng(10)
        eps = 1e-5
        for _ in range(20):
            s = rng.standard_normal((3, 80))
            y = rng.standard_normal((4, 80))
            joint = sample_covariance(np.vstack([s, y]))
            r_e = conditional_error_covariance(s, y, eps)
            lhs = logdet_regularized(joint, eps)
            rhs = logdet_regularized(sample_covariance(y), eps) + logdet_regularized(r_e, eps)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_symmetry_of_conditioning(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.standard_normal((3, 60))
            y = rng.standard_normal((5, 60))
            assert ld_mutual_information(s, y, 1e-5) == pytest.approx(
                ld_mutual_information(y, s, 1e-5), abs=1e-9
            )

    def test_nonnegativity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(10, 60))
            s = rng.standard_normal((r, n))
            y = rng.standard_normal((m, n))
            assert ld_mutual_information(s, y, 1e-5) >= -1e-9


def two_pass_pair(s, y, epsilon):
    """``R_s`` and ``R_e`` from the two-pass covariance of the stacked samples."""
    r = s.shape[0]
    joint = two_pass_covariance(np.vstack([s, y]))
    r_s, r_sy, r_y = joint[:r, :r], joint[:r, r:], joint[r:, r:]
    return r_s, r_s - r_sy @ np.linalg.solve(r_y + epsilon * np.eye(len(r_y)), r_sy.T)


class TestUncenteredKernel:
    """The solver's kernel reads its iterate uncentered, as ``S Sᵀ/N - m mᵀ``; the
    public measures center their samples first."""

    @staticmethod
    def scenario():
        return make_scenario(ScenarioConfig(
            r=5, m=8, n=2000, rho=0.5, snr_db=30.0, polytope=preset("linf_nonneg", 5), seed=3,
        ))

    def test_box_corner_iterate(self):
        # rows pressed into a corner of the box: means near 1 - 1e-3, spread 1e-3
        scenario, eps = self.scenario(), 1e-5
        s = (1.0 - 1.5e-3) + 1e-3 * scenario.s_true
        assert np.abs(s.mean(axis=1) - (1.0 - 1e-3)).max() < 2e-4
        kernel = _Kernel([scenario.y], eps, s.shape[0])
        kernel.fill(s)
        for value, oracle in zip(kernel.pair[0], two_pass_pair(s, scenario.y, eps)):
            assert np.abs(value - oracle).max() <= 1e-12
        (objective,) = kernel.load(s)
        assert objective == pytest.approx(ld_mutual_information(s, scenario.y, eps), abs=1e-9)

    def test_public_measures_on_offset_rows(self):
        # rows of mean 1e3 and unit spread, in the sources and in the mixtures:
        # each public measure keeps its oracle tolerance
        rng = np.random.default_rng(22)
        eps = 1e-5
        y = 1e3 + rng.standard_normal((5, 200))
        s = 1e3 + rng.standard_normal((3, 5)) @ (y - 1e3) / 3 + 0.5 * rng.standard_normal((3, 200))
        assert np.abs(s.mean(axis=1) - 1e3).max() < 1.0
        assert np.allclose(sample_covariance(s), two_pass_covariance(s), atol=1e-12)
        joint = two_pass_covariance(np.vstack([s, y]))
        expected = schur_conditional_cov(joint[:3, :3], joint[3:, 3:], joint[:3, 3:], eps)
        assert np.allclose(conditional_error_covariance(s, y, eps), expected, atol=1e-10)
        assert ld_mutual_information(s, y, eps) == pytest.approx(
            chain_rule_mi(s, y, eps), abs=1e-9
        )
        ref = two_solve_gradient(s, y, eps)
        assert np.linalg.norm(gradient(s, y, eps) - ref) <= 1e-10 * np.linalg.norm(ref)


class TestColumnBlocks:
    """The kernel's two products run over column blocks sized by ``CACHE_BYTES``."""

    @staticmethod
    def inputs():
        scenario = make_scenario(ScenarioConfig(
            r=3, m=5, n=500, rho=0.5, snr_db=30.0, polytope=preset("linf_nonneg", 3), seed=9,
        ))
        noise = np.random.default_rng(9).normal(0.0, 0.05, scenario.s_true.shape)
        return scenario.s_true + noise, scenario.y

    def test_one_block_is_one_product(self):
        s, y = self.inputs()
        kernel = _Kernel([y], 1e-5, 3)
        assert kernel.blocks == [slice(0, 500)]
        kernel.fill(s)
        product = kernel.r_sw.base  # fill's product, of which R_sy L⁻ᵀ and m are views
        assert product.shape == (1, 3, 3 + 5 + 1)
        assert np.array_equal(product[0], kernel.z[0, :3] @ kernel.z[0].T / 500)

    def test_three_blocks_match_one(self, monkeypatch):
        s, y = self.inputs()
        eps, one = 1e-5, _Kernel([y], 1e-5, 3)
        monkeypatch.setattr(stats, "CACHE_BYTES", 200 * (3 + 5 + 1) * 8)
        blocked = _Kernel([y], eps, 3)
        assert [b.stop - b.start for b in blocked.blocks] == [167, 167, 166]

        def close(a, b):
            return np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

        one.fill(s)
        blocked.fill(s)
        assert all(close(a, b) for a, b in zip(blocked.pair[0], one.pair[0]))
        assert close(blocked.load(s), one.load(s))
        assert close(blocked.gradient(1.0), one.gradient(1.0))
        out = np.empty((1, *s.shape))
        assert blocked.gradient(0.5, out=out, step=True) is out
        assert close(out, one.gradient(0.5, step=True))
