import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ldinfomax import ica
from ldinfomax.datagen import ScenarioConfig, make_scenario
from ldinfomax.evaluation import sinr_db
from ldinfomax.ica import IcaDivergenceError, _ica_infomax, _whiten, ica_separate
from ldinfomax.polytopes import preset
from ldinfomax.stats import sample_covariance
from oracles import sample_pass_infomax


def unit_uniform_sources(r, n, seed):
    """Independent zero-mean unit-variance uniform rows."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.sqrt(3), np.sqrt(3), (r, n))


class TestWhiten:
    def test_identity_covariance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 2000))
        z, _ = _whiten(y, 4)
        assert np.allclose(sample_covariance(z), np.eye(4), atol=1e-8)

    def test_linear_map(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((5, 500))
        z, w_white = _whiten(y, 3)
        yc = y - y.mean(axis=1, keepdims=True)
        assert np.allclose(z, w_white @ yc, atol=1e-12)

    def test_energy_ordering(self):
        rng = np.random.default_rng(2)
        y = np.diag([10.0, 5.0, 1.0, 0.1]) @ rng.standard_normal((4, 5000))
        _, w_white = _whiten(y, 2)
        cov = sample_covariance(y)
        w, v = np.linalg.eigh(cov)
        top2 = v[:, np.argsort(w)[::-1][:2]]
        # retained subspace spans the top-variance eigenvectors
        proj = top2 @ top2.T
        for row in w_white:
            assert np.linalg.norm(proj @ row - row) < 1e-6 * np.linalg.norm(row)

    def test_rank_deficiency_rejected(self):
        rng = np.random.default_rng(3)
        y = np.outer(rng.standard_normal(4), rng.standard_normal(300))
        # a LinAlgError (a ValueError) is what sends the solver to random init
        with pytest.raises(np.linalg.LinAlgError):
            _whiten(y, 2)


class TestIcaInfomax:
    def test_already_separated_input(self):
        # whitening rotates near-isotropic sources arbitrarily; the unmixing
        # has to undo that rotation, so score against the original sources
        s = unit_uniform_sources(3, 5000, seed=4)
        z, _ = _whiten(s, 3)
        w = _ica_infomax(z)
        assert sinr_db(w @ z, s) > 25.0

    def test_deterministic(self):
        s = unit_uniform_sources(3, 1000, seed=5)
        z, _ = _whiten(s, 3)
        assert np.array_equal(_ica_infomax(z), _ica_infomax(z))

    def test_unmixing_well_conditioned(self):
        rng = np.random.default_rng(6)
        s = unit_uniform_sources(3, 3000, seed=6)
        y = rng.standard_normal((5, 3)) @ s
        z, _ = _whiten(y, 3)
        w = _ica_infomax(z)
        assert np.linalg.cond(w) < 1e6

    def test_divergence_detected(self):
        z, _ = _whiten(unit_uniform_sources(3, 500, seed=7), 3)
        z[1, 10] = np.nan
        with pytest.raises(IcaDivergenceError, match="non-finite at iteration 1"):
            _ica_infomax(z)

    def test_non_convergence_raises(self, monkeypatch):
        # one Newton step does not reach tol; the error names the count and
        # the last step norm instead of returning an unconverged matrix
        z, _ = _whiten(unit_uniform_sources(3, 500, seed=7), 3)
        monkeypatch.setattr(ica, "_MAX_ITER", 1)
        with pytest.raises(IcaDivergenceError, match=r"in 1 iterations \(last step norm [0-9.e+-]+, tol 1e-07\)"):
            _ica_infomax(z)


def _row_aligned(w, w_ref):
    """``w_ref``'s rows in ``w``'s order and sign (the indeterminacy evaluation resolves)."""
    rows, cols = linear_sum_assignment(-np.abs(w @ w_ref.T))
    aligned = w_ref[cols]
    return aligned * np.sign(np.sum(w * aligned, axis=1))[:, None]


class TestIcaOracle:
    @pytest.mark.parametrize("sources", ["iid", "copula"])
    def test_matches_converged_sample_pass_loop(self, sources):
        # Newton steps and the natural-gradient loop, run to convergence,
        # reach the same maximizer of the same likelihood; rows may come out
        # permuted or flipped
        if sources == "iid":
            rng = np.random.default_rng(12)
            y = rng.standard_normal((6, 4)) @ unit_uniform_sources(4, 2000, seed=12)
        else:
            y = make_scenario(ScenarioConfig(
                r=4, m=6, n=2000, rho=0.6, snr_db=30.0,
                polytope=preset("linf_nonneg", 4), seed=12,
            )).y
        z, _ = _whiten(y, 4)
        w_ref, iterations = sample_pass_infomax(z, max_iter=20000, tol=1e-10)
        assert iterations < 20000
        w = _ica_infomax(z)
        assert np.abs(w - _row_aligned(w, w_ref)).max() <= 1e-5


class TestIcaSeparate:
    def test_composition_consistency(self):
        rng = np.random.default_rng(9)
        s = unit_uniform_sources(3, 2000, seed=9)
        y = rng.standard_normal((5, 3)) @ s
        z, w_white = _whiten(y, 3)
        w = _ica_infomax(z)
        assert np.allclose(ica_separate(y, 3), w @ w_white @ (y - y.mean(axis=1, keepdims=True)), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mixtures_rejected(self, bad):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((4, 3)) @ unit_uniform_sources(3, 500, seed=12)
        y[1, 40] = bad
        with pytest.raises(ValueError, match="^mixtures contain non-finite entries"):
            ica_separate(y, 3)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((4, 3)) @ unit_uniform_sources(3, 800, seed=10)
        assert np.array_equal(ica_separate(y, 3), ica_separate(y, 3))

    def test_independent_uniform_benchmark(self):
        rng = np.random.default_rng(11)
        s = unit_uniform_sources(3, 5000, seed=11)
        y = rng.standard_normal((5, 3)) @ s
        assert sinr_db(ica_separate(y, 3), s) > 25.0

    def test_separation_rate_over_seeds(self):
        good = 0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            s = unit_uniform_sources(3, 5000, seed=500 + seed)
            y = rng.standard_normal((5, 3)) @ s
            if sinr_db(ica_separate(y, 3), s) >= 25.0:
                good += 1
        assert good >= 18

