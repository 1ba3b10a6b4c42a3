import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import stdtr
from test_scenario_bytes import SCENARIO_CASES, SCENARIO_DIGESTS

from ldinfomax import datagen, stats
from ldinfomax.datagen import (
    ScenarioConfig,
    _add_noise,
    _copula_t,
    _GRID_CELLS,
    _magnitude_bounds,
    _mixing_matrix,
    _sources_in_polytope,
    _toeplitz_correlation,
    make_scenario,
    save_scenario,
)
from ldinfomax.polytopes import contains, preset


def _copula_t_uniforms(r, n, rho, dof, seed):
    return stdtr(dof, _copula_t(r, n, rho, dof, seed))


class TestToeplitzCorrelation:
    def test_identity_at_zero(self):
        assert np.allclose(_toeplitz_correlation(2, 0.0), np.eye(2))

    def test_first_row(self):
        c = _toeplitz_correlation(5, 0.5)
        assert np.allclose(c[0], [1.0, 0.5, 0.5, 0.5, 0.5])
        assert np.allclose(c, c.T)

    def test_eigenvalues_high_correlation(self):
        w = np.sort(np.linalg.eigvalsh(_toeplitz_correlation(3, 0.9)))
        assert np.allclose(w, [0.1, 0.1, 2.8], atol=1e-12)


class TestCopulaUniforms:
    def test_range(self):
        u = _copula_t_uniforms(4, 500, 0.3, 4, seed=0)
        assert u.shape == (4, 500)
        assert u.min() >= 0.0 and u.max() <= 1.0

    def test_uniform_marginals_uncorrelated(self):
        u = _copula_t_uniforms(5, 10000, 0.0, 4, seed=1)
        for i in range(5):
            ks = scipy_stats.kstest(u[i], "uniform").statistic
            assert ks < 0.02

    def test_pairwise_correlation_at_half(self):
        u = _copula_t_uniforms(5, 10000, 0.5, 4, seed=2)
        corr = np.corrcoef(u)
        off = corr[np.triu_indices(5, 1)]
        assert np.all(off >= 0.35) and np.all(off <= 0.60)

    def test_deterministic(self):
        a = _copula_t_uniforms(3, 100, 0.4, 4, seed=7)
        b = _copula_t_uniforms(3, 100, 0.4, 4, seed=7)
        assert np.array_equal(a, b)


class TestSourcesInPolytope:
    def test_nonneg_box_is_identity(self):
        u = np.random.default_rng(3).random((3, 50))
        out = _sources_in_polytope(u, preset("linf_nonneg", 3), "reject", None)
        assert np.array_equal(out, u)

    def test_signed_box_mapping(self):
        u = np.array([[0.0, 0.5, 1.0]])
        out = _sources_in_polytope(u, preset("linf", 1), "reject", None)
        assert np.allclose(out, [[-1.0, 0.0, 1.0]])

    def test_rejection_acceptance_rate_two_dims(self):
        # for any radially symmetric copula P(u1 + u2 <= 1) = 1/2
        u = _copula_t_uniforms(2, 100000, 0.0, 4, seed=4)
        rate = np.mean(u.sum(axis=0) <= 1.0)
        assert abs(rate - 0.5) < 0.05

    def test_rejection_fills_target_count(self):
        rng = np.random.default_rng(5)
        p = preset("l1_nonneg", 3)
        out = _sources_in_polytope(
            rng.random((3, 400)), p, mode="reject", draw=lambda k: rng.random((3, k))
        )
        assert out.shape == (3, 400)
        assert contains(p, out, tol=1e-12)

    def test_scale_mode_feasible(self):
        rng = np.random.default_rng(6)
        p = preset("l1_nonneg", 4)
        out = _sources_in_polytope(rng.random((4, 300)), p, "scale", None)
        assert contains(p, out, tol=0.0)
        assert out.shape == (4, 300)

    def test_low_acceptance_aborts_with_guidance(self):
        rng = np.random.default_rng(7)
        p = preset("l1_nonneg", 12)
        with pytest.raises(RuntimeError, match="scale"):
            _sources_in_polytope(
                rng.random((12, 1000)), p, mode="reject",
                draw=lambda k: rng.random((12, k)),
            )


class TestMagnitudeBounds:
    """The premise of the sampler's exactness: a column is dropped without
    its CDF only if its magnitude bounds sum past 1 + 1e-9, so no bound may
    exceed the magnitude the exact path computes by anywhere near that."""

    @staticmethod
    def _t_grid():
        # cell edges in x = t / (1 + |t|), a dense linear and a dense log
        # grid, the tails, signed zeros and +-1e300; each to three ulps aside
        x = np.linspace(-1.0, 1.0, _GRID_CELLS + 1)[1:-1]
        logs = np.logspace(-12, 12, 20001)
        base = np.concatenate([
            x / (1.0 - np.abs(x)), np.linspace(-50.0, 50.0, 20001), logs, -logs,
            [0.0, -0.0, 1e30, -1e30, 1e300, -1e300],
        ])
        up, down, t = base, base, [base]
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            t += [up, down]
        return np.concatenate(t)

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 7, 30, 100])
    def test_bound_never_exceeds_the_computed_magnitude(self, dof):
        t = self._t_grid()
        bounds = _magnitude_bounds(np.vstack([t, t]), np.array([0.0, -1.0]), dof)
        u = stdtr(dof, t)
        assert np.max(bounds[0] - u) <= 1e-12
        assert np.max(bounds[1] - np.abs(2.0 * u - 1.0)) <= 1e-12

    def test_cdf_evaluated_on_few_drawn_entries(self, monkeypatch):
        drawn, evaluated = [], []

        def counting_copula(*args):
            t = _copula_t(*args)
            drawn.append(t.size)
            return t

        def counting_stdtr(dof, t):
            evaluated.append(np.size(t))
            return stdtr(dof, t)

        monkeypatch.setattr(datagen, "_copula_t", counting_copula)
        monkeypatch.setattr(datagen, "stdtr", counting_stdtr)
        datagen._bound_tables.cache_clear()  # the table's own CDF calls count too
        sc = make_scenario(ScenarioConfig(r=5, n=2000, polytope=preset("l1", 5), seed=2))
        assert sc.s_true.shape == (5, 2000)
        assert sum(drawn) > 20 * 5 * 2000  # about 3% of l1 columns are kept
        assert sum(evaluated) <= 0.1 * sum(drawn)


# these draw 32,000 to 620,000 columns each (the others at most 25,000), about
# 50 s together at one column per chunk, so they run at 7 and 4,096 only
MANY_DRAWS = {
    "l1-copula_t", "l1-uniform_iid", "l1_nonneg-uniform_iid", "l1-dof1", "l1-dof4",
    "l1-dof30", "l1-r8", "l1-n2000", "l1-n20000",
}
CHUNK_CASES = [
    (width, case) for width in (1, 7, 4096) for case in SCENARIO_CASES
    if width > 1 or case not in MANY_DRAWS
]


class TestChunkedRejection:
    """The sampler works through each drawn block in column chunks sized by
    ``stats.CACHE_BYTES``; no chunk width may change a byte, and a block's
    temporaries stay chunk-sized."""

    @pytest.mark.parametrize("width,case", CHUNK_CASES)
    def test_digests_at_chunk_width(self, monkeypatch, width, case):
        cfg = ScenarioConfig(**SCENARIO_CASES[case])
        monkeypatch.setattr(stats, "CACHE_BYTES", 32 * cfg.r * width)
        assert datagen._chunk_columns(cfg.r) == width
        sc = make_scenario(cfg)
        got = tuple(
            hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in (sc.s_true, sc.h_mix, sc.y)
        )
        assert got == SCENARIO_DIGESTS[case]

    def test_heavy_scenario_peak_memory(self):
        # three 200,000-column blocks are drawn: one block of draws and
        # chunk-sized temporaries stay below two blocks
        cfg = ScenarioConfig(r=5, n=20000, polytope=preset("l1", 5), seed=3000)
        tracemalloc.start()
        try:
            make_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * cfg.r * datagen._DRAW_CAP * 8


class TestMixingMatrix:
    def test_reproducible(self):
        assert np.array_equal(_mixing_matrix(8, 5, seed=1), _mixing_matrix(8, 5, seed=1))

    def test_law_of_large_numbers(self):
        h = _mixing_matrix(100, 100, seed=2)
        assert abs(h.mean()) < 3 / np.sqrt(100 * 100)
        assert abs(h.var() - 1.0) < 0.2

    def test_full_rank(self):
        for seed in range(5):
            assert np.linalg.matrix_rank(_mixing_matrix(8, 5, seed=seed)) == 5


class TestAddNoise:
    def test_noiseless_sentinels(self):
        y = np.random.default_rng(8).standard_normal((3, 20))
        for snr in (None, np.inf):
            out, sigma = _add_noise(y, snr, seed=0)
            assert sigma == 0.0
            assert np.array_equal(out, y)

    def test_zero_db_matches_signal_power(self):
        y = np.random.default_rng(9).standard_normal((4, 5000))
        _, sigma = _add_noise(y, 0.0, seed=1)
        power = np.mean(y**2)
        assert sigma**2 == pytest.approx(power, rel=1e-12)

    def test_realized_snr(self):
        y = np.random.default_rng(10).standard_normal((5, 10000))
        noisy, _ = _add_noise(y, 20.0, seed=2)
        realized = 10 * np.log10(np.mean(y**2) / np.mean((noisy - y) ** 2))
        assert abs(realized - 20.0) < 0.2

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            _add_noise(np.zeros((2, 4)), 10.0, seed=0)


class TestMakeScenario:
    def test_noiseless_exact_product(self):
        cfg = ScenarioConfig(
            r=3, m=5, n=200, rho=0.2, snr_db=None,
            polytope=preset("l1_nonneg", 3), seed=3,
        )
        sc = make_scenario(cfg)
        assert np.allclose(sc.y, sc.h_mix @ sc.s_true, atol=1e-12)
        assert sc.noise_sigma == 0.0

    def test_columns_feasible(self):
        cfg = ScenarioConfig(
            r=4, m=6, n=300, rho=0.4, polytope=preset("l1_nonneg", 4), seed=4
        )
        sc = make_scenario(cfg)
        assert contains(cfg.polytope, sc.s_true, tol=1e-9)

    def test_bit_for_bit_determinism(self):
        cfg = ScenarioConfig(
            r=3, m=5, n=150, rho=0.5, polytope=preset("l1_nonneg", 3), seed=5
        )
        a, b = make_scenario(cfg), make_scenario(cfg)
        assert np.array_equal(a.s_true, b.s_true)
        assert np.array_equal(a.h_mix, b.h_mix)
        assert np.array_equal(a.y, b.y)

    def test_uniform_iid_uncorrelated(self):
        n = 4000
        cfg = ScenarioConfig(
            r=3, m=4, n=n, rho=0.0, snr_db=None,
            polytope=preset("linf", 3), seed=6, source_mode="uniform_iid",
        )
        sc = make_scenario(cfg)
        corr = np.corrcoef(sc.s_true)
        off = corr[np.triu_indices(3, 1)]
        assert np.all(np.abs(off) < 3 / np.sqrt(n))

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(r=5, m=3, n=100, polytope=preset("l1_nonneg", 5))
        with pytest.raises(ValueError):
            ScenarioConfig(r=3, m=5, n=100, polytope=preset("l1_nonneg", 4))
        # the private helpers make_scenario calls trust these checks
        for bad in ({"rho": -0.6}, {"rho": 1.0}, {"l1_mode": "clip"}, {"source_mode": "gauss"}):
            with pytest.raises(ValueError):
                ScenarioConfig(r=3, m=5, n=100, polytope=preset("l1_nonneg", 3), **bad)


class TestScenarioRoundtrip:
    def test_save_load(self, tmp_path):
        cfg = ScenarioConfig(
            r=3, m=5, n=120, rho=0.3, polytope=preset("l1_nonneg", 3), seed=9
        )
        sc = make_scenario(cfg)
        save_scenario(sc, tmp_path)
        for name, matrix in (("sources", sc.s_true), ("mixing", sc.h_mix), ("mixtures", sc.y)):
            back = np.loadtxt(tmp_path / f"{name}.csv", delimiter=",")
            assert np.allclose(back, matrix, rtol=1e-11, atol=1e-14)

    def test_save_twice_identical(self, tmp_path):
        cfg = ScenarioConfig(
            r=2, m=4, n=80, rho=0.0, polytope=preset("linf_nonneg", 2), seed=10
        )
        sc = make_scenario(cfg)
        save_scenario(sc, tmp_path / "a")
        save_scenario(sc, tmp_path / "b")
        for name in ("sources.csv", "mixing.csv", "mixtures.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
