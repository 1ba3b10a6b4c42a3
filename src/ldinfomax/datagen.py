"""Synthetic scenario generation: correlated sources in a polytope, random
Gaussian mixing, and SNR-controlled additive noise.

Sources are built from dependent uniforms drawn through a t-copula with an
equicorrelation generator matrix, mapped into the target polytope either by
rejection (preserves the dependence structure inside the polytope) or by
group-wise rescaling. Everything is reproducible from a single seed through
numpy's PCG64 generator and spawned child sequences.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from .polytopes import PolytopeSpec, contains, preset

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "make_scenario",
    "save_scenario",
]

REJECTION_MIN_RATE = 1e-4
REJECTION_PROBE = 20000


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic mixing experiment.

    ``snr_db=None`` (or ``inf``) means noiseless mixtures; NaN and ``-inf``
    are rejected. ``source_mode`` selects dependent t-copula uniforms or
    independent uniforms before the polytope mapping; ``l1_mode`` selects how
    group constraints are enforced ("reject" redraws violating columns,
    "scale" shrinks them onto the feasible set).
    """

    r: int = 5
    m: int = 8
    n: int = 10000
    rho: float = 0.5
    dof: int = 4
    snr_db: float | None = 30.0
    polytope: PolytopeSpec = field(default_factory=lambda: preset("l1_nonneg", 5))
    source_mode: str = "copula_t"
    l1_mode: str = "reject"
    seed: int = 0

    def __post_init__(self):
        if not (self.m >= self.r >= 1):
            raise ValueError(f"need m >= r >= 1, got r={self.r}, m={self.m}")
        _check_rho(self.r, self.rho)
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.dof < 1:
            raise ValueError("dof must be >= 1")
        if self.snr_db is not None and not (self.snr_db > -math.inf):  # NaN fails it too
            raise ValueError(f"snr_db must be None, finite or inf, got {self.snr_db}")
        if self.polytope.dim != self.r:
            raise ValueError(
                f"polytope dimension {self.polytope.dim} does not match r={self.r}"
            )
        if self.source_mode not in ("copula_t", "uniform_iid"):
            raise ValueError(f"unknown source_mode {self.source_mode!r}")
        if self.l1_mode not in ("reject", "scale"):
            raise ValueError(f"unknown l1_mode {self.l1_mode!r}")


@dataclass(frozen=True)
class Scenario:
    """Generated ground truth: sources, mixing matrix, observed mixtures."""

    s_true: np.ndarray
    h_mix: np.ndarray
    y: np.ndarray
    noise_sigma: float


def _toeplitz_correlation(r, rho):
    """Equicorrelation matrix: unit diagonal, ``rho`` everywhere else.

    This is the Toeplitz matrix generated by the first row ``[1, rho, ...,
    rho]``. Positive definite exactly for ``rho`` in (-1/(r-1), 1), which
    :class:`ScenarioConfig` checks.
    """
    return np.full((r, r), float(rho)) + (1.0 - rho) * np.eye(r)


def _check_rho(r, rho):
    """Raise ``ValueError`` unless ``rho`` is in (-1/(r-1), 1)."""
    lo = -1.0 / (r - 1) if r > 1 else -math.inf
    if not (lo < rho < 1.0):
        raise ValueError(
            f"rho={rho} gives a non-positive-definite matrix for r={r}; "
            f"need rho in ({lo}, 1)"
        )


def _copula_t_uniforms(r, n, rho, dof, seed):
    """Dependent uniforms in [0, 1] from a t-copula.

    Multivariate-t samples are drawn as correlated Gaussians divided by
    ``sqrt(chi2_dof / dof)`` and pushed through the univariate t CDF, giving
    uniform marginals whose dependence is controlled by ``rho``.

    ``seed`` may be an integer or a ``numpy.random.Generator``.
    """
    rng = np.random.default_rng(seed)
    corr = _toeplitz_correlation(r, rho)
    chol = np.linalg.cholesky(corr)
    z = chol @ rng.standard_normal((r, n))
    w = rng.chisquare(dof, size=n)
    t_samples = z / np.sqrt(w / dof)
    return scipy_stats.t.cdf(t_samples, df=dof)


def _sources_in_polytope(u, p, mode, draw):
    """Map uniforms in [0, 1]^r into the polytope.

    Nonnegative coordinates keep their uniform value; signed coordinates are
    mapped to ``2u - 1``. Group l1 constraints are then enforced per column:

    - ``mode="reject"``: violating columns are discarded and replaced with
      fresh draws from ``draw(k)`` (a callable returning an (r, k) uniform
      block) until the original column count is reached.
    - ``mode="scale"``: each violating group sub-vector is divided by its
      group l1 norm times (1 + 1e-9), which restores feasibility exactly.

    Raises
    ------
    RuntimeError
        When rejection acceptance falls below 1e-4 (use "scale" instead).
    """
    n_target = u.shape[1]

    if mode == "scale":
        s = _map_box(u, p)
        for g in p.l1_groups:
            g = list(g)
            norms = np.abs(s[g]).sum(axis=0)
            viol = norms > 1.0
            if np.any(viol):
                s[np.ix_(g, np.flatnonzero(viol))] /= norms[viol] * (1.0 + 1e-9)
        return s

    if not p.l1_groups:
        return _map_box(u, p)

    accepted = []
    n_have = 0
    n_drawn = 0
    block = u
    while True:
        s = _map_box(block, p)
        ok = np.ones(s.shape[1], dtype=bool)
        for g in p.l1_groups:
            ok &= np.abs(s[list(g)]).sum(axis=0) <= 1.0
        accepted.append(s[:, ok])
        n_have += int(ok.sum())
        n_drawn += s.shape[1]
        if n_have >= n_target:
            break
        if n_drawn >= REJECTION_PROBE and n_have < REJECTION_MIN_RATE * n_drawn:
            raise RuntimeError(
                f"rejection acceptance rate {n_have / n_drawn:.2e} below "
                f"{REJECTION_MIN_RATE}; use mode='scale' for this polytope"
            )
        deficit = n_target - n_have
        rate = max(n_have / n_drawn, REJECTION_MIN_RATE)
        block = draw(min(int(deficit / rate * 1.2) + 1, 200_000))
    return np.hstack(accepted)[:, :n_target]


def _map_box(u, p):
    """``lower + (upper - lower) * u``, with the sum taken in place."""
    lo = p.lower[:, None]
    s = (p.upper[:, None] - lo) * u
    s += lo
    return s


def _mixing_matrix(m, r, seed):
    """Random mixing matrix with i.i.d. standard normal entries.

    Redraws (up to 10 times) in the unlikely event of a rank-deficient draw.
    """
    rng = np.random.default_rng(seed)
    for _ in range(10):
        h = rng.standard_normal((m, r))
        if np.linalg.matrix_rank(h) == r:
            return h
    raise RuntimeError("failed to draw a full-rank mixing matrix in 10 attempts")


def _add_noise(y_clean, snr_db, seed):
    """Add i.i.d. Gaussian noise at the requested mixture SNR.

    The noise variance satisfies ``10 log10(P_signal / sigma^2) = snr_db``
    with ``P_signal = ||y_clean||_F^2 / (M N)``. ``snr_db`` of ``None`` or
    ``inf`` returns the input unchanged with ``sigma = 0``.
    """
    y_clean = np.asarray(y_clean, dtype=float)
    if snr_db is None or math.isinf(snr_db):
        return y_clean.copy(), 0.0
    power = float(np.sum(y_clean * y_clean)) / y_clean.size
    if power == 0.0:
        raise ValueError("cannot set an SNR on an all-zero signal")
    sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0))
    rng = np.random.default_rng(seed)
    return y_clean + sigma * rng.standard_normal(y_clean.shape), sigma


def save_scenario(scenario, out_dir):
    """Write a scenario's matrices as ``sources.csv``, ``mixing.csv`` and
    ``mixtures.csv``.

    Matrices use 12 significant digits, so saving the same scenario twice is
    byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "sources.csv", scenario.s_true, delimiter=",", fmt="%.12g")
    np.savetxt(out / "mixing.csv", scenario.h_mix, delimiter=",", fmt="%.12g")
    np.savetxt(out / "mixtures.csv", scenario.y, delimiter=",", fmt="%.12g")


def make_scenario(cfg):
    """Generate sources, mixing matrix, and mixtures from a config.

    Child seeds for sources, mixing, and noise are spawned from the config
    seed, so the scenario is bit-for-bit reproducible.
    """
    seq = np.random.SeedSequence(cfg.seed)
    seed_src, seed_mix, seed_noise = seq.spawn(3)
    rng_src = np.random.default_rng(seed_src)

    if cfg.source_mode == "copula_t":
        def draw(k):
            return _copula_t_uniforms(cfg.r, k, cfg.rho, cfg.dof, rng_src)
    else:
        def draw(k):
            return rng_src.random((cfg.r, k))

    s_true = _sources_in_polytope(draw(cfg.n), cfg.polytope, mode=cfg.l1_mode, draw=draw)
    h_mix = _mixing_matrix(cfg.m, cfg.r, seed_mix)
    y_clean = h_mix @ s_true
    y, sigma = _add_noise(y_clean, cfg.snr_db, seed_noise)
    if not contains(cfg.polytope, s_true, tol=1e-9):
        raise RuntimeError("generated sources violate the polytope")
    return Scenario(s_true, h_mix, y, sigma)
