"""Synthetic scenario generation: correlated sources in a polytope, random
Gaussian mixing, and SNR-controlled additive noise.

Sources are built from dependent uniforms drawn through a t-copula with an
equicorrelation generator matrix, mapped into the target polytope either by
rejection (preserves the dependence structure inside the polytope) or by
group-wise rescaling. Everything is reproducible from a single seed through
numpy's PCG64 generator and spawned child sequences.

Rejection of copula draws evaluates the t CDF only on columns that can be
kept. A cached table of the CDF at the edges of a grid in x = t / (1 + |t|)
bounds each source coordinate's magnitude from below; a column is dropped
unevaluated only when some l1 group's bounds sum past 1 + 1e-9, and every
other column is mapped and tested exactly as before. The bounds stay below
the computed magnitudes (the tests allow 1e-12 above, far inside the 1e-9
margin), so the kept columns, and every scenario byte, are those of
evaluating every entry. Each drawn block is bounded, mapped and tested in
column chunks sized by ``stats.CACHE_BYTES``: set-up holds one block and
chunk-sized temporaries, a traced 10.5 MB for the N=20,000 signed-l1 scenario.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from .polytopes import PolytopeSpec, _column_sums, _read_only, contains, preset

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "make_scenario",
    "save_scenario",
]

REJECTION_MIN_RATE = 1e-4
REJECTION_PROBE = 20000
# the bound table's cells over x = t / (1 + |t|) in [-1, 1], and how far a
# group's bounds must sum past 1 before its column is dropped unevaluated
_GRID_CELLS = 4096
_BOUND_SLACK = 1e-9
# columns per draw at most: the cap and the factor 1.2 on the expected need fix
# the RNG stream, and with it every scenario byte
_DRAW_CAP = 200_000


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


def _copula_t(r, n, rho, dof, seed):
    """Multivariate-t samples of the t-copula, an (r, n) array.

    They are correlated Gaussians divided by ``sqrt(chi2_dof / dof)``; the
    univariate t CDF, ``stdtr(dof, t)``, maps them to uniform marginals whose
    dependence is controlled by ``rho``. The Cholesky product fills the
    normals' own buffer chunk by chunk and the division is in place.

    ``seed`` may be an integer or a ``numpy.random.Generator``.
    """
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(_toeplitz_correlation(r, rho))
    z = rng.standard_normal((r, n))
    # chunks of two or more columns: numpy hands a one-column product to
    # BLAS's matrix-vector kernel, which rounds otherwise than the whole block's
    for cols in np.array_split(z, max(1, n // max(2, _chunk_columns(r))), axis=1):
        cols[...] = chol @ cols
    w = rng.chisquare(dof, size=n)
    z /= np.sqrt(np.divide(w, dof, out=w), out=w)
    return z


@lru_cache(maxsize=16)
def _bound_tables(dof):
    """Lower bounds per grid cell on a copula source coordinate's magnitude:
    ``u = stdtr(dof, t)`` on a nonneg coordinate and ``|2u - 1|`` on a signed
    one, for the entries whose x = t / (1 + |t|) lies in the cell.

    Cell j is [x_j, x_(j+1)) with x_j = -1 + 2j / _GRID_CELLS (the last index
    is x = 1 alone). Each reads the CDF one edge beyond its own, towards smaller
    magnitudes, so an entry whose x rounds into the cell above is still
    bounded from below. The tables are cached per dof and read-only.
    """
    half = _GRID_CELLS // 2
    x = np.linspace(-1.0, 1.0, _GRID_CELLS + 1)
    with np.errstate(divide="ignore"):
        u = stdtr(dof, x / (1.0 - np.abs(x)))  # t = -inf and inf at the ends
    nonneg = np.concatenate(([0.0], u[:-1]))
    signed = np.zeros(_GRID_CELLS + 1)
    signed[half + 1:] = 2.0 * u[half:-1] - 1.0  # t >= 0: |s| grows with t
    signed[:half - 1] = 1.0 - 2.0 * u[2:half + 1]  # t < 0: |s| falls with t
    return _read_only(nonneg), _read_only(signed)


def _magnitude_bounds(t, lower, dof):
    """Lower bounds on ``|s|`` for copula samples ``t`` mapped onto the box
    with per-coordinate lower bounds ``lower`` (-1 signed, 0 nonneg)."""
    nonneg, signed = _bound_tables(dof)
    x = np.abs(t)
    x += 1.0
    np.divide(t, x, out=x)
    x *= _GRID_CELLS / 2
    x += _GRID_CELLS / 2
    cells = x.astype(np.intp)
    bounds = np.empty(t.shape)
    # clip: an infinite t gives x = nan, whose cast lands outside the table
    for i, lo in enumerate(lower):
        np.take(signed if lo < 0 else nonneg, cells[i], out=bounds[i], mode="clip")
    return bounds


def _sources_in_polytope(block, p, mode, draw, dof=None):
    """Map a block of draws into the polytope.

    The draws are uniforms in [0, 1]^r or, with ``dof``, copula samples
    ``t`` whose uniforms are ``stdtr(dof, t)``. Nonnegative coordinates keep
    their uniform value; signed coordinates are mapped to ``2u - 1``. Group
    l1 constraints are then enforced per column:

    - ``mode="reject"``: violating columns are discarded and replaced with
      fresh draws from ``draw(k)`` (a callable returning an (r, k) block
      like ``block``) until the original column count is reached, each
      block in column chunks (:func:`_kept_columns`). Copula columns that a
      group's magnitude bounds (:func:`_magnitude_bounds`) put past 1 + 1e-9
      are discarded without evaluating the CDF; the rest get the CDF and the
      exact test, with group sums added in row order as a whole block's
      ``sum(axis=0)`` adds them, so no chunk width changes a bit.
    - ``mode="scale"``: each violating group sub-vector is divided by its
      group l1 norm times (1 + 1e-9), which restores feasibility exactly.

    Raises
    ------
    RuntimeError
        When rejection acceptance falls below 1e-4 (use "scale" instead).
    """
    n_target = block.shape[1]
    groups = [list(g) for g in p.l1_groups]

    if mode == "scale" or not groups:
        s = _map_box(block if dof is None else stdtr(dof, block), p)
        for g in groups:  # none unless mode == "scale"
            norms = np.abs(s[g]).sum(axis=0)
            viol = norms > 1.0
            if np.any(viol):
                s[np.ix_(g, np.flatnonzero(viol))] /= norms[viol] * (1.0 + 1e-9)
        return s

    width = _chunk_columns(block.shape[0])
    accepted = []
    n_have = 0
    n_drawn = 0
    while True:
        for a in range(0, block.shape[1], width):
            accepted.append(_kept_columns(block[:, a:a + width], p, groups, dof))
            n_have += accepted[-1].shape[1]
        n_drawn += block.shape[1]
        if n_have >= n_target:
            break
        if n_drawn >= REJECTION_PROBE and n_have < REJECTION_MIN_RATE * n_drawn:
            raise RuntimeError(
                f"rejection acceptance rate {n_have / n_drawn:.2e} below "
                f"{REJECTION_MIN_RATE}; use mode='scale' for this polytope"
            )
        deficit = n_target - n_have
        rate = max(n_have / n_drawn, REJECTION_MIN_RATE)
        del block  # so that the next draw is the only block alive
        block = draw(min(int(deficit / rate * 1.2) + 1, _DRAW_CAP))
    return np.hstack(accepted)[:, :n_target]


def _chunk_columns(r):
    """Columns per chunk of an (r, k) block of draws: the four (r, width)
    arrays a chunk holds at most fit :data:`stats.CACHE_BYTES` (read per call)."""
    from . import stats  # here: loading it amid datagen's import adds 0.1 MB to peak RSS
    return max(1, stats.CACHE_BYTES // (32 * r))


def _kept_columns(t, p, groups, dof):
    """The columns of one chunk of draws that land in the polytope, mapped:
    magnitude bounds, the CDF on the columns they keep, the box map and the
    exact group test, in that order."""
    if dof is not None:
        ok = _within_groups(_magnitude_bounds(t, p.lower, dof), groups, 1.0 + _BOUND_SLACK)
        t = stdtr(dof, t[:, ok])
    s = _map_box(t, p)
    return s[:, _within_groups(np.abs(s), groups, 1.0)]


def _within_groups(x, groups, limit):
    """Columns of ``x`` whose sum over every group is at most ``limit``, the
    rows added in row order, as a whole block's ``sum(axis=0)`` adds them."""
    ok = np.ones(x.shape[1], dtype=bool)
    for g in groups:
        ok &= _column_sums(x, rows=g) <= limit
    return ok


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

    dof = cfg.dof if cfg.source_mode == "copula_t" else None

    def draw(k):
        if dof is None:
            return rng_src.random((cfg.r, k))
        return _copula_t(cfg.r, k, cfg.rho, dof, rng_src)

    s_true = _sources_in_polytope(draw(cfg.n), cfg.polytope, cfg.l1_mode, draw, dof)
    h_mix = _mixing_matrix(cfg.m, cfg.r, seed_mix)
    y_clean = h_mix @ s_true
    y, sigma = _add_noise(y_clean, cfg.snr_db, seed_noise)
    if not contains(cfg.polytope, s_true):
        raise RuntimeError("generated sources violate the polytope")
    return Scenario(s_true, h_mix, y, sigma)
