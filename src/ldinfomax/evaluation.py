"""Ground-truth-aligned evaluation of source estimates.

Separation quality is only defined up to a row permutation and per-row sign
flips, so every metric first resolves that ambiguity: the assignment that
minimizes the mean square error is found with the Hungarian method on
absolute row inner products (exactly equivalent to minimizing the MSE over
all permutation/sign combinations), after which MSE and SINR are computed
against the aligned ground truth.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "Alignment",
    "EvaluationReport",
    "aggregate",
    "best_alignment",
    "evaluate",
    "mse",
    "sinr_db",
]


@dataclass(frozen=True)
class Alignment:
    """Row matching between an estimate and the ground truth.

    ``perm[i]`` is the ground-truth row assigned to estimated row ``i``;
    ``signs[i]`` is the +-1 orientation applied to that ground-truth row.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        signs = tuple(int(s) for s in self.signs)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"perm is not a permutation: {perm}")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be +-1: {signs}")
        if len(signs) != len(perm):
            raise ValueError("perm and signs must have equal length")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    def apply(self, s_true):
        """Return the permuted, sign-flipped ground truth matching the estimate."""
        s_true = np.asarray(s_true, dtype=float)
        return np.asarray(self.signs, dtype=float)[:, None] * s_true[list(self.perm)]


@dataclass(frozen=True)
class EvaluationReport:
    mse: float
    sinr_db: float
    alignment: Alignment
    per_source_corr: np.ndarray


def _check_pair(s_est, s_true):
    s_est = np.asarray(s_est, dtype=float)
    s_true = np.asarray(s_true, dtype=float)
    if s_est.shape != s_true.shape:
        raise ValueError(f"shape mismatch: {s_est.shape} vs {s_true.shape}")
    if s_est.ndim != 2:
        raise ValueError("expected 2-D matrices")
    return s_est, s_true


def best_alignment(s_est, s_true):
    """MSE-optimal permutation and signs matching estimate rows to truth rows.

    The assignment maximizes the total absolute inner product between matched
    rows, which coincides with minimizing ``(1/N) ||s_est - D P s_true||_F^2``
    over all permutations P and +-1 diagonal D. Signs are read off from the
    matched inner products.
    """
    s_est, s_true = _check_pair(s_est, s_true)
    est_norms = np.linalg.norm(s_est, axis=1)
    true_norms = np.linalg.norm(s_true, axis=1)
    if np.any(est_norms == 0) or np.any(true_norms == 0):
        raise ValueError("zero-norm row; alignment is undefined")
    return _alignment_unchecked(s_est, s_true)


def _alignment_unchecked(s_est, s_true):
    """Hungarian alignment without the degeneracy guard.

    Zero-norm estimate rows contribute zero profit everywhere; the resulting
    arbitrary match still charges the full power of the assigned truth row,
    which is exactly the MSE-optimal treatment of a dead estimate.
    """
    inner = s_est @ s_true.T
    _, cols = linear_sum_assignment(-np.abs(inner))
    perm = tuple(int(c) for c in cols)
    matched = inner[np.arange(len(perm)), list(perm)]
    signs = tuple(1 if v >= 0 else -1 for v in matched)
    return Alignment(perm, signs)


def mse(s_est, s_true, alignment):
    """Mean square error per sample against the aligned ground truth."""
    s_est, s_true = _check_pair(s_est, s_true)
    diff = s_est - alignment.apply(s_true)
    return float(np.sum(diff * diff) / s_est.shape[1])


def sinr_db(s_est, s_true):
    """Signal-to-interference-plus-noise ratio in dB.

    Ratio of the average ground-truth power per source per sample,
    ``||s_true||_F^2 / (r N)``, to the alignment-resolved MSE. Perfect
    recovery returns ``inf``.
    """
    s_est, s_true = _check_pair(s_est, s_true)
    return _sinr_from_mse(mse(s_est, s_true, _alignment_unchecked(s_est, s_true)), s_true)


def _sinr_from_mse(err, s_true):
    """SINR in dB of an estimate with aligned error ``err`` against ``s_true``."""
    r, n = s_true.shape
    power = float(np.sum(s_true * s_true)) / (r * n)
    if err == 0.0:
        return float("inf")
    return 10.0 * float(np.log10(power / err))


def evaluate(s_est, s_true):
    """Full report: MSE, SINR, alignment, and per-source correlations."""
    s_est, s_true = _check_pair(s_est, s_true)
    alignment = _alignment_unchecked(s_est, s_true)
    aligned = alignment.apply(s_true)
    err = mse(s_est, s_true, alignment)
    value = _sinr_from_mse(err, s_true)
    dots = np.sum(s_est * aligned, axis=1)
    scale = np.linalg.norm(s_est, axis=1) * np.linalg.norm(aligned, axis=1)
    corr = dots / np.maximum(scale, np.finfo(float).tiny)
    return EvaluationReport(err, value, alignment, corr)


def aggregate(trial_curves):
    """Mean and population standard deviation of SINR curves across trials.

    Parameters
    ----------
    trial_curves : sequence of sequences of (iteration, sinr_db)
        One curve per trial; all curves must share the same iteration grid.

    Returns
    -------
    (grid, mean, std) : three 1-D ndarrays
        Population (1/n) standard deviation; where a trial scored ``inf``
        (exact recovery) it is 0 if every trial agrees, else ``inf``.
    """
    if not trial_curves:
        raise ValueError("no trial curves to aggregate")
    grids = [np.asarray([p[0] for p in c], dtype=int) for c in trial_curves]
    for g in grids[1:]:
        if not np.array_equal(g, grids[0]):
            raise ValueError("trial curves have mismatched iteration grids")
    values = np.array([[p[1] for p in c] for c in trial_curves], dtype=float)
    return grids[0], values.mean(axis=0), _population_std(values)


def _population_std(values):
    """Population (1/n) standard deviation over trials (axis 0) of SINRs.

    Where a trial scored ``inf`` (exact recovery) the std is 0 if every trial
    agrees, else ``inf``; never ``nan``.
    """
    inf = np.isinf(values).any(axis=0)
    finite_std = np.where(inf, 0.0, values).std(axis=0)
    inf_std = np.where(np.all(values == values[0], axis=0), 0.0, np.inf)
    return np.where(inf, inf_std, finite_std)
