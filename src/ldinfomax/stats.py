"""Sample statistics and log-determinant information measures.

Second-order building blocks for the separation objective: biased sample
covariances, regularized log-determinants computed through Cholesky
factorizations, the log-determinant (LD) entropy of a covariance matrix,
the error covariance of the best regularized linear predictor, and the
LD-mutual information between two sample sets.

The public functions validate their inputs and then call a small private
kernel (centering, covariance, shifted Cholesky, half-logdet, conditional
error covariance). The solver calls that kernel directly, without the
validation, so its objective is :func:`ld_mutual_information` bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

__all__ = [
    "CovarianceBundle",
    "LOG_2PI_E",
    "conditional_error_covariance",
    "cross_covariance",
    "ld_entropy",
    "ld_mutual_information",
    "logdet_regularized",
    "sample_covariance",
]

LOG_2PI_E = float(np.log(2.0 * np.pi * np.e))

_SYMMETRY_RTOL = 1e-12


def _as_samples(x, name="x"):
    """Validate a channels-by-samples matrix and return it as float ndarray."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D (channels x samples), got ndim={x.ndim}")
    if x.shape[1] < 2:
        raise ValueError(f"{name} needs at least 2 samples, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _symmetrize(a):
    return 0.5 * (a + a.T)


def _check_symmetric(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > _SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")
    return a


def _check_epsilon(epsilon):
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")


# ---------------------------------------------------------------------------
# unvalidated kernel, shared with the solver's per-iteration statistics


def _center(x):
    """Subtract each row's mean."""
    return x - x.mean(axis=1, keepdims=True)


def _cross(ac, bc):
    """Biased cross covariance of row-centered samples."""
    return ac @ bc.T / ac.shape[1]


def _covariance(xc):
    """Symmetrized biased covariance of row-centered samples."""
    return _symmetrize(_cross(xc, xc))


def _cholesky(a, epsilon, name):
    """Lower Cholesky factor (scipy ``cho_factor`` pair) of symmetric ``a + epsilon*I``.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the shifted matrix is not positive definite. A non-PD shifted
        matrix signals an invalid numerical state rather than a -inf value.
    """
    try:
        return cho_factor(a + epsilon * np.eye(a.shape[0]), lower=True)
    except LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{name} + {epsilon}*I is not positive definite: {exc}"
        ) from exc


def _half_logdet(cho):
    """``0.5 * log det`` of the matrix whose Cholesky pair is ``cho``."""
    return float(np.sum(np.log(np.diag(cho[0]))))


def _error_covariance(r_s, r_sy, cho_y):
    """``r_s - r_sy (r_y + eps*I)^{-1} r_syᵀ``, symmetrized, from the factor of ``r_y``."""
    return _symmetrize(r_s - r_sy @ cho_solve(cho_y, r_sy.T))


# ---------------------------------------------------------------------------
# validated public measures


def _as_pair(s, y):
    s = _as_samples(s, "s")
    y = _as_samples(y, "y")
    if s.shape[1] != y.shape[1]:
        raise ValueError(
            f"sample counts differ: s has {s.shape[1]}, y has {y.shape[1]}"
        )
    return s, y


def sample_covariance(x):
    """Biased (1/N) sample covariance of the columns of ``x``.

    Parameters
    ----------
    x : ndarray, shape (r, N)
        Sample matrix, one channel per row, one observation per column.

    Returns
    -------
    ndarray, shape (r, r)
        Symmetrized sample covariance ``X Xᵀ/N - (X 1)(X 1)ᵀ/N²``.
    """
    return _covariance(_center(_as_samples(x)))


def cross_covariance(s, y):
    """Biased (1/N) cross covariance between the columns of ``s`` and ``y``.

    Both inputs must have the same number of columns. ``cross_covariance(x, x)``
    equals ``sample_covariance(x)``.
    """
    s, y = _as_pair(s, y)
    return _cross(_center(s), _center(y))


def logdet_regularized(cov, epsilon):
    """log det(cov + epsilon*I) via Cholesky of the symmetrized argument.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``cov + epsilon*I`` is not positive definite.
    """
    cov = _check_symmetric(cov, "cov")
    _check_epsilon(epsilon)
    return 2.0 * _half_logdet(_cholesky(_symmetrize(cov), epsilon, "cov"))


def ld_entropy(cov, epsilon):
    """Log-determinant entropy of a covariance matrix.

    ``0.5 * logdet(cov + epsilon*I) + (r/2) * log(2*pi*e)`` where ``r`` is the
    matrix dimension. ``epsilon`` keeps the value finite for singular
    covariances.
    """
    r = np.asarray(cov).shape[0]
    return 0.5 * logdet_regularized(cov, epsilon) + 0.5 * r * LOG_2PI_E


@dataclass(frozen=True)
class CovarianceBundle:
    """Covariance statistics shared by the conditional-entropy computations.

    Attributes
    ----------
    r_s : ndarray, shape (r, r)
        Covariance of the conditioned block.
    r_y : ndarray, shape (M, M)
        Covariance of the conditioning block.
    r_sy : ndarray, shape (r, M)
        Cross covariance between the blocks.
    epsilon : float
        Positive regularization added to the diagonal before inversion.
    """

    r_s: np.ndarray
    r_y: np.ndarray
    r_sy: np.ndarray
    epsilon: float

    def __post_init__(self):
        r_s = _check_symmetric(self.r_s, "r_s")
        r_y = _check_symmetric(self.r_y, "r_y")
        r_sy = np.asarray(self.r_sy, dtype=float)
        if r_sy.shape != (r_s.shape[0], r_y.shape[0]):
            raise ValueError(
                f"r_sy must have shape {(r_s.shape[0], r_y.shape[0])}, got {r_sy.shape}"
            )
        _check_epsilon(self.epsilon)
        for name, mat in (("r_s", r_s), ("r_y", r_y)):
            w = np.linalg.eigvalsh(_symmetrize(mat))
            if w[0] < -1e-10 * max(1.0, abs(w[-1])):
                raise ValueError(f"{name} is not positive semidefinite (min eig {w[0]})")
        object.__setattr__(self, "r_s", r_s)
        object.__setattr__(self, "r_y", r_y)
        object.__setattr__(self, "r_sy", r_sy)


def conditional_error_covariance(bundle):
    """Error covariance of the best ridge-regularized linear predictor.

    Returns the symmetrized ``r_s - r_sy (r_y + eps*I)^{-1} r_syᵀ``, the
    covariance left in the first block after linearly estimating it from the
    second. The result plus ``eps*I`` is positive definite for any PSD bundle.
    """
    cho_y = _cholesky(_symmetrize(bundle.r_y), bundle.epsilon, "r_y")
    return _error_covariance(bundle.r_s, bundle.r_sy, cho_y)


def ld_mutual_information(s, y, epsilon):
    """LD-mutual information between two sample sets sharing a time axis.

    ``0.5*logdet(R_s + eps*I) - 0.5*logdet(R_e + eps*I)`` with ``R_e`` the
    conditional error covariance of ``s`` given ``y``. Nonnegative, and zero
    exactly when the sample cross covariance vanishes.

    Parameters
    ----------
    s : ndarray, shape (r, N)
    y : ndarray, shape (M, N)
    epsilon : float
        Positive regularizer applied to every log-determinant.
    """
    s, y = _as_pair(s, y)
    _check_epsilon(epsilon)
    sc, yc = _center(s), _center(y)
    r_s = _covariance(sc)
    cho_y = _cholesky(_covariance(yc), epsilon, "R_y")
    r_e = _error_covariance(r_s, _cross(sc, yc), cho_y)
    half_s = _half_logdet(_cholesky(r_s, epsilon, "R_s"))
    return half_s - _half_logdet(_cholesky(r_e, epsilon, "R_e"))
