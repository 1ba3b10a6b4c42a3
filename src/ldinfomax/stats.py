"""Sample statistics and log-determinant information measures.

Second-order building blocks for the separation objective: biased sample
covariances, regularized log-determinants computed through Cholesky
factorizations, the log-determinant (LD) entropy of a covariance matrix,
the error covariance of the best regularized linear predictor, and the
LD-mutual information between two sample sets.

The public functions validate their inputs, center the sources once and
then load them into a private kernel of one trial, :class:`_Kernel`, built
around one buffer of sources, whitened mixtures and a row of ones. The
solver builds one kernel over its stack of trials and keeps its uncentered
iterate in the kernel's source rows, where each projection writes it and
the statistics read it, without the validation or the centering: the kernel's
``S Sᵀ/N - m mᵀ`` loses digits only as the row means grow against the
spread, which the polytope bounds for the iterate, so the solver's
objective agrees with :func:`ld_mutual_information` to rounding. The
kernel's two products over the samples run on column blocks of that
buffer sized by :data:`CACHE_BYTES`, so a large N streams through the cache.
"""

import itertools
import math

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "conditional_error_covariance",
    "ld_entropy",
    "ld_mutual_information",
    "logdet_regularized",
    "sample_covariance",
]

_LOG_2PI_E = float(np.log(2.0 * np.pi * np.e))

_SYMMETRY_RTOL = 1e-12

# the working-set budget of one buffer over the samples: the kernel cuts the
# (r+M+1)-row buffer of one trial into the fewest equal column blocks that each
# fit it (one block at r=5, M=8, N=2,000, two at N=20,000), the CLI stacks at
# most as many trials as fit it with the solver's step and weighted-sum buffers,
# 3r+M+1 rows a trial (5 at r=5, M=8, N=2,000), and datagen's rejection sampler
# tests each block of draws in chunks whose four r-row temporaries fit it
CACHE_BYTES = 2 * 1024 * 1024


def _as_samples(x, name="x", min_samples=2):
    """Validate a channels-by-samples matrix of finite entries and return it
    as float ndarray; a covariance needs the default two samples."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D (channels x samples), got ndim={x.ndim}")
    if x.shape[1] < min_samples:
        raise ValueError(f"{name} must have at least {min_samples} samples, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contain non-finite entries")
    return x


def _trial_bytes(r, m, n):
    """Bytes of one trial's stacked buffer ``z = [S ; W ; 1]``: r+M+1 rows of N float64."""
    return (r + m + 1) * n * 8


def _solve_bytes(r, m, n):
    """Bytes one trial's solve iterates over: ``z`` plus the solver's r-row step
    and weighted-sum buffers, 3r+M+1 rows of N float64."""
    return (3 * r + m + 1) * n * 8


def _symmetrize(a, out=None):
    """``0.5 * (a + aᵀ)`` of each matrix of ``a``, written into ``out`` when given."""
    out = np.add(a, a.mT, out=out)
    out *= 0.5
    return out


def _check_symmetric(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > _SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")
    return a


def _check_epsilon(epsilon):
    if not (0 < epsilon < math.inf):  # NaN fails it too
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


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


def _cholesky(a, epsilon, names):
    """Lower Cholesky factor of symmetric ``a + epsilon*I``, or of each of a stack."""
    return _factor(a + epsilon * np.eye(a.shape[-1]), epsilon, names)


def _factor(shifted, epsilon, names):
    """Lower Cholesky factor of each matrix of ``shifted``, which holds ``a + epsilon*I``.

    The matrices of a stack take their names from ``names`` in turn, so a
    ``(T, 2, r, r)`` stack of pairs is named by a pair of names.

    Raises
    ------
    numpy.linalg.LinAlgError
        Naming the first shifted matrix (of ``names``) that is not positive
        definite, an invalid numerical state rather than a -inf value.
    """
    try:
        return np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        if shifted.ndim > 2:  # the stack fails as a whole; name its first failing matrix
            for one, name in zip(shifted.reshape(-1, *shifted.shape[-2:]), itertools.cycle(names)):
                _factor(one, epsilon, name)
        msg = f"{names} + {epsilon}*I is not positive definite: {exc}"
        raise np.linalg.LinAlgError(msg) from exc


def _half_logdet(chol):
    """``0.5 * log det`` of each matrix whose lower Cholesky factor is in ``chol``."""
    return np.add.reduce(np.log(chol.diagonal(0, -2, -1)), axis=-1)


class _Kernel:
    """The LD statistics of a stack of T >= 1 trials over one buffer ``[S ; W ; 1]``.

    The buffer is coordinate-major, (r+M+1, T, N), and ``z`` views it trial by
    trial as (T, r+M+1, N): per trial ``W = L⁻¹Y_c`` whitens the centered
    mixtures by the lower Cholesky factor ``L`` of ``R_y + eps*I``, so that
    ``R_sy (R_y + eps*I)^{-1} Y_c = (S Wᵀ/N) W``; the sources ``S`` sit in the
    first r rows uncentered, and a last row of ones carries their means. The
    trials' mixtures ``ys`` share one (M, N) shape and ``epsilon``. ``s`` is
    the sources' rows, (r, T, N), one contiguous block that the solver keeps
    its iterate in and projects into as (r, T·N) columns; ``top`` views them
    as (T, r, N). ``blocks`` cuts the N columns into the fewest equal slices
    whose (r+M+1)-row block of one trial fits :data:`CACHE_BYTES`, and
    ``parts`` holds per block its slice and its columns of ``top`` and of
    ``z``. The workspace is built once too, so that an iteration slices and
    allocates no buffer over the samples: ``eye = I``, ``shift = eps*I``, the
    (T, r, r+M+1) ``gram`` of the statistics product with its views
    ``S Sᵀ/N``, ``Q = [R_sy L⁻ᵀ | m]``, ``r_sw = R_sy L⁻ᵀ`` and the means
    ``m``, the (T, 2, r, r) ``pair`` with its views ``r_s`` and ``r_e``, and
    the gradient's (T, r, r+M+1) map ``c`` with its three column blocks.

    :meth:`load` puts sources into ``z`` and returns the objective of each
    trial; :meth:`gradient` reads the state the last :meth:`load` left. Every
    product and factorization runs per trial, so each trial's values are the
    ones it gives alone.
    """

    def __init__(self, ys, epsilon, r):
        ys = [_as_samples(y, "mixtures") for y in ys]
        (m, self.n), trials = ys[0].shape, len(ys)
        self.epsilon = float(epsilon)
        buffer = np.empty((r + m + 1, trials, self.n))
        self.s = buffer[:r]
        self.z = buffer.swapaxes(0, 1)
        for z, y in zip(self.z, ys):
            yc = _center(y)
            z[r:-1] = solve_triangular(_cholesky(_covariance(yc), epsilon, "R_y"), yc, lower=True)
        buffer[-1] = 1.0
        fit = max(1, CACHE_BYTES // _trial_bytes(r, m, 1))  # columns per budget
        size = math.ceil(self.n / math.ceil(self.n / fit))
        self.blocks = [slice(i, min(i + size, self.n)) for i in range(0, self.n, size)]
        self.top = self.z[:, :r]
        self.parts = [(cols, self.top[..., cols], self.z[..., cols]) for cols in self.blocks]
        self.eye = np.eye(r)
        self.shift = self.epsilon * self.eye
        self.gram = np.empty((trials, r, r + m + 1))
        self.sst, q = self.gram[..., :r], self.gram[..., r:]
        self.q, self.r_sw, self.m = q, q[..., :-1], q[..., -1:]
        self.pair = np.empty((trials, 2, r, r))
        self.r_s, self.r_e = self.pair[:, 0], self.pair[:, 1]
        self.c = np.empty_like(self.gram)
        self.c_parts = self.c[..., :r], self.c[..., r:-1], self.c[..., -1:]

    def fill(self, s):
        """Write ``R_s`` and ``R_e`` of sources ``s``, (T, r, N) or a trial's (r, N), into ``pair``.

        ``s`` is copied into ``top`` unless it is ``top`` itself, where the
        solver keeps its iterate. One product gives ``[S Sᵀ/N | Q]`` with
        ``Q = [R_sy L⁻ᵀ | m]``: every row of ``W`` has zero mean, so ``S Wᵀ/N``
        needs no centered ``S``. Then ``R_s = S Sᵀ/N - m mᵀ`` and
        ``R_e = S Sᵀ/N - Q Qᵀ = R_s - R_sy (R_y + eps*I)^{-1} R_syᵀ``, both
        symmetric (``S Sᵀ/N`` is symmetrized, and numpy forms ``Q Qᵀ`` and
        ``m mᵀ`` symmetric). The subtraction of ``m mᵀ`` cancels digits as the
        means grow against the spread, which the polytope's bounds keep small
        for the solver's iterate; the public measures center ``s`` first. With
        several column blocks the products of the blocks are summed in order
        into ``gram``.
        """
        if s is not self.top:
            np.copyto(self.top, s)
        (_, top, z), *rest = self.parts
        gram = np.matmul(top, z.mT, out=self.gram)
        for _, top, z in rest:
            gram += top @ z.mT
        gram /= self.n
        _symmetrize(self.sst, out=self.r_s)
        np.subtract(self.r_s, self.q @ self.q.mT, out=self.r_e)
        self.r_s -= self.m * self.m.mT

    def load(self, s):
        """The LD-mutual information of each trial's sources ``s`` and mixtures, a (T,) array.

        ``s`` goes into ``z`` as it is: the solver passes ``top``, which holds
        its iterate, the public measures their centered samples. :meth:`fill`
        fills ``pair``, which is shifted in place, and one batched Cholesky
        factors it.
        """
        self.fill(s)
        shifted = np.add(self.pair, self.shift, out=self.pair)
        half = _half_logdet(_factor(shifted, self.epsilon, ("R_s", "R_e")))
        return half[:, 0] - half[:, 1]

    def gradient(self, scale, out=None, step=False):
        """``scale`` times the gradient at the last loaded sources, (T, r, N).

        The gradient is the r x (r+M+1) map ``C`` applied to ``z``:
        ``C = [A - B | B R_sy L⁻ᵀ | -(A - B) m] / N``, ``A = (R_s+eps I)^{-1}``,
        ``B = (R_e+eps I)^{-1}``, whose inverses come from one batched inverse
        of the shifted ``pair``; the ones row of ``z`` centers ``S``. With
        ``step`` the map is ``C + [I | 0 | 0]``, so the product is the point
        ``s + scale * gradient``. It is written into ``out`` when given, one
        column block at a time.
        """
        c, (c_ab, c_w, c_m) = self.c, self.c_parts
        ab = np.linalg.inv(self.pair)
        a, b = ab[:, 0], ab[:, 1]
        # c is built as [B - A | B R_sy L⁻ᵀ | (B - A) m], whose last column needs
        # B - A as it stands; after the scaling its first block becomes A - B
        b_a = np.subtract(b, a, out=c_ab)
        np.matmul(b, self.r_sw, out=c_w)
        np.matmul(b_a, self.m, out=c_m)
        c *= scale / self.n
        if step:
            np.subtract(self.eye, b_a, out=b_a)
        else:
            np.negative(b_a, out=b_a)
        if out is None:
            out = np.empty((*c.shape[:-1], self.n))
        for cols, _, z in self.parts:
            np.matmul(c, z, out=out[..., cols])
        return out


# ---------------------------------------------------------------------------
# validated public measures


def _measure_inputs(s, y, epsilon):
    """Check the ``(s, y, epsilon)`` of a measure; return ``s`` centered and the kernel of ``y``."""
    s = _as_samples(s, "s")
    y = _as_samples(y, "y")
    if s.shape[1] != y.shape[1]:
        raise ValueError(f"sample counts differ: s has {s.shape[1]}, y has {y.shape[1]}")
    _check_epsilon(epsilon)
    return _center(s), _Kernel([y], epsilon, s.shape[0])


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


def logdet_regularized(cov, epsilon):
    """log det(cov + epsilon*I) via Cholesky of the symmetrized argument.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``cov + epsilon*I`` is not positive definite.
    """
    cov = _check_symmetric(cov, "cov")
    _check_epsilon(epsilon)
    return 2.0 * float(_half_logdet(_cholesky(_symmetrize(cov), epsilon, "cov")))


def ld_entropy(cov, epsilon):
    """Log-determinant entropy of a covariance matrix.

    ``0.5 * logdet(cov + epsilon*I) + (r/2) * log(2*pi*e)`` where ``r`` is the
    matrix dimension. ``epsilon`` keeps the value finite for singular
    covariances.
    """
    r = _check_symmetric(cov, "cov").shape[0]
    return 0.5 * logdet_regularized(cov, epsilon) + 0.5 * r * _LOG_2PI_E


def conditional_error_covariance(s, y, epsilon):
    """Error covariance of the best ridge-regularized linear predictor of ``s`` from ``y``.

    Returns the symmetrized ``R_s - R_sy (R_y + eps*I)^{-1} R_syᵀ`` of the
    biased sample covariances, the covariance left in ``s`` after linearly
    estimating it from ``y``. The result plus ``eps*I`` is positive definite.
    Its sum with ``eps*I`` is, bit for bit, the matrix that
    :func:`ld_mutual_information` factors; both center ``s`` once and then
    run the solver's kernel.

    Parameters
    ----------
    s : ndarray, shape (r, N)
    y : ndarray, shape (M, N)
    epsilon : float
        Positive regularizer added to the diagonal of ``R_y`` before inversion.
    """
    s, kernel = _measure_inputs(s, y, epsilon)
    kernel.fill(s)
    return kernel.pair[0, 1]


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
    s, kernel = _measure_inputs(s, y, epsilon)
    return float(kernel.load(s)[0])
