"""Infomax ICA baseline for the separation comparisons.

Batch natural-gradient infomax with a fixed sub-Gaussian source model
(extended infomax with every sign ``K = -I``), the right choice for bounded
sources: the unmixing matrix evolves as
``W += lr * (I + tanh(u) u^T/N - W W^T) W`` on whitened data, where
``W W^T = u u^T/N``. The learning rate is halved whenever the model
log-likelihood oscillates downward.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .stats import _center, _covariance

__all__ = [
    "IcaConfig",
    "IcaDivergenceError",
    "affine_match_to_reference",
    "ica_separate",
]


@dataclass(frozen=True)
class IcaConfig:
    """Infomax settings.

    ``learning_rate`` applies to full-batch sweeps; 0.1 corresponds to the
    usual per-block rates (around 1e-3) once the tens of block updates per
    data pass are folded into one batch step. ``seed`` is carried for
    harness bookkeeping; the batch iteration itself is deterministic from
    the identity start.
    """

    learning_rate: float = 0.1
    max_iter: int = 500
    tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


class IcaDivergenceError(RuntimeError):
    """Unmixing matrix became non-finite or blew up."""


def _whiten(y, r):
    """PCA-whiten the mixtures down to ``r`` components.

    Returns ``(z, w_white)`` with ``z = w_white @ (y - mean)`` an (r, N)
    matrix whose biased sample covariance is the identity, and ``w_white``
    the (r, M) whitening map built from the top-r principal components.

    Raises
    ------
    ValueError
        If ``y`` is not an (M, N) matrix with N >= 2 or ``r`` is not in
        ``[1, M]``.
    numpy.linalg.LinAlgError
        If the centered mixtures have rank below ``r`` (a ``ValueError``
        subclass).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError("mixtures must be an (M, N) matrix with N >= 2")
    if r < 1 or r > y.shape[0]:
        raise ValueError(f"r must be in [1, M={y.shape[0]}], got r={r}")
    yc = _center(y)
    w, v = np.linalg.eigh(_covariance(yc))
    order = np.argsort(w)[::-1][:r]
    w = w[order]
    if w[-1] <= max(w[0], 0.0) * 1e-12 or w[-1] <= 0.0:
        raise np.linalg.LinAlgError(f"mixtures have rank below {r}; cannot whiten")
    w_white = (v[:, order] / np.sqrt(w)).T
    return w_white @ yc, w_white


def _ica_infomax(z, cfg):
    """Natural-gradient infomax unmixing of whitened data.

    ``z`` must be whitened as :func:`_whiten` returns it: zero-mean rows with
    ``z zᵀ/N = I``. The loop relies on that identity: with ``u = W z``,
    ``u uᵀ/N = W Wᵀ`` and the quadratic term of the log-likelihood is
    ``½‖W‖²_F``, so neither takes a pass over the samples.

    Iterates ``W += lr * (I + tanh(u) u^T/N - W W^T) W`` until the Frobenius
    weight change drops below ``cfg.tol`` or ``cfg.max_iter`` sweeps elapse.
    The source model sets its own output scale (its equilibrium variance is
    not 1), so the returned (r, r) unmixing matrix is row-normalized to give
    unit-variance outputs on ``z``.
    """
    z = np.asarray(z, dtype=float)
    r, n = z.shape
    w = np.eye(r)
    lr = cfg.learning_rate
    min_lr = cfg.learning_rate / 1024.0
    eye = np.eye(r)
    prev_loglik = -math.inf
    u, tu, work = np.empty((r, n)), np.empty((r, n)), np.empty((2, r, n))

    for _ in range(cfg.max_iter):
        np.matmul(w, z, out=u)
        np.tanh(u, out=tu)
        natural_grad = eye + tu @ u.T / n - w @ w.T
        loglik = _model_loglik(w, u, work)
        if loglik < prev_loglik and lr > min_lr:
            lr *= 0.5
        prev_loglik = loglik
        delta = lr * natural_grad @ w
        w_new = w + delta
        if not np.all(np.isfinite(w_new)) or np.abs(w_new).max() > 1e8:
            raise IcaDivergenceError(
                f"unmixing matrix diverged (lr={lr:g}); reduce the learning rate"
            )
        w = w_new
        if np.linalg.norm(delta) < cfg.tol:
            break
    u = w @ z
    out_std = u.std(axis=1)
    return w / np.maximum(out_std, np.finfo(float).tiny)[:, None]


def _model_loglik(w, u, work):
    """Log-likelihood of the sub-Gaussian source model (up to constants).

    ``u = W z`` for whitened ``z``; ``work`` is a (2, r, N) scratch buffer.
    """
    sign, logdet = np.linalg.slogdet(w)
    if sign <= 0 and logdet == -math.inf:
        return -math.inf
    # log cosh(u) = |u| + log1p(exp(-2|u|)) - log 2, overflow-safe
    au, logcosh = np.abs(u, out=work[0]), work[1]
    np.multiply(au, -2.0, out=logcosh)
    np.exp(logcosh, out=logcosh)
    np.log1p(logcosh, out=logcosh)
    logcosh += au
    return float(
        logdet + np.sum(logcosh.mean(axis=1) - math.log(2.0)) - 0.5 * np.sum(w * w)
    )


def ica_separate(y, r, cfg):
    """Whiten, unmix, and return the (r, N) source estimate.

    The estimate is ``W @ W_white @ (y - mean)``: zero-mean rows with
    approximately unit variance, recovered up to permutation, sign, and
    scale.
    """
    y = np.asarray(y, dtype=float)
    z, _ = _whiten(y, r)
    return _ica_infomax(z, cfg) @ z


def affine_match_to_reference(s_est, s_ref):
    """Resolve the per-row affine indeterminacy against a reference.

    ICA recovers bounded sources only up to per-row scale, sign, and offset.
    Each estimated row is matched to a reference row by absolute correlation
    and replaced with its least-squares affine fit; what remains after the
    fit is genuine interference plus noise, which makes unit-variance ICA
    outputs comparable with polytope-scale references under metrics that
    resolve only permutation and sign. Row order is left untouched.
    """
    s_est = np.asarray(s_est, dtype=float)
    s_ref = np.asarray(s_ref, dtype=float)
    ec = s_est - s_est.mean(axis=1, keepdims=True)
    tc = s_ref - s_ref.mean(axis=1, keepdims=True)
    inner = ec @ tc.T
    e_sq = np.maximum(np.sum(ec * ec, axis=1), np.finfo(float).tiny)
    t_sq = np.maximum(np.sum(tc * tc, axis=1), np.finfo(float).tiny)
    corr = np.abs(inner) / np.sqrt(np.outer(e_sq, t_sq))
    rows, cols = linear_sum_assignment(-corr)
    scale = inner[rows, cols] / e_sq[rows]
    offset = s_ref[cols].mean(axis=1)
    return scale[:, None] * ec + offset[:, None]
