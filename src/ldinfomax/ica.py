"""Infomax ICA baseline for the separation comparisons.

Batch infomax with a fixed sub-Gaussian source model (extended infomax with
every sign ``K = -I``), the right choice for bounded sources: the unmixing
matrix maximizes ``log|det W| + mean Σ_i (log cosh u_i - u_i²/2)`` with
``u = W z`` on whitened data. A relative quasi-Newton iteration (the H2
Hessian approximation of Picard) with a backtracking line search reaches
that fixed point in tens of iterations. Its stop rule, ``_TOL`` and
``_MAX_ITER``, belongs to the method and is not configurable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import _assignment
from .stats import _as_samples, _center, _covariance

__all__ = [
    "IcaConfig",
    "IcaDivergenceError",
    "affine_match_to_reference",
    "ica_separate",
]

# floor on the smallest eigenvalue of each 2x2 block of the Newton system
_MIN_PAIR_EIGENVALUE = 1e-2
# the stop rule: converged once a step's Frobenius norm is below _TOL, failed after _MAX_ITER
_MAX_ITER = 500
_TOL = 1e-7


@dataclass(frozen=True)
class IcaConfig:
    """Infomax settings: a ``seed`` carried for harness bookkeeping (the
    iteration itself is deterministic from the identity start)."""

    seed: int = 0


class IcaDivergenceError(RuntimeError):
    """Infomax did not converge: ``_MAX_ITER`` iterations ended above
    ``_TOL``, or the unmixing update became non-finite."""


def _whiten(y, r):
    """PCA-whiten the mixtures down to ``r`` components.

    Returns ``(z, w_white)`` with ``z = w_white @ (y - mean)`` an (r, N)
    matrix whose biased sample covariance is the identity, and ``w_white``
    the (r, M) whitening map built from the top-r principal components.

    Raises
    ------
    ValueError
        Naming the mixtures, if ``y`` is not a finite (M, N) matrix with
        N >= 2 or ``r`` is not in ``[1, M]``.
    numpy.linalg.LinAlgError
        If the centered mixtures have rank below ``r`` (a ``ValueError``
        subclass).
    """
    y = _as_samples(y, "mixtures")
    if not 1 <= r <= y.shape[0]:
        raise ValueError(f"cannot estimate r={r} sources from M={y.shape[0]} mixtures")
    yc = _center(y)
    w, v = np.linalg.eigh(_covariance(yc))
    order = np.argsort(w)[::-1][:r]
    w = w[order]
    if w[-1] <= max(w[0], 0.0) * 1e-12 or w[-1] <= 0.0:
        raise np.linalg.LinAlgError(f"mixtures have rank below {r}; cannot whiten")
    w_white = (v[:, order] / np.sqrt(w)).T
    return w_white @ yc, w_white


def _ica_infomax(z):
    """Relative quasi-Newton infomax unmixing of whitened data.

    ``z`` must be whitened as :func:`_whiten` returns it: zero-mean rows with
    ``z zᵀ/N = I``. The loop relies on that identity: with ``u = W z``,
    ``u uᵀ/N = W Wᵀ`` and the quadratic term of the log-likelihood is
    ``½‖W‖²_F``, so neither takes a pass over the samples.

    From ``W = I`` each iteration forms the relative gradient
    ``G = W Wᵀ - tanh(u) uᵀ/N - I`` of the loss ``-_model_loglik`` and the H2
    approximation of its relative Hessian (Picard; Ablin, Cardoso & Gramfort,
    IEEE TSP 2018), ``h_ij = mean(tanh²(u_i) u_j²)``, and solves it for the
    direction ``D``: in closed form per 2×2 pair block
    ``[[h_ij, 1], [1, h_ji]]`` (both diagonal entries shifted up until the
    block's smallest eigenvalue is at least ``_MIN_PAIR_EIGENVALUE``) and
    ``D_ii = -G_ii / (h_ii + 1)`` on the diagonal. The update
    ``W ← W + α D W`` halves ``α`` from 1 until the loss decreases.

    The loop stops when the applied step's Frobenius norm drops below
    ``_TOL``, or when no step lowers the loss once the tried step is
    already below ``_TOL``. The source model sets its own output scale
    (its equilibrium variance is not 1), so the returned (r, r) unmixing
    matrix is row-normalized to give unit-variance outputs on ``z``.

    Raises
    ------
    IcaDivergenceError
        If ``_MAX_ITER`` iterations end without meeting ``_TOL``, or the
        step turns non-finite.
    """
    z = np.asarray(z, dtype=float)
    r, n = z.shape
    w, eye = np.eye(r), np.eye(r)
    u, u_try, work = w @ z, np.empty((r, n)), np.empty((2, r, n))
    loss = -_model_loglik(w, u, work)
    for it in range(1, _MAX_ITER + 1):
        tu = np.tanh(u)
        grad = w @ w.T - tu @ u.T / n - eye
        np.multiply(tu, tu, out=tu)
        step = _newton_direction(grad, tu @ np.square(u).T / n) @ w
        step_norm = float(np.linalg.norm(step))
        if not math.isfinite(step_norm):
            raise IcaDivergenceError(
                f"unmixing step became non-finite at iteration {it}"
            )
        while True:
            w_try = w + step
            np.matmul(w_try, z, out=u_try)
            loss_try = -_model_loglik(w_try, u_try, work)
            if loss_try < loss or step_norm < _TOL:
                break
            step *= 0.5
            step_norm *= 0.5
        if loss_try < loss:
            w, u, u_try, loss = w_try, u_try, u, loss_try
        if step_norm < _TOL:
            return w / np.maximum(u.std(axis=1), np.finfo(float).tiny)[:, None]
    raise IcaDivergenceError(
        f"infomax did not converge in {_MAX_ITER} iterations "
        f"(last step norm {step_norm:.3g}, tol {_TOL:g})"
    )


def _newton_direction(grad, h):
    """Solve the H2 relative-Hessian system ``H(D) = -G`` for the direction ``D``.

    Entries ``(i, j)`` and ``(j, i)`` couple through the 2×2 block
    ``[[h_ij, 1], [1, h_ji]]``; a block whose smallest eigenvalue is below
    ``_MIN_PAIR_EIGENVALUE`` gets both diagonal entries raised to reach it, so
    every block is positive definite and ``D`` is a descent direction.
    """
    ht = h.T
    smallest = 0.5 * (h + ht - np.sqrt(np.square(h - ht) + 4.0))
    shift = np.maximum(_MIN_PAIR_EIGENVALUE - smallest, 0.0)
    np.fill_diagonal(shift, 0.0)
    h = h + shift
    ht = h.T
    det = h * ht - 1.0
    np.fill_diagonal(det, 1.0)
    direction = (grad.T - ht * grad) / det
    np.fill_diagonal(direction, -np.diag(grad) / (np.diag(h) + 1.0))
    return direction


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


def ica_separate(y, r):
    """Whiten, unmix, and return the (r, N) source estimate.

    The estimate is ``W @ W_white @ (y - mean)``: zero-mean rows with
    approximately unit variance, recovered up to permutation, sign, and
    scale.
    """
    z, _ = _whiten(y, r)
    return _ica_infomax(z) @ z


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
    ec, tc = _center(s_est), _center(s_ref)
    inner = ec @ tc.T
    e_sq = np.maximum(np.sum(ec * ec, axis=1), np.finfo(float).tiny)
    t_sq = np.maximum(np.sum(tc * tc, axis=1), np.finfo(float).tiny)
    corr = np.abs(inner) / np.sqrt(np.outer(e_sq, t_sq))
    cols = _assignment(-corr)
    scale = inner[np.arange(len(cols)), cols] / e_sq
    offset = s_ref[cols].mean(axis=1)
    return scale[:, None] * ec + offset[:, None]
