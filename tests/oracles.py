"""Independent oracle implementations used to validate the library.

Everything here deliberately avoids the code paths it checks: covariances
are accumulated in two passes, log-determinants go through eigenvalues,
conditional covariances through the joint-matrix inverse, projections
through active-set enumeration over the polytope's H-representation, the
simplex threshold through a sort, and alignments and box reflections through
exhaustive search.

``frozen_signed_l1_ball`` is the other kind of reference: the all-signed
l1 ball exactly as it was when it signed every entry again, before it took
``v`` back and signed only the columns it moves. The current ball must give
its bytes, not just its values.
"""

import itertools
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ldinfomax import ld_mutual_information
from ldinfomax.polytopes import NONNEG, SIGNED, _capped_simplex


def two_pass_covariance(x):
    """Mean first, then the averaged outer products of centered columns."""
    x = np.asarray(x, dtype=float)
    r, n = x.shape
    mean = np.zeros(r)
    for j in range(n):
        mean += x[:, j]
    mean /= n
    acc = np.zeros((r, r))
    for j in range(n):
        d = x[:, j] - mean
        acc += np.outer(d, d)
    return acc / n


def eig_logdet(cov, epsilon):
    """Sum of logs of shifted eigenvalues."""
    w = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    return float(np.sum(np.log(w + epsilon)))


def schur_conditional_cov(r_s, r_y, r_sy, epsilon):
    """Conditional covariance from the inverse of the shifted joint matrix."""
    r, m = r_sy.shape
    joint = np.block([[r_s, r_sy], [r_sy.T, r_y + epsilon * np.eye(m)]])
    inv = np.linalg.inv(joint)
    return np.linalg.inv(inv[:r, :r])


def chain_rule_mi(s, y, epsilon):
    """Mutual information as H(s) + H(y) - H(joint) from the stacked samples."""
    def cov(x):
        xc = np.asarray(x, float) - np.mean(x, axis=1, keepdims=True)
        return xc @ xc.T / x.shape[1]

    joint = np.vstack([s, y])
    return 0.5 * (
        eig_logdet(cov(s), epsilon)
        + eig_logdet(cov(y), epsilon)
        - eig_logdet(cov(joint), epsilon)
    )


def finite_difference_gradient(s, y, epsilon, h=1e-6):
    """Central differences of the mutual information over every entry."""
    s = np.asarray(s, dtype=float)
    grad = np.zeros_like(s)
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            sp = s.copy()
            sp[i, j] += h
            sm = s.copy()
            sm[i, j] -= h
            grad[i, j] = (
                ld_mutual_information(sp, y, epsilon)
                - ld_mutual_information(sm, y, epsilon)
            ) / (2.0 * h)
    return grad


def polytope_h_rep(p):
    """Inequality rows (A, b) with the polytope equal to {x : A x <= b}.

    Boxes contribute +-e_i rows; each l1 group contributes one row per sign
    pattern of its coordinates.
    """
    rows, rhs = [], []
    for i, tag in enumerate(p.domains):
        e = np.zeros(p.dim)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(1.0)
        rows.append(-e)
        rhs.append(1.0 if tag == SIGNED else 0.0)
    for g in p.l1_groups:
        for signs in itertools.product((-1.0, 1.0), repeat=len(g)):
            row = np.zeros(p.dim)
            for idx, sgn in zip(g, signs):
                row[idx] = sgn
            rows.append(row)
            rhs.append(1.0)
    return np.array(rows), np.array(rhs)


class QpProjectionOracle:
    """Exact Euclidean projection by active-set enumeration.

    The projection onto a polyhedron lies on the affine hull of some active
    constraint subset of size at most dim, and equals the affine projection
    onto that subset. Enumerating every subset, projecting onto each affine
    set, and keeping the closest feasible candidate is therefore exact. The
    candidate maps (x = M_J v + q_J) are precomputed per subset so repeated
    projections are cheap.
    """

    def __init__(self, p, feas_tol=1e-9):
        self.a, self.b = polytope_h_rep(p)
        self.dim = p.dim
        self.feas_tol = feas_tol
        self.maps = [(np.eye(p.dim)[None, :, :], np.zeros((1, p.dim)))]
        n_rows = len(self.a)
        for k in range(1, p.dim + 1):
            combos = np.array(list(itertools.combinations(range(n_rows), k)))
            aj = self.a[combos]                      # (c, k, d)
            bj = self.b[combos]                      # (c, k)
            gram = aj @ np.transpose(aj, (0, 2, 1))  # (c, k, k)
            gram_pinv = np.linalg.pinv(gram)
            ajt_gp = np.transpose(aj, (0, 2, 1)) @ gram_pinv  # (c, d, k)
            proj = ajt_gp @ aj                        # (c, d, d)
            m = np.eye(p.dim)[None, :, :] - proj
            q = np.einsum("cdk,ck->cd", ajt_gp, bj)
            self.maps.append((m, q))

    def project(self, v):
        v = np.asarray(v, dtype=float)
        best, best_d2 = None, np.inf
        for m, q in self.maps:
            cand = np.einsum("cij,j->ci", m, v) + q
            feas = np.all(cand @ self.a.T <= self.b[None, :] + self.feas_tol, axis=1)
            if not feas.any():
                continue
            cf = cand[feas]
            d2 = np.sum((cf - v[None, :]) ** 2, axis=1)
            i = int(np.argmin(d2))
            if d2[i] < best_d2:
                best_d2, best = d2[i], cf[i]
        if best is None:
            raise RuntimeError("oracle found no feasible candidate")
        return best


def sort_simplex_threshold(u):
    """Per-column theta with ``sum(max(u - theta, 0)) == 1``, by sorting (Duchi
    et al., ICML 2008).

    Each column is sorted in descending order; ``css[j]`` is the sum of its
    ``j + 1`` largest entries less 1, over ``j + 1``, and theta is ``css`` at
    the longest prefix whose last entry still exceeds it.
    """
    u = np.asarray(u, dtype=float)
    desc = np.sort(u, axis=0)[::-1]
    css = (desc.cumsum(axis=0) - 1.0) / np.arange(1, len(u) + 1)[:, None]
    rho = (desc > css).sum(axis=0) - 1
    return css[rho, np.arange(u.shape[1])]


def frozen_signed_l1_ball(v):
    """Project the columns of ``v`` onto {sum(|x|) <= 1}: the capped simplex
    of ``|v|``, then every entry signed again."""
    out = np.abs(v)
    return np.copysign(_capped_simplex(out), v, out=out)


def exhaustive_alignment_mse(s_est, s_true):
    """Minimum MSE over every permutation and sign combination.

    Pair costs for both signs are precomputed once; the search still visits
    all r! * 2^r alignments explicitly.
    """
    s_est = np.asarray(s_est, dtype=float)
    s_true = np.asarray(s_true, dtype=float)
    r, n = s_est.shape
    cost_plus = np.sum((s_est[:, None, :] - s_true[None, :, :]) ** 2, axis=2) / n
    cost_minus = np.sum((s_est[:, None, :] + s_true[None, :, :]) ** 2, axis=2) / n
    best = np.inf
    for perm in itertools.permutations(range(r)):
        for signs in itertools.product((1, -1), repeat=r):
            total = 0.0
            for i in range(r):
                total += cost_plus[i, perm[i]] if signs[i] == 1 else cost_minus[i, perm[i]]
            best = min(best, total)
    return best


def exhaustive_orientation(s, y, p):
    """Box reflection of ``s`` chosen by trying all 2^k flip sets.

    The k candidate rows are the nonnegative coordinates in no l1 group.
    With ``h`` the least-squares mixing of the centered samples, a flip set
    negates its columns of ``h`` and reflects its entries of ``mean(s)``; the
    first set in counting order whose predicted mean is closest to
    ``mean(y)`` wins. Returns ``s`` itself when that set is empty.
    """
    grouped = {i for g in p.l1_groups for i in g}
    nn = [i for i, tag in enumerate(p.domains) if tag == NONNEG and i not in grouped]
    if not nn:
        return s
    y = np.asarray(y, dtype=float)
    n = s.shape[1]
    sc = s - s.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    try:
        h_hat = np.linalg.solve(sc @ sc.T / n + 1e-12 * np.eye(p.dim), sc @ yc.T / n).T
    except np.linalg.LinAlgError:
        return s
    mu_y = y.mean(axis=1)
    mu_s = s.mean(axis=1)
    best_bits, best_resid = 0, math.inf
    for bits in range(1 << len(nn)):
        signs = np.ones(p.dim)
        mu = mu_s.copy()
        for b, i in enumerate(nn):
            if bits >> b & 1:
                signs[i] = -1.0
                mu[i] = 1.0 - mu_s[i]
        resid = float(np.linalg.norm(mu_y - (h_hat * signs) @ mu))
        if resid < best_resid - 1e-15:
            best_bits, best_resid = bits, resid
    if best_bits == 0:
        return s
    out = s.copy()
    for b, i in enumerate(nn):
        if best_bits >> b & 1:
            out[i] = 1.0 - out[i]
    return out


def two_solve_gradient(s, y, epsilon):
    """LD-mutual-information gradient applied as in PAPER.md's formula.

    ``((R_s+eps I)^{-1} S_c - (R_e+eps I)^{-1}(S_c - R_sy (R_y+eps I)^{-1} Y_c)) / N``,
    with both inverses applied by Cholesky solves against the r x N centered
    samples and the error covariance formed by a solve against ``R_syᵀ``.
    """
    s, y = np.asarray(s, dtype=float), np.asarray(y, dtype=float)
    n = s.shape[1]
    sc = s - s.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    r_s, r_sy = sc @ sc.T / n, sc @ yc.T / n
    cho_y = cho_factor(yc @ yc.T / n + epsilon * np.eye(y.shape[0]))
    r_e = r_s - r_sy @ cho_solve(cho_y, r_sy.T)
    resid = sc - r_sy @ cho_solve(cho_y, yc)
    eye = epsilon * np.eye(s.shape[0])
    return (cho_solve(cho_factor(r_s + eye), sc) - cho_solve(cho_factor(r_e + eye), resid)) / n


def sample_pass_infomax(z, max_iter, tol):
    """Natural-gradient infomax that forms ``u uᵀ/N`` and ``mean(sum(u²))`` from the samples.

    A second algorithm for the fixed point :func:`ldinfomax.ica._ica_infomax`
    reaches by Newton steps: from ``W = I`` it iterates
    ``W += lr (I + tanh(u) uᵀ/N - u uᵀ/N) W`` without the whitened-input
    identities, halving ``lr`` from 0.1 (down to 0.1/1024) whenever the
    log-likelihood, which subtracts half the mean squared output norm, falls.
    It stops once the update's Frobenius norm is below ``tol``. Returns the
    row-normalized unmixing matrix and the number of iterations run.
    """
    z = np.asarray(z, dtype=float)
    r, n = z.shape
    w, eye = np.eye(r), np.eye(r)
    lr, min_lr = 0.1, 0.1 / 1024.0
    prev_loglik = -math.inf
    for it in range(1, max_iter + 1):
        u = w @ z
        natural_grad = eye + np.tanh(u) @ u.T / n - u @ u.T / n
        sign, logdet = np.linalg.slogdet(w)
        loglik = -math.inf
        if sign > 0 or logdet != -math.inf:
            au = np.abs(u)
            logcosh = np.mean(au + np.log1p(np.exp(-2.0 * au)), axis=1) - math.log(2.0)
            loglik = float(logdet + np.sum(logcosh) - 0.5 * np.mean((u ** 2).sum(axis=0)))
        if loglik < prev_loglik and lr > min_lr:
            lr *= 0.5
        prev_loglik = loglik
        delta = lr * natural_grad @ w
        w = w + delta
        if np.linalg.norm(delta) < tol:
            break
    return w / (w @ z).std(axis=1)[:, None], it
