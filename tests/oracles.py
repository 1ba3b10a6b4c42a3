"""Independent oracle implementations used to validate the library.

Everything here deliberately avoids the code paths it checks: covariances
are accumulated in two passes, log-determinants go through eigenvalues,
conditional covariances through the joint-matrix inverse, projections
through active-set enumeration over the polytope's H-representation, and
alignments through exhaustive search.
"""

import itertools

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ldinfomax import ld_mutual_information
from ldinfomax.polytopes import SIGNED


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
