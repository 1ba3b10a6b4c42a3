"""Independent oracle implementations used to validate the library.

Everything here deliberately avoids the code paths it checks: covariances
are accumulated in two passes, log-determinants go through eigenvalues,
conditional covariances through the joint-matrix inverse, projections
through active-set enumeration over the polytope's H-representation (or,
exactly, through the KKT patterns of the magnitude problem in rational
arithmetic), the simplex threshold through a sort, and alignments and box
reflections through exhaustive search.

``frozen_signed_l1_ball`` is the other kind of reference: the all-signed
l1 ball exactly as it was when it signed every entry again, before it took
``v`` back and signed only the columns it moves, spelled out here on top of
the library's simplex threshold alone. The current ball must give its
bytes, not just its values.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ldinfomax import ld_mutual_information
from ldinfomax.polytopes import NONNEG, SIGNED, _simplex_threshold


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


def _fraction_inverse(m):
    """Inverse of the square Fraction matrix ``m`` by Gauss-Jordan, or None when singular."""
    k = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(k)] for i, r in enumerate(m)]
    for c in range(k):
        pivot = next((i for i in range(c, k) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(k):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[k:] for r in rows]


class KktProjectionOracle:
    """Exact Euclidean projection by enumerating KKT patterns, for dim <= 6.

    With ``a = |v|`` on signed coordinates and ``max(v, 0)`` on nonnegative
    ones, the projection is ``sign(v) * y`` for the one ``y`` that minimizes
    ``|y - a|^2 / 2`` over ``0 <= y <= 1`` and ``A y <= 1``, ``A`` the
    group incidence matrix. Its KKT conditions: ``y = clip(a - A' lam, 0, 1)``
    with ``lam >= 0``, zero on every group under its budget. A pattern
    names each coordinate free, at 0 or at 1 and each group active or not;
    on the free coordinates ``y = a - A' lam``, and the active groups'
    budgets ``A_S y = 1`` give ``lam_S`` from a system whose matrix counts
    the free coordinates two active groups share. Some optimal ``lam`` is a
    vertex of the set of optimal multipliers, and its pattern (coordinates
    on a kink counted free) has a nonsingular system, so only those
    patterns are kept. Every pattern is screened in floating point; those
    within 1e-9 of meeting the conditions are checked, closest first, in
    ``Fraction`` arithmetic, and the first that meets every condition
    exactly gives the projection exactly (the minimizer is unique), rounded
    once to float.
    """

    def __init__(self, p):
        if p.dim > 6:
            raise ValueError("the KKT oracle enumerates 3^dim patterns; dim must be at most 6")
        self.signed = np.array([t == SIGNED for t in p.domains])
        self.groups = [list(g) for g in p.l1_groups]
        n_groups = len(self.groups)
        self.incidence = np.zeros((n_groups, p.dim))
        for g, members in enumerate(self.groups):
            self.incidence[g, members] = 1.0
        # a pattern: active groups, free coordinates, coordinates at 1, and
        # the exact inverse of its system over the active groups
        self.patterns, inverses = [], {}
        for active in itertools.product((False, True), repeat=n_groups):
            act = [g for g in range(n_groups) if active[g]]
            for states in itertools.product(("free", "zero", "one"), repeat=p.dim):
                free = tuple(st == "free" for st in states)
                if (active, free) not in inverses:
                    shared = self.incidence[act] * free @ self.incidence[act].T
                    inverses[active, free] = _fraction_inverse(
                        [[Fraction(int(x)) for x in row] for row in shared])
                if inverses[active, free] is not None:
                    one = tuple(st == "one" for st in states)
                    self.patterns.append((active, free, one, act, inverses[active, free]))
        n = len(self.patterns)
        self.active, self.free, self.one = (
            np.array([pt[k] for pt in self.patterns], dtype=bool).reshape(n, -1) for k in range(3)
        )
        self.inv = np.zeros((n, n_groups, n_groups))
        for k, (_, _, _, act, inv) in enumerate(self.patterns):
            self.inv[k][np.ix_(act, act)] = np.array(inv, dtype=float).reshape(len(act), len(act))

    def _violations(self, a):
        """Each pattern's largest KKT violation at ``a``, in floating point."""
        b = self.active * ((self.free * a + self.one) @ self.incidence.T - 1.0)
        lam = np.einsum("kgh,kh->kg", self.inv, b)
        r = a - lam @ self.incidence
        y = np.where(self.free, r, self.one.astype(float))
        over = (y @ self.incidence.T - 1.0) * ~self.active
        bound = np.where(self.free, np.maximum(-r, r - 1.0), np.where(self.one, 1.0 - r, r))
        return np.maximum(np.maximum(-lam, over).max(axis=1, initial=0.0), bound.max(axis=1))

    def _exact(self, a, pattern):
        """``y`` of ``pattern`` at the Fractions ``a`` when it meets every KKT
        condition exactly, else None."""
        active, free, one, act, inv = pattern
        b = [sum(a[i] if free[i] else int(one[i]) for i in self.groups[g]) - 1 for g in act]
        lam = [Fraction(0)] * len(self.groups)
        for row, g in zip(inv, act):
            lam[g] = sum(x * y for x, y in zip(row, b))
        r = [a[i] - sum(lam[g] for g in range(len(lam)) if i in self.groups[g])
             for i in range(len(a))]
        y = [r[i] if free[i] else Fraction(int(one[i])) for i in range(len(a))]
        holds = (
            all(x >= 0 for x in lam)
            and all(0 <= r[i] <= 1 if free[i] else (r[i] >= 1 if one[i] else r[i] <= 0)
                    for i in range(len(a)))
            and all(sum(y[i] for i in members) <= 1
                    for members, on in zip(self.groups, active) if not on)
        )
        return y if holds else None

    def project(self, v):
        v = np.asarray(v, dtype=float)
        a = np.where(self.signed, np.abs(v), np.maximum(v, 0.0))
        exact = [Fraction(x) for x in a]
        violations = self._violations(a)
        for k in np.argsort(violations, kind="stable"):
            if violations[k] > 1e-9 * max(1.0, a.max(initial=0.0)):
                break
            y = self._exact(exact, self.patterns[k])
            if y is not None:
                return np.array([-float(yk) if s and x < 0 else float(yk)
                                 for yk, s, x in zip(y, self.signed, v)])
        raise RuntimeError("no KKT pattern holds exactly")


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
    of ``|v|``, then every entry signed again. A column of ``|v|`` whose rows,
    added in order, sum to more than 1 goes to ``max(|v| - theta, 0)``."""
    out = np.abs(v)
    total = out[0].copy()
    for row in out[1:]:
        total += row
    over = (total > 1.0).nonzero()[0]
    uo = out[:, over]
    out[:, over] = np.maximum(uo - _simplex_threshold(uo), 0.0)
    return np.copysign(out, v, out=out)


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
