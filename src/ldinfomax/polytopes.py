"""Polytope descriptions, membership tests, and Euclidean projections.

A polytope is declared by per-coordinate box domains (``"signed"`` for
[-1, 1], ``"nonneg"`` for [0, 1]) plus any number of coordinate groups, each
constrained to unit l1 norm. This family covers the unit l1 ball, the unit
box, their nonnegative restrictions, and mixed-sparsity constructions with
overlapping groups.

The domain tags become bounds only through ``PolytopeSpec.lower`` and
``upper``. When the groups are pairwise disjoint (boxes and balls included)
the projection is exact in closed form: a box clamp (each run of rows of
one tag with its two scalar bounds), then each group by one in-place
kernel, a capped-simplex projection of the magnitudes with the signs put
back, whose threshold is Michelot's fixed point (1986).
Overlapping groups are projected exactly by projected Newton on the group
multipliers (Bertsekas 1982), column by column: each column leaves the
working set once its multipliers are optimal to a tolerance relative to its
size, so its result does not depend on the other columns, and a column
still unsettled after ``_NEWTON_MAX_STEPS`` steps raises ``RuntimeError``.
A single point is projected as a (dim, 1) column.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "PolytopeSpec",
    "PRESET_NAMES",
    "contains",
    "max_violation",
    "preset",
    "project_columns",
]

SIGNED = "signed"
NONNEG = "nonneg"

PRESET_NAMES = ("l1", "linf", "l1_nonneg", "linf_nonneg")

FEASIBILITY_TOL = 1e-9

# Projected Newton on the group multipliers: a column is done once no
# multiplier's projected gradient step moves it by TOL times the column's
# scale max(1, max |v|); one still moving after MAX_STEPS steps raises
_NEWTON_MAX_STEPS = 100
_NEWTON_TOL = 1e-12
# Armijo's sufficient-increase fraction, and the halvings it may take
_ARMIJO = 1e-4
_ARMIJO_HALVINGS = 60
# the dual value's rounding, relative to the sum of its terms' magnitudes
_DUAL_ROUNDING = 8 * np.finfo(float).eps
# an elimination pivot below this is a flat direction of the dual
_FLAT_PIVOT = 1e-9


@dataclass(frozen=True)
class PolytopeSpec:
    """Declarative polytope: box domains plus unit-l1 coordinate groups.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    domains : tuple of str
        Per-coordinate interval tag, ``"signed"`` ([-1, 1]) or ``"nonneg"``
        ([0, 1]).
    l1_groups : tuple of tuple of int
        Coordinate index subsets; each group g constrains ``sum(|x[g]|) <= 1``.
    """

    dim: int
    domains: tuple
    l1_groups: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        domains = tuple(self.domains)
        if len(domains) != self.dim:
            raise ValueError(f"need {self.dim} domain tags, got {len(domains)}")
        for tag in domains:
            if tag not in (SIGNED, NONNEG):
                raise ValueError(f"unknown domain tag {tag!r}")
        groups = tuple(tuple(int(i) for i in g) for g in self.l1_groups)
        for g in groups:
            if not g:
                raise ValueError("l1 groups must be non-empty")
            if len(set(g)) != len(g):
                raise ValueError(f"duplicate index in group {g}")
            if min(g) < 0 or max(g) >= self.dim:
                raise ValueError(f"group {g} has indices outside [0, {self.dim})")
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "l1_groups", groups)

    @cached_property
    def lower(self):
        """Read-only per-coordinate lower bounds: -1 signed, 0 nonneg (with
        ``upper``, the one place domain tags become bounds)."""
        return _read_only(np.array([-1.0 if t == SIGNED else 0.0 for t in self.domains]))

    @cached_property
    def upper(self):
        """Read-only per-coordinate upper bounds, all 1."""
        return _read_only(np.ones(self.dim))

    @cached_property
    def _box_runs(self):
        """Per run of consecutive rows of one tag, its rows (``...`` when all
        rows share a tag) and its two bounds as scalars, which keep the sign
        of a -0.0 on a zero lower bound at every shape, where numpy's clip
        with (dim, 1) column bounds picks it by shape."""
        runs = _runs(self.domains)
        whole = len(runs) == 1
        return [(... if whole else r, float(self.lower[r.start]), float(self.upper[r.start]))
                for r in runs]

    @cached_property
    def _disjoint(self):
        """How :func:`project_columns` projects pairwise-disjoint groups (none
        at all included), or None when groups overlap: whether some
        coordinate lies in no group, so the box needs clamping, and per group
        its rows (a slice when they count up by one), then its signed and its
        unsigned runs of rows, as slices in the group's own order."""
        groups = [list(g) for g in self.l1_groups]
        grouped = set().union(*groups)
        if len(grouped) < sum(map(len, groups)):
            return None
        blocks = []
        for g in groups:
            signed = [bool(self.lower[i] < 0.0) for i in g]
            runs = _runs(signed)
            rows = slice(g[0], g[-1] + 1) if g == list(range(g[0], g[-1] + 1)) else g
            blocks.append((rows, [r for r in runs if signed[r.start]],
                           [r for r in runs if not signed[r.start]]))
        return len(grouped) < self.dim, blocks

    @cached_property
    def _multiplier_tables(self):
        """Index tables of the overlap route, each row padded with the index
        one past the end (which :func:`_sum_rows` reads as a zero row): per
        coordinate the groups holding it, per group its coordinates, per
        group pair (g, h), flattened to row g * G + h, their shared
        coordinates; and the largest number of groups sharing a coordinate."""
        groups = [set(g) for g in self.l1_groups]
        holders = [[g for g, members in enumerate(groups) if i in members]
                   for i in range(self.dim)]
        shared = [sorted(g & h) for g in groups for h in groups]
        return (
            _padded(holders, len(groups)),
            _padded([sorted(g) for g in groups], self.dim),
            _padded(shared, self.dim),
            max(map(len, holders)),
        )

    def __getstate__(self):
        # pickle the declared fields only; the bounds are rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _runs(tags):
    """Slices of the runs of consecutive equal entries of ``tags``, in order."""
    edges = [0, *(k for k in range(1, len(tags)) if tags[k] != tags[k - 1]), len(tags)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _read_only(a):
    a.setflags(write=False)
    return a


def _padded(rows, end):
    """Integer index table of ``rows``, each padded to the longest with ``end``."""
    width = max(1, max(map(len, rows)))
    return _read_only(np.array([list(r) + [end] * (width - len(r)) for r in rows], dtype=np.intp))


def preset(name, dim):
    """Build one of the named polytope presets at the given dimension.

    ``"l1"``: unit l1 ball. ``"linf"``: unit box [-1, 1]^dim.
    ``"l1_nonneg"`` / ``"linf_nonneg"``: their intersections with the
    nonnegative orthant.
    """
    if name == "l1":
        return PolytopeSpec(dim, (SIGNED,) * dim, (tuple(range(dim)),))
    if name == "linf":
        return PolytopeSpec(dim, (SIGNED,) * dim)
    if name == "l1_nonneg":
        return PolytopeSpec(dim, (NONNEG,) * dim, (tuple(range(dim)),))
    if name == "linf_nonneg":
        return PolytopeSpec(dim, (NONNEG,) * dim)
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


def max_violation(p, v):
    """Largest constraint violation of ``v`` (0 when feasible).

    Accepts a vector of shape (dim,) or a matrix of shape (dim, N); for a
    matrix the violation is taken over all columns (0 when N is 0). Any
    other shape raises ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != p.dim:
        raise ValueError(f"expected shape ({p.dim},) or ({p.dim}, N), got {v.shape}")
    return float(_column_violations(p, v[:, None] if v.ndim == 1 else v).max(initial=0.0))


def _column_violations(p, v):
    """Largest constraint violation of each column of ``v``, floored at 0."""
    worst = np.maximum(p.lower[:, None] - v, v - p.upper[:, None]).max(axis=0, initial=0.0)
    if p.l1_groups:
        magnitudes = np.abs(v)
        for g in p.l1_groups:
            np.maximum(worst, _column_sums(magnitudes, rows=g) - 1.0, out=worst)
    return worst


def contains(p, s, tol=FEASIBILITY_TOL):
    """True when every box and group constraint holds within ``tol``."""
    return max_violation(p, s) <= tol


def _clamp(p, v, out):
    """Project every column of ``v`` onto the box [p.lower, p.upper], into ``out``."""
    for rows, lower, upper in p._box_runs:
        np.clip(v[rows], lower, upper, out=out[rows])
    return out


def _over_budget(u):
    """The columns of nonnegative ``u`` summing to more than 1, their
    projections ``max(u - theta, 0)`` onto the simplex face and their
    thresholds theta (the last two None when there are none)."""
    over = (_column_sums(u) > 1.0).nonzero()[0]
    if not over.size:
        return over, None, None
    uo = u.take(over, axis=1)
    theta = _simplex_threshold(uo)
    uo -= theta
    return over, np.maximum(uo, 0.0, out=uo), theta


def _simplex_threshold(u):
    """Per-column theta with sum(max(u - theta, 0)) == 1, by Michelot's fixed
    point (1986).

    ``u`` is nonnegative with every column summing to more than 1. theta
    starts at ``(sum(u) - 1) / len(u)``; each pass recomputes it over the
    entries kept above every theta so far, and the loop ends at the first pass
    that keeps every column's set as it was. A column whose set one pass keeps
    is at its fixed point, and no column drops its largest entry, so there are
    at most ``len(u)`` passes, each a few vectorized passes over ``u``.
    That last holds in exact arithmetic: at column sums past about 4.5e15,
    ``sum - 1`` rounds to the sum and theta can reach the largest entry. A
    column whose set rounding empties keeps its last theta, which is finite
    and leaves the column at zero, a feasible point. The sums add rows in
    order, so a column's theta does not depend on the other columns.
    """
    theta = _column_sums(u)
    theta -= 1.0
    theta /= len(u)
    kept = np.greater(u, theta)
    above, part = np.empty_like(kept), np.empty_like(u)
    total = kept.size
    while (left := np.count_nonzero(kept)) < total:
        total = left
        count = np.add.reduce(kept, axis=0, dtype=float)
        excess = _column_sums(np.multiply(u, kept, out=part))
        excess -= 1.0
        np.divide(excess, count, out=theta, where=count > 0.0)
        kept &= np.greater(u, theta, out=above)
    return theta


def _l1_ball(v, signed, unsigned, out=None):
    """Project every column of ``v`` onto the unit l1 ball of one group, into ``out``.

    ``signed`` and ``unsigned`` are the slices of rows of each tag; an
    unsigned coordinate also stays nonnegative. A signed coordinate keeps its
    sign and shrinks in magnitude, so this is the capped-simplex projection
    of ``|v|`` on signed rows and of ``max(v, 0)`` on the others, with the
    signs put back. Inside a unit l1 ball the box constraints hold, so they
    need no separate step. The magnitudes are formed in ``out`` and summed;
    then the signed runs take ``v`` back, which is ``copysign(|v|, v)`` bit
    for bit, and only the columns over the budget are written again,
    thresholded and, on signed runs, signed.
    """
    if out is None:
        out = np.empty_like(v)
    for rows in unsigned:
        np.maximum(v[rows], 0.0, out=out[rows])
    for rows in signed:
        np.abs(v[rows], out=out[rows])
    over, moved, _ = _over_budget(out)
    for rows in signed:
        np.copyto(out[rows], v[rows])
    if over.size:
        for rows in signed:
            np.copysign(moved[rows], v[rows].take(over, axis=1), out=moved[rows])
        out[:, over] = moved
    return out


def _sum_rows(x, index):
    """Row j is the sum of the rows ``index[j]`` of ``x``; an index of
    ``len(x)`` adds nothing. The rows are added one index column at a time,
    so each column of the result is summed in one order whatever the number
    of columns (a numpy reduction over a single column may pair its terms)."""
    rows = np.concatenate([x, np.zeros((1, x.shape[1]))])
    out = rows.take(index[:, 0], axis=0)
    for k in index.T[1:]:
        out += rows.take(k, axis=0)
    return out


def _column_sums(x, rows=None):
    """Sum of the rows of ``x``, or of its rows ``rows``, added in row order."""
    first, *rest = range(len(x)) if rows is None else rows
    out = x[first].copy()
    for i in rest:
        out += x[i]
    return out


def _dual_point(a, lam, holders, coords):
    """Multipliers ``lam`` with what the kernel reads at them: ``r = a - A' lam``,
    the magnitudes ``y = clip(r, 0, 1)`` that minimize the Lagrangian over
    the box, the dual gradient ``A y - 1``, its projected residual
    ``max |lam - max(lam + grad, 0)|``, the dual value
    ``sum(psi(r)) - sum(lam)`` and the sum of its terms' magnitudes, which
    bounds its rounding. psi is 0 for r <= 0, -r^2/2 on (0, 1) and 1/2 - r
    from 1 on; ``y * (y/2 - r)`` is all three. The constant ``|a|^2/2`` is
    left out, so no term cancels against it at large inputs."""
    r = a - _sum_rows(lam, holders)
    y = np.clip(r, 0.0, 1.0)
    grad = _sum_rows(y, coords) - 1.0
    residual = np.abs(lam - np.maximum(lam + grad, 0.0)).max(axis=0)
    psi = y * (0.5 * y - r)
    total = _column_sums(lam)
    return lam, r, y, grad, residual, _column_sums(psi) - total, _column_sums(np.abs(psi)) + total


def _armijo(start, trial):
    """Whether the step from point ``start`` to point ``trial`` is taken: the
    dual rose by Armijo's fraction of its first-order gain. Where the rise is
    within the dual's rounding of that bar, as near the optimum, the step
    must also lower the residual, so that a step bouncing between the two
    sides of a kink does not pass on rounding alone."""
    lam, _, _, grad, residual, value, size = start
    lam_t, _, _, _, residual_t, value_t, _ = trial
    rise = value_t - value - _ARMIJO * _column_sums(grad * (lam_t - lam))
    slack = _DUAL_ROUNDING * size
    return (rise >= slack) | ((rise >= -slack) & (residual_t < residual))


def _solve_raising_flat(m, b, mu):
    """Solve ``m x = b`` for every column of the (G, G, k) stack ``m``, by
    elimination without pivoting, overwriting both; ``m`` is symmetric
    positive semidefinite. A pivot below ``_FLAT_PIVOT`` belongs to a
    direction in which the dual is flat, and is raised by that column's
    ``mu``. Returns ``x`` and which columns had such a pivot."""
    flat = np.zeros(b.shape[1], dtype=bool)
    for j in range(len(b)):
        low = m[j, j] < _FLAT_PIVOT
        if low.any():
            m[j, j] += np.where(low, mu, 0.0)
            flat |= low
        f = m[j + 1:, j] / m[j, j]
        m[j + 1:, j + 1:] -= f[:, None] * m[j, j + 1:]
        b[j + 1:] -= f * b[j]
    for j in reversed(range(len(b))):
        b[j] /= m[j, j]
        b[:j] -= m[:j, j] * b[j]
    return b, flat


def _newton_direction(hess, grad, lam, residual, scale, stalled):
    """Projected Newton direction of the multipliers, and its flat columns.

    A multiplier within its column's tolerance of zero whose gradient is not
    positive is bound: it steps to zero and leaves the Newton system. One
    within the tolerance whose Newton component is negative joins the bound
    ones, and the direction is solved again (cutting the step where a
    multiplier reaches zero instead stalls columns for good, and so does
    leaving out of the bound set a multiplier that rounding left just above
    zero). A ``stalled`` column, whose last direction no step along the arc
    could take, binds every multiplier within its residual of zero whose
    gradient is not positive (Bertsekas's epsilon-active set) and gets
    residual/scale on its free diagonal (Levenberg-Marquardt), which splits
    a step that several multipliers could take equally. Flat pivots are
    raised by residual/scale too. The free multipliers' system counts the
    bound ones' steps to zero through the coupling terms of the Hessian.
    """
    n_groups, k = grad.shape
    diag = slice(None, None, n_groups + 1)
    tol, mu = _NEWTON_TOL * scale, residual / scale
    near = lam <= tol
    bound = (lam <= np.where(stalled, residual, tol)) & (grad <= 0.0)
    while True:
        free = ~bound
        m = hess * free[:, None] * free[None, :]
        m.reshape(n_groups * n_groups, k)[diag] += bound + mu * (free & stalled)
        stepped = bound * lam
        rhs = grad.copy()
        for h in range(n_groups):
            rhs += hess[:, h] * stepped[h]
        direction, flat = _solve_raising_flat(m, np.where(bound, -lam, rhs), mu)
        joins = near & (direction < 0.0) & free
        if not joins.any():
            return direction, flat
        bound |= joins


def _newton_columns(p, v, out):
    """Project every column of ``v`` onto the box and the overlapping groups
    by projected Newton on the group multipliers (Bertsekas 1982), into
    ``out``, and return it.

    With ``a = |v|`` on signed rows and ``max(v, 0)`` on nonnegative ones,
    the magnitudes are ``x = clip(a - A' lam, 0, 1)`` for the multipliers
    ``lam >= 0`` that maximize the concave dual; its gradient is
    ``A x - 1`` and its Hessian ``-A diag(free) A'`` over the coordinates
    inside (0, 1), those on a kink to within the tolerance included: a
    G x G system per column, solved by elimination over all columns at
    once. Each group starts at its own simplex threshold over the largest
    number of groups sharing a coordinate. A step goes along the projection
    arc ``max(lam + t d, 0)`` from t = 1, halving t until :func:`_armijo`
    takes it; along a flat direction the dual is linear until a clipped
    coordinate comes back into (0, 1), so that step first stops where the
    first such coordinate reaches 1/2. A column whose step no halving
    satisfies keeps its point and takes a damped direction next (see
    :func:`_newton_direction`). A finished column leaves the working set,
    its magnitudes divided by one plus its largest group excess, which is
    at most the tolerance, so every result is feasible. A column with a
    non-finite entry stops at once with a non-finite result. Columns do not
    interact and no operation mixes them, so each ends bit for bit where
    projecting it alone ends.
    """
    holders, coords, shared, share = p._multiplier_tables
    n_groups = len(coords)
    signed = p.lower < 0.0
    a = np.where(signed[:, None], np.abs(v), np.maximum(v, 0.0))
    lam = np.zeros((n_groups, v.shape[1]))
    for g, group in enumerate(p.l1_groups):
        over, _, theta = _over_budget(a.take(group, axis=0))
        if over.size:
            lam[g, over] = theta / share
    scale = np.maximum(a.max(axis=0, initial=0.0), 1.0)
    active = np.arange(v.shape[1])
    stalled = np.zeros(v.shape[1], dtype=bool)
    point = _dual_point(a, lam, holders, coords)
    for steps in range(_NEWTON_MAX_STEPS + 1):
        lam, r, y, grad, residual = point[:5]
        done = ~(residual > _NEWTON_TOL * scale)
        if done.any():
            # the tolerance leaves a group up to tol over its budget
            y_done = y[:, done] / (1.0 + np.maximum(grad[:, done], 0.0).max(axis=0))
            out[:, active[done]] = np.where(
                signed[:, None], np.copysign(y_done, v[:, active[done]]), y_done
            )
            keep = ~done
            active, a, scale, stalled = active[keep], a[:, keep], scale[keep], stalled[keep]
            point = tuple(x[..., keep] for x in point)
            lam, r, y, grad, residual = point[:5]
        if not active.size or steps == _NEWTON_MAX_STEPS:
            break
        # a coordinate on a kink to within the tolerance counts as inside
        # (0, 1): without its curvature, steps bounce across the kink
        tol = _NEWTON_TOL * scale
        free = ((r > -tol) & (r < 1.0 + tol)).astype(float)
        hess = _sum_rows(free, shared).reshape(n_groups, n_groups, -1)
        direction, flat = _newton_direction(hess, grad, lam, residual, scale, stalled)
        step = np.ones(active.size)
        if flat.any():
            # r moves by -t A' d; stop where the first clipped coordinate
            # heading into (0, 1) reaches 1/2
            towards = _sum_rows(direction[:, flat], holders)
            off = r[:, flat] - 0.5
            with np.errstate(divide="ignore", invalid="ignore"):
                heading = (np.abs(off) >= 0.5) & (off * towards > 0.0)
                reach = np.where(heading, off / towards, np.inf)
            step[flat] = np.minimum(reach.min(axis=0), 1.0)
        trial = _dual_point(a, np.maximum(lam + step * direction, 0.0), holders, coords)
        retry = (~_armijo(point, trial)).nonzero()[0]
        for _ in range(_ARMIJO_HALVINGS):
            if not retry.size:
                break
            step[retry] *= 0.5
            start = tuple(x[..., retry] for x in point)
            lam_h = np.maximum(start[0] + step[retry] * direction[:, retry], 0.0)
            halved = _dual_point(a[:, retry], lam_h, holders, coords)
            ok = _armijo(start, halved)
            for whole, part in zip(trial, halved):
                whole[..., retry[ok]] = part[..., ok]
            retry = retry[~ok]
        # a column no halving satisfies keeps its point, and damps its next direction
        for whole, kept in zip(trial, point):
            whole[..., retry] = kept[..., retry]
        point = trial
        stalled = np.zeros(active.size, dtype=bool)
        stalled[retry] = True
    if active.size:
        raise RuntimeError(
            f"projection onto overlapping l1 groups: {active.size} columns not settled "
            f"after {_NEWTON_MAX_STEPS} Newton steps (largest multiplier residual "
            f"{residual.max():.3g})"
        )
    return out


def project_columns(p, s, out=None):
    """Project every column of ``s`` onto the polytope independently.

    Two routes. Pairwise-disjoint groups (none at all included) separate:
    the box clamp when some coordinate lies in no group (over every row,
    each run of one tag with scalar bounds, so a zero clamped from -0.0
    keeps its sign whatever the shape), then one closed form per group, on
    ``out``'s rows in place when they are contiguous and through a gathered
    copy otherwise.
    Overlapping groups go through projected Newton on the group
    multipliers, which raises ``RuntimeError`` when a column is not settled
    after ``_NEWTON_MAX_STEPS`` steps.

    The result is written into ``out`` when given, a float array of the
    shape of ``s`` that shares no memory with it, and returned; every route
    gives the same bits with or without ``out``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != p.dim:
        raise ValueError(f"expected shape ({p.dim}, N), got {s.shape}")
    if out is None:
        out = np.empty_like(s)
    elif not isinstance(out, np.ndarray) or out.shape != s.shape or out.dtype != s.dtype:
        raise ValueError(f"out must be a float array of shape {s.shape}")
    elif np.may_share_memory(out, s):
        raise ValueError("out must not share memory with the columns it projects")
    if p._disjoint is None:
        return _newton_columns(p, s, out)
    clamp, groups = p._disjoint
    if clamp:
        _clamp(p, s, out)
    for rows, *runs in groups:
        if isinstance(rows, slice):
            _l1_ball(s[rows], *runs, out[rows])
        else:
            out[rows] = _l1_ball(s[rows], *runs)
    return out
