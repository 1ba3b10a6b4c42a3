"""Polytope descriptions, membership tests, and Euclidean projections.

A polytope is declared by per-coordinate box domains (``"signed"`` for
[-1, 1], ``"nonneg"`` for [0, 1]) plus any number of coordinate groups, each
constrained to unit l1 norm. This family covers the unit l1 ball, the unit
box, their nonnegative restrictions, and mixed-sparsity constructions with
overlapping groups.

The domain tags become bounds only through ``PolytopeSpec.lower`` and
``upper``. When the groups are pairwise disjoint the projection is exact in
closed form: a box clamp, then per group a capped-simplex projection of the
magnitudes with the signs put back, whose threshold is Michelot's fixed
point (1986). Overlapping groups use Dykstra's alternating projection with
correction terms, which converges to the exact Euclidean projection onto the
intersection. Dykstra's loop runs each column until that column's own first
quiet sweep and then drops it from the working set, so a column's result
does not depend on the other columns. Columns still moving after
``DYKSTRA_MAX_SWEEPS`` are returned as they stand, and ``project_columns``
warns when any of them is infeasible. A single point is projected as a
(dim, 1) column.
"""

import warnings
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

# Dykstra stops after this many sweeps, or once a sweep moves no entry by TOL
DYKSTRA_MAX_SWEEPS = 200
DYKSTRA_TOL = 1e-10
FEASIBILITY_TOL = 1e-9


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
    def _clip_bounds(self):
        """The box's bounds as ``np.clip`` takes them: two scalars when every
        domain has one tag (a scalar bound clamps several times faster, and
        differs only in keeping the sign of a -0.0 on a zero lower bound),
        else two (dim, 1) columns."""
        if len(set(self.domains)) == 1:
            return float(self.lower[0]), float(self.upper[0])
        return self.lower[:, None], self.upper[:, None]

    @cached_property
    def _route(self):
        """How :func:`project_columns` projects, with the groups as index lists
        and a mask of each group's signed coordinates: ``"ball"`` for one group
        over every coordinate, ``"disjoint"`` for pairwise-disjoint groups
        (none at all included) and ``"overlap"`` for Dykstra's loop."""
        groups = [list(g) for g in self.l1_groups]
        signed = [_read_only(self.lower[g] < 0) for g in groups]
        if len(set().union(*groups)) < sum(map(len, groups)):
            return "overlap", groups, signed
        if groups == [list(range(self.dim))]:
            return "ball", groups, signed
        return "disjoint", groups, signed

    def __getstate__(self):
        # pickle the declared fields only; the bounds are rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _read_only(a):
    a.setflags(write=False)
    return a


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
    for g in p.l1_groups:
        np.maximum(worst, np.abs(v[list(g)]).sum(axis=0) - 1.0, out=worst)
    return worst


def contains(p, s, tol=FEASIBILITY_TOL):
    """True when every box and group constraint holds within ``tol``."""
    return max_violation(p, s) <= tol


def _clamp(p, v):
    """Project every column of ``v`` onto the box [p.lower, p.upper]."""
    return np.clip(v, *p._clip_bounds)


def _capped_simplex(u):
    """Project every column of ``u`` onto {x >= 0, sum(x) <= 1}, in place.

    ``u`` must be nonnegative, so a column summing to at most 1 is already
    feasible; any other lands on the simplex face as ``max(u - theta, 0)``.
    Overwrites and returns ``u``, which saves a pass over the samples.
    """
    over = (u.sum(axis=0) > 1.0).nonzero()[0]
    if over.size:
        uo = u.take(over, axis=1)
        uo -= _simplex_threshold(uo)
        u[:, over] = np.maximum(uo, 0.0, out=uo)
    return u


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
    and leaves the column at zero, a feasible point.
    """
    theta = np.add.reduce(u, axis=0)
    theta -= 1.0
    theta /= len(u)
    kept = np.greater(u, theta)
    above, part = np.empty_like(kept), np.empty_like(u)
    total = kept.size
    while (left := np.count_nonzero(kept)) < total:
        total = left
        count = np.add.reduce(kept, axis=0, dtype=float)
        excess = np.add.reduce(np.multiply(u, kept, out=part), axis=0)
        excess -= 1.0
        np.divide(excess, count, out=theta, where=count > 0.0)
        kept &= np.greater(u, theta, out=above)
    return theta


def _l1_ball(v, signed):
    """Project every column of ``v`` onto {sum(|x|) <= 1, x[~signed] >= 0}.

    A signed coordinate keeps its sign and shrinks in magnitude, so this is
    the capped-simplex projection of ``|v|`` on signed rows and of
    ``max(v, 0)`` on the others, with the signs put back. Inside a unit l1
    ball the box constraints hold, so they need no separate step.
    """
    if not signed.any():
        return _capped_simplex(np.maximum(v, 0.0))
    if signed.all():
        return np.copysign(_capped_simplex(np.abs(v)), v)
    out = _capped_simplex(np.where(signed[:, None], np.abs(v), np.maximum(v, 0.0)))
    out[signed] = np.copysign(out[signed], v[signed])
    return out


def _dykstra_columns(p, v, groups):
    """Dykstra's algorithm over the box and each group's l1 cylinder.

    A column is done after its first sweep that moves none of its entries by
    ``DYKSTRA_TOL``. The per-sweep moves equal the correction increments, so
    a quiet sweep means both the column and its corrections are stationary.
    (The iterate alone can sit still for a sweep while corrections evolve,
    so its successive change is not a safe stopping signal.) Columns do not
    interact, so each one ends exactly where projecting it alone would, and
    a finished column leaves the working set. A group's correction is zero
    off the group's rows, so a group step reads and writes only those rows.
    Returns the projection and the indices of the columns still moving after
    ``DYKSTRA_MAX_SWEEPS``, which are returned as they stand.
    """
    out = np.empty_like(v)
    active = np.arange(v.shape[1])
    x = v  # every step below makes a new array before writing in place
    box = np.zeros_like(v)
    corrections = [np.zeros((len(g), v.shape[1])) for g in groups]
    for _ in range(DYKSTRA_MAX_SWEEPS):
        if not active.size:
            break
        w = x + box
        y = _clamp(p, w)
        box = w - y
        move = np.abs(y - x).max(axis=0)
        x = y
        for i, g in enumerate(groups):
            xg = x[g]
            w = xg + corrections[i]
            y = np.copysign(_capped_simplex(np.abs(w)), w)
            corrections[i] = w - y
            np.maximum(move, np.abs(y - xg).max(axis=0), out=move)
            x[g] = y
        quiet = move < DYKSTRA_TOL
        if quiet.any():
            out[:, active[quiet]] = x[:, quiet]
            keep = ~quiet
            active, x, box = active[keep], x[:, keep], box[:, keep]
            corrections = [c[:, keep] for c in corrections]
    out[:, active] = x
    return out, active


def project_columns(p, s):
    """Project every column of ``s`` onto the polytope independently.

    Pairwise-disjoint groups (none at all included) separate, so the box
    clamp and one closed form per group are exact; a group over every
    coordinate leaves nothing to clamp. Overlapping groups go through
    Dykstra, and one ``RuntimeWarning`` is issued when it leaves columns
    still moving after ``DYKSTRA_MAX_SWEEPS`` that violate the polytope by
    more than ``FEASIBILITY_TOL``; those columns are returned as they stand.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != p.dim:
        raise ValueError(f"expected shape ({p.dim}, N), got {s.shape}")
    route, groups, signed = p._route
    if route == "ball":
        return _l1_ball(s, signed[0])
    if route == "disjoint":
        out = _clamp(p, s)
        for g, signed_g in zip(groups, signed):
            out[g] = _l1_ball(s[g], signed_g)
        return out
    out, moving = _dykstra_columns(p, s, groups)
    if len(moving):
        worst = _column_violations(p, out[:, moving])
        worst = worst[worst > FEASIBILITY_TOL]
        if worst.size:
            warnings.warn(
                f"Dykstra's projection stopped after {DYKSTRA_MAX_SWEEPS} sweeps with "
                f"{worst.size} columns still moving and infeasible "
                f"(worst violation {worst.max():.3g})",
                RuntimeWarning, stacklevel=2,
            )
    return out
