"""Polytope descriptions, membership tests, and Euclidean projections.

A polytope is declared by per-coordinate box domains (``"signed"`` for
[-1, 1], ``"nonneg"`` for [0, 1]) plus any number of coordinate groups, each
constrained to unit l1 norm. This family covers the unit l1 ball, the unit
box, their nonnegative restrictions, and mixed-sparsity constructions with
overlapping groups.

The domain tags become bounds only through ``PolytopeSpec.lower`` and
``upper``. When the groups are pairwise disjoint the projection is exact in
closed form: a box clamp, then per group a capped-simplex projection of the
magnitudes with the signs put back. Overlapping groups use Dykstra's
alternating projection with correction terms, which converges to the exact
Euclidean projection onto the intersection.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolytopeSpec",
    "ProjectionReport",
    "PRESET_NAMES",
    "contains",
    "max_violation",
    "preset",
    "project",
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

    @property
    def lower(self):
        """Per-coordinate lower bounds: -1 signed, 0 nonneg (with ``upper``,
        the one place domain tags become bounds)."""
        return np.array([-1.0 if t == SIGNED else 0.0 for t in self.domains])

    @property
    def upper(self):
        """Per-coordinate upper bounds, all 1."""
        return np.ones(self.dim)


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


@dataclass(frozen=True)
class ProjectionReport:
    """Result of a single-point projection.

    ``iterations`` counts Dykstra sweeps (0 when an exact closed form was
    used); ``residual`` is the largest constraint violation of the output.
    """

    point: np.ndarray
    iterations: int
    residual: float


def _check_point(p, v):
    v = np.asarray(v, dtype=float)
    if v.shape[0] != p.dim:
        raise ValueError(f"point has {v.shape[0]} coordinates, polytope has {p.dim}")
    return v


def max_violation(p, v):
    """Largest constraint violation of ``v`` (0 when feasible).

    Accepts a vector of shape (dim,) or a matrix of shape (dim, N); for a
    matrix the violation is taken over all columns.
    """
    v = _check_point(p, v)
    worst = max(float((p.lower.reshape(-1, *([1] * (v.ndim - 1))) - v).max()),
                float((v - p.upper.reshape(-1, *([1] * (v.ndim - 1)))).max()))
    for g in p.l1_groups:
        worst = max(worst, float(np.abs(v[list(g)]).sum(axis=0).max()) - 1.0)
    return max(worst, 0.0)


def contains(p, s, tol=FEASIBILITY_TOL):
    """True when every box and group constraint holds within ``tol``."""
    return max_violation(p, s) <= tol


def _clamp(p, v):
    """Project every column of ``v`` onto the box [p.lower, p.upper]."""
    return np.clip(v, p.lower[:, None], p.upper[:, None])


def _capped_simplex(u):
    """Project every column of ``u`` onto {x >= 0, sum(x) <= 1}, in place.

    ``u`` must be nonnegative, so a column summing to at most 1 is already
    feasible; any other lands on the simplex face as ``max(u - theta, 0)``.
    Overwrites and returns ``u``, which saves a pass over the samples.
    """
    over = u.sum(axis=0) > 1.0
    if np.any(over):
        uo = u[:, over]
        u[:, over] = np.maximum(uo - _simplex_threshold(uo), 0.0)
    return u


def _simplex_threshold(u):
    """Per-column theta with sum(max(u - theta, 0)) == 1, by sorting
    (Duchi et al. 2008)."""
    desc = np.sort(u, axis=0)[::-1]
    css = (np.cumsum(desc, axis=0) - 1.0) / np.arange(1, len(u) + 1)[:, None]
    # rho = largest prefix length with desc > css; css at that index is theta
    rho = np.sum(desc > css, axis=0) - 1
    return css[rho, np.arange(u.shape[1])]


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


def _project_matrix(p, v):
    """Shared column-parallel projection; v has shape (dim, N).

    Pairwise-disjoint groups (none at all included) separate, so the box
    clamp and one closed form per group are exact. Overlapping groups go
    through Dykstra.
    """
    groups = [list(g) for g in p.l1_groups]
    if len(set().union(*groups)) < sum(map(len, groups)):
        return _dykstra_columns(p, v, groups)
    out = _clamp(p, v)
    for g in groups:
        out[g] = _l1_ball(v[g], p.lower[g] < 0)
    return out, 0


def _dykstra_columns(p, v, groups):
    """Dykstra's algorithm over the box and each group's l1 cylinder.

    Convergence is declared when no set projection moves the iterate within
    a full sweep; the per-sweep moves equal the correction increments, so a
    quiet sweep means both the iterate and every correction are stationary.
    (The iterate alone can sit still for a sweep while corrections evolve,
    so its successive change is not a safe stopping signal.)
    """
    x = v.copy()
    corrections = [np.zeros_like(v) for _ in range(1 + len(groups))]
    sweeps = 0
    for sweeps in range(1, DYKSTRA_MAX_SWEEPS + 1):
        move = 0.0
        w = x + corrections[0]
        y = _clamp(p, w)
        corrections[0] = w - y
        move = max(move, float(np.abs(y - x).max()))
        x = y
        for i, g in enumerate(groups, start=1):
            w = x + corrections[i]
            y = w.copy()
            y[g] = np.copysign(_capped_simplex(np.abs(w[g])), w[g])
            corrections[i] = w - y
            move = max(move, float(np.abs(y - x).max()))
            x = y
        if move < DYKSTRA_TOL:
            break
    return x, sweeps


def project(p, v):
    """Euclidean projection of a single point onto the polytope.

    Returns a :class:`ProjectionReport`; non-convergence of the Dykstra loop
    is reported through the residual rather than raised, so the caller can
    decide whether the result is acceptable.
    """
    v = _check_point(p, v)
    if v.ndim != 1:
        raise ValueError("project expects a single point; use project_columns")
    out, sweeps = _project_matrix(p, v[:, None])
    out = out[:, 0]
    return ProjectionReport(out, sweeps, max_violation(p, out))


def project_columns(p, s):
    """Project every column of ``s`` onto the polytope independently."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != p.dim:
        raise ValueError(f"expected shape ({p.dim}, N), got {s.shape}")
    out, _ = _project_matrix(p, s)
    return out
