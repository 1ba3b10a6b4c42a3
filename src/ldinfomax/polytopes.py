"""Polytope descriptions, membership tests, and Euclidean projections.

A polytope is declared by per-coordinate box domains (``"signed"`` for
[-1, 1], ``"nonneg"`` for [0, 1]) plus any number of coordinate groups, each
constrained to unit l1 norm. This family covers the unit l1 ball, the unit
box, their nonnegative restrictions, and mixed-sparsity constructions with
overlapping groups.

Projections use exact closed forms whenever the constraint structure allows
(pure boxes, a single homogeneous l1 group) and Dykstra's alternating
projection with correction terms otherwise, which converges to the exact
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
    "project_box",
    "project_columns",
    "project_l1_group",
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
        return np.array([-1.0 if t == SIGNED else 0.0 for t in self.domains])

    @property
    def upper(self):
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


def project_box(v, domains):
    """Coordinate-wise clamp to [-1, 1] or [0, 1] per domain tag.

    Works on a vector of shape (dim,) or column-stacked points (dim, N).
    """
    v = np.asarray(v, dtype=float)
    lo = np.array([-1.0 if t == SIGNED else 0.0 for t in domains])
    hi = np.ones(len(domains))
    if v.ndim == 2:
        lo = lo[:, None]
        hi = hi[:, None]
    return np.clip(v, lo, hi)


def project_l1_group(v, radius=1.0):
    """Euclidean projection onto the l1 ball of the given radius.

    Exact soft-threshold construction: sort |v|, find the largest prefix
    whose thresholded sum reaches the radius, shrink toward zero by the
    resulting threshold. Points already inside are returned unchanged.

    Works on a vector (n,) or column-stacked points (n, N).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return _l1_ball_columns(v[:, None], radius)[:, 0]
    return _l1_ball_columns(v, radius)


def _l1_ball_columns(v, radius):
    out = v.copy()
    a = np.abs(v)
    over = a.sum(axis=0) > radius
    if not np.any(over):
        return out
    ao = a[:, over]
    theta = _simplex_threshold(ao, radius)
    out[:, over] = np.sign(v[:, over]) * np.maximum(ao - theta, 0.0)
    return out


def _simplex_threshold(a, radius):
    """Per-column threshold theta with sum(max(a - theta, 0)) == radius."""
    n = a.shape[0]
    u = np.sort(a, axis=0)[::-1]
    css = (np.cumsum(u, axis=0) - radius) / np.arange(1, n + 1)[:, None]
    # rho = largest prefix length with u > css; css at that index is theta
    rho = np.sum(u > css, axis=0) - 1
    return css[rho, np.arange(a.shape[1])]


def _nonneg_capped_columns(v, radius):
    """Projection onto {x >= 0, sum(x) <= radius}, column-wise."""
    out = np.maximum(v, 0.0)
    over = out.sum(axis=0) > radius
    if np.any(over):
        vo = v[:, over]
        theta = _simplex_threshold(vo, radius)
        out[:, over] = np.maximum(vo - theta, 0.0)
    return out


def _exact_group_strategy(p):
    """Return a homogeneous-domain tag for the single-group fast path.

    The closed form applies when there is at most one l1 group and all
    domains inside it carry the same tag: the group coordinates reduce to a
    plain l1 ball (signed) or a capped simplex (nonneg), both with the box
    made redundant by the unit radius, while the remaining coordinates only
    see their boxes.
    """
    if not p.l1_groups:
        return "box"
    if len(p.l1_groups) > 1:
        return None
    tags = {p.domains[i] for i in p.l1_groups[0]}
    if len(tags) != 1:
        return None
    return tags.pop()


def _project_matrix(p, v):
    """Shared column-parallel projection; v has shape (dim, N)."""
    strategy = _exact_group_strategy(p)
    if strategy == "box":
        return project_box(v, p.domains), 0
    if strategy in (SIGNED, NONNEG):
        g = list(p.l1_groups[0])
        out = project_box(v, p.domains)
        sub = v[g]
        if strategy == SIGNED:
            out[g] = _l1_ball_columns(sub, 1.0)
        else:
            out[g] = _nonneg_capped_columns(sub, 1.0)
        return out, 0
    return _dykstra_columns(p, v)


def _dykstra_columns(p, v):
    """Dykstra's algorithm over the box and each group l1 cylinder.

    Convergence is declared when no set projection moves the iterate within
    a full sweep; the per-sweep moves equal the correction increments, so a
    quiet sweep means both the iterate and every correction are stationary.
    (The iterate alone can sit still for a sweep while corrections evolve,
    so its successive change is not a safe stopping signal.)
    """
    groups = [list(g) for g in p.l1_groups]
    x = v.copy()
    corrections = [np.zeros_like(v) for _ in range(1 + len(groups))]
    sweeps = 0
    for sweeps in range(1, DYKSTRA_MAX_SWEEPS + 1):
        move = 0.0
        w = x + corrections[0]
        y = project_box(w, p.domains)
        corrections[0] = w - y
        move = max(move, float(np.abs(y - x).max()))
        x = y
        for i, g in enumerate(groups, start=1):
            w = x + corrections[i]
            y = w.copy()
            y[g] = _l1_ball_columns(w[g], 1.0)
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
