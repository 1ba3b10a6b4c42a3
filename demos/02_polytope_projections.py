#!/usr/bin/env python3
"""Polytope zoo and Euclidean projections.

Source assumptions are encoded as polytopes: boxes for bounded (antisparse)
signals, the l1 ball for sparse ones, their nonnegative restrictions, and
custom mixes with per-pair sparsity. The solver only ever touches them
through one operation, the Euclidean projection, demonstrated here.
"""

import numpy as np

from ldinfomax import PolytopeSpec, contains, preset, project_columns
from ldinfomax.polytopes import max_violation

# --- the four named presets ----------------------------------------------
for name in ("l1", "linf", "l1_nonneg", "linf_nonneg"):
    p = preset(name, 3)
    point = np.array([0.4, 0.4, 0.4])
    print(f"{name:12s} contains (0.4, 0.4, 0.4)? {contains(p, point)}")

# --- projections pick the closest feasible point --------------------------
# a single point is projected as a one-column matrix
p_sparse = preset("l1", 3)
outside = np.array([1.0, 0.8, -0.2])
point = project_columns(p_sparse, outside[:, None])[:, 0]
print(f"\nproject {outside} onto the l1 ball -> {np.round(point, 4)}")
print(f"  largest constraint violation: {max_violation(p_sparse, point):.1e}")

p_simplex = preset("l1_nonneg", 3)
point = project_columns(p_simplex, np.ones((3, 1)))[:, 0]
print(f"project (1,1,1) onto nonneg+l1 -> {np.round(point, 4)} (face center)")

# --- a custom mixed-sparsity polytope -------------------------------------
# first two coordinates signed, third nonnegative; sparsity is imposed
# between coordinates (1,2) and between (2,3), so the middle coordinate
# trades off against both neighbours; the groups overlap, so the projection
# runs projected Newton on the two groups' multipliers
mixed = PolytopeSpec(3, ("signed", "signed", "nonneg"), ((0, 1), (1, 2)))
v = np.array([-1.9, -2.0, 1.6])
point = project_columns(mixed, v[:, None])[:, 0]
print(f"\nmixed-pairs polytope: project {v}")
print(f"  -> {np.round(point, 6)}")
print(f"  largest constraint violation: {max_violation(mixed, point):.1e}")

# --- the solver projects every sample column at once ------------------------
cloud = np.random.default_rng(0).normal(0.0, 1.2, (3, 8))
projected = project_columns(mixed, cloud)
print(f"\nprojected an entire (3, 8) sample matrix; all columns feasible: "
      f"{contains(mixed, projected)}")
