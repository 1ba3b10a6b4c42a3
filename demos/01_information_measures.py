#!/usr/bin/env python3
"""Tour of the log-determinant information measures.

LD-entropy scores the spread of a sample cloud through the log-determinant
of its covariance; LD-mutual information (the difference between an entropy
and a conditional entropy) measures how well one set of samples can be
linearly predicted from another. This script builds both from scratch on
small synthetic data and checks the identities that make the measures
trustworthy.
"""

import numpy as np

from ldinfomax import (
    conditional_error_covariance,
    ld_entropy,
    ld_mutual_information,
    sample_covariance,
)

rng = np.random.default_rng(7)
eps = 1e-5

# --- entropy of a sample cloud ------------------------------------------
# an isotropic cloud has more spread than a squashed one of equal power
round_cloud = rng.standard_normal((3, 4000))
squashed = np.diag([1.7, 0.2, 0.1]) @ rng.standard_normal((3, 4000))

h_round = ld_entropy(sample_covariance(round_cloud), eps)
h_squash = ld_entropy(sample_covariance(squashed), eps)
print(f"LD-entropy, isotropic cloud : {h_round:.3f} nats")
print(f"LD-entropy, squashed cloud  : {h_squash:.3f} nats (smaller volume)")

# --- mutual information reflects linear predictability -------------------
sources = rng.uniform(-1, 1, (3, 4000))
mixtures = rng.standard_normal((5, 3)) @ sources

mi_related = ld_mutual_information(sources, mixtures, eps)
mi_unrelated = ld_mutual_information(sources, rng.standard_normal((5, 4000)), eps)
print(f"\nMI(sources, their mixtures)  : {mi_related:.3f} nats (large)")
print(f"MI(sources, fresh noise)     : {mi_unrelated:.3f} nats (near zero)")

# --- the error covariance is what conditioning removes -------------------
r_e = conditional_error_covariance(sources, mixtures, eps)
print(f"\nresidual covariance after predicting sources from mixtures:")
print(np.array_str(r_e, precision=6, suppress_small=True))
print("(noiseless mixtures: only the regularization floor remains)")

# --- identities ----------------------------------------------------------
swap_gap = abs(
    ld_mutual_information(sources, mixtures, eps)
    - ld_mutual_information(mixtures, sources, eps)
)
print(f"\nsymmetry |MI(s,y) - MI(y,s)|  : {swap_gap:.2e}")

lowest = min(
    ld_mutual_information(
        rng.standard_normal((2, 50)), rng.standard_normal((3, 50)), eps
    )
    for _ in range(200)
)
print(f"smallest MI over 200 random unrelated pairs: {lowest:.2e} (never below 0)")
