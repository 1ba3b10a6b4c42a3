#!/usr/bin/env python3
"""Dependent sources: where LD-infomax separates and ICA degrades.

Sources are drawn as copula-t uniforms whose pairwise correlation is dialed
by a single parameter, mixed with noise at 30 dB. Independence-based ICA
leans on source independence and loses ground as the correlation rises;
the LD-infomax solver only needs the polytope membership and degrades far
more slowly. Desk-scale settings keep the runtime around a minute.
"""

import numpy as np

from ldinfomax import (
    ScenarioConfig,
    SolverConfig,
    affine_match_to_reference,
    ica_separate,
    make_scenario,
    preset,
    run,
    sinr_db,
)

box = preset("linf_nonneg", 4)
trials = 3
print("rho    LD-infomax (dB)    ICA-infomax (dB)")
for rho in (0.0, 0.3, 0.6):
    ld_vals, ica_vals = [], []
    for trial in range(trials):
        seed = 50 + trial
        cfg = ScenarioConfig(
            r=4, m=6, n=1500, rho=rho, dof=4, snr_db=30.0, polytope=box, seed=seed,
        )
        scenario = make_scenario(cfg)

        state = run(
            scenario.y, box,
            SolverConfig(iterations=8000, record_every=8000, seed=seed),
        )
        ld_vals.append(sinr_db(state.estimate, scenario.s_true))

        est = ica_separate(scenario.y, cfg.r)
        est = affine_match_to_reference(est, scenario.s_true)
        ica_vals.append(sinr_db(est, scenario.s_true))
    print(f"{rho:.1f}    {np.mean(ld_vals):8.1f}          {np.mean(ica_vals):8.1f}")

print("\nICA's accuracy tracks how independent the sources are; the")
print("polytope-constrained information objective keeps working on")
print("correlated sources, at the cost of iterating a batch solver.")
