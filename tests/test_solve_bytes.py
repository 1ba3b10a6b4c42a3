"""Every solver output byte, pinned by digest.

The digests were recorded on the tree whose solver copied each projected
iterate into the LD kernel's buffer; a loop that keeps the iterate in that
buffer and projects into it must end every solve on the same bytes: the raw
iterate, the estimate, the objective and each trajectory point. The public
measures run the same kernel and every projection route writes the columns
the loop reads, so their outputs are pinned too. Only public names are used,
so the test runs unchanged against either loop.
"""

import hashlib

import numpy as np
import pytest

from ldinfomax import (
    PolytopeSpec,
    ScenarioConfig,
    SolverConfig,
    conditional_error_covariance,
    gradient,
    ld_mutual_information,
    make_scenario,
    preset,
    project_columns,
    run,
)

MIXED_PAIRS = PolytopeSpec(5, ("signed",) * 5, ((0, 1), (1, 2), (2, 3)))


def _scenario(r=5, m=8, n=2000, polytope=None, seed=3000, **extra):
    polytope = preset("linf_nonneg", r) if polytope is None else polytope
    return dict(r=r, m=m, n=n, rho=0.5, snr_db=30.0, polytope=polytope, seed=seed, **extra)


# (scenario per trial, iterations, record_every); a case of several scenarios
# runs as one stack whose configs differ only in seed
SOLVE_CASES = {
    "linf_nonneg-r5": ([_scenario()], 400, 100),
    "linf_nonneg-r12": (
        [_scenario(r=12, m=16, source_mode="uniform_iid", seed=3001)], 60, 20,
    ),
    # N=20,000 takes two column blocks per product
    "l1-n20000": ([_scenario(n=20000, polytope=preset("l1", 5))], 12, 4),
    "l1_nonneg": ([_scenario(polytope=preset("l1_nonneg", 5), seed=3002)], 100, 25),
    "pairs": ([_scenario(polytope=MIXED_PAIRS, seed=3003)], 6, 2),
    "stack-3": ([_scenario(seed=3010 + k) for k in range(3)], 300, 100),
    # the last iteration is no multiple of record_every, so it is a record
    # point of its own; these two digests were recorded on the tree that
    # factored R_s and R_e at every iteration, not only at record points
    "off-grid": ([_scenario(seed=3004)], 137, 40),
    "stack-2-off-grid": ([_scenario(seed=3020 + k) for k in range(2)], 57, 25),
}

# sha256 of the bytes of the raw iterates, the estimates, and the float64
# record [k, objective, then (iteration, objective, sinr) per trajectory point]
# of every trial, stacked in trial order
SOLVE_DIGESTS = {
    "linf_nonneg-r5": (
        "4e17bdf0b8f68edac531b35e0df7d92513ae075137e6825735e9366d9a56018c",
        "d6dacff1fb147e15d59065b38e4b1fecea995b686cdb9530bc784df0334f3f9f",
        "cff57f3c1d765d9d02a6888263b8210c17c767325e3a60bedc8da503c3ad6172",
    ),
    "linf_nonneg-r12": (
        "53f4618f5e9c49265738413421416de0c3561103d28ca826eaf85e18968a9b02",
        "cd05e885b597b4593a73be12532307237f908a1002798c65a6a767e1b5077079",
        "1f651325213377817a9c90fba2de22939823e5e1ffbe896afd4f9b7b29c0af3f",
    ),
    "l1-n20000": (
        "01bf57b7fa9d18f85c525968eb764a46ecdf40fbd4026754d8bc181669bb5a76",
        "b318eabb3a9c88d970dbeba86da2b60b00647c9084a0d2e892ab3e8e98f63eb3",
        "39b58d8ce4c3c3757ca1f7b45c1ff01b39b3ec29d7caca892a63f74cd338e041",
    ),
    "l1_nonneg": (
        "9827b415ac6fb2ea4d24b0b1f72a47c99ed8f2c1bded95db40e3aa7355557561",
        "b23e9015f43284a9f1cf8618344de691d793d6ed7684b55c6af6827801b21243",
        "73860b5e6b9cf4950515843bc9dd317d305fae29b89d8de40f9425401c5a5121",
    ),
    "pairs": (
        "6e258baa36ccaf1f5dd9822f35b76e0ed8337fe061b6b6b18f53c95743b5a210",
        "3ab04b7e063093aedf196b380d8d20b4cbea255e740c5ded8a8db4e71397f16a",
        "2c10aba383aee0dc6f92a20a85e8b83031e0a56b203c841bab4383f903d9b694",
    ),
    "stack-3": (
        "6b822005f1e21e7834fc04fe43209900bcfa37f396730bf99f5cc0fb4eac9932",
        "5974b364dddce4d2f8b793216a2f2064db992b49188052c29c7844646f247bc8",
        "38f42c60e22bcece4a1af3d126b91c2212640a7bece68b522614de7edc2fbba8",
    ),
    "off-grid": (
        "9046e20f3818643d67e86bb4443e8f0e42f8a9cc0808dde72ba979ddec90f2c0",
        "e670e3092eed68eb62961c919d2551d98a3fb53e3ffac0cbd0991a168586fb84",
        "a736555a39e52361c9606651ff50694309f43d59aef54ac85b6ec016487b96c4",
    ),
    "stack-2-off-grid": (
        "d07135d2dc2dcd70529b277243e6245129f84f16dc3314312a6215463c2cb700",
        "8a706252cd107a07ed2e6186e7af76f83a924cc6d6f8bfbd984538494a04b4b9",
        "5a6523f3a8578b367df079d0da0111b81cad334d71abb68ffc688de6014d9766",
    ),
}

MEASURE_DIGESTS = {
    "ld_mutual_information": (
        "86b0e3876ce10b2c8c56ccc90dc2ae33d24b6697b0d041b022fd3b6cf0920efb"
    ),
    "conditional_error_covariance": (
        "754bbe0f18f7501bfd075fcf67a8e914a4d49c56c17ed1729f55d44c17996a71"
    ),
    "gradient": (
        "d0d360bdfbe3aaaca2120f2e29e6b06c051902599ddeb05e1c8994559c60dac9"
    ),
}

# one polytope per projection route: box of one tag and of mixed tags,
# one group over every coordinate (signed, nonnegative, mixed tags), disjoint
# groups, overlapping groups
PROJECTION_CASES = {
    "linf": preset("linf", 5),
    "linf_nonneg": preset("linf_nonneg", 5),
    "box-mixed-tags": PolytopeSpec(4, ("signed", "nonneg", "signed", "nonneg")),
    "l1": preset("l1", 5),
    "l1_nonneg": preset("l1_nonneg", 5),
    "ball-mixed-tags": PolytopeSpec(3, ("signed", "nonneg", "signed"), ((0, 1, 2),)),
    "disjoint": PolytopeSpec(5, ("signed", "nonneg", "signed", "nonneg", "signed"),
                             ((0, 1), (2, 3))),
    # scattered mixed-tag groups beside a loose coordinate
    "disjoint-scattered": PolytopeSpec(
        6, ("signed", "nonneg", "signed", "signed", "nonneg", "nonneg"), ((0, 4), (1, 3, 5))
    ),
    # a contiguous mixed-tag group that starts past row 0
    "disjoint-offset": PolytopeSpec(5, ("nonneg", "signed", "signed", "nonneg", "signed"),
                                    ((2, 3, 4),)),
    "pairs": MIXED_PAIRS,
}

# sha256 of each projection of projection_input(dim); box-mixed-tags and
# disjoint-offset were recorded again when mixed-tag boxes came to be clamped
# one run of one tag at a time with scalar bounds: of their values, only the
# signs of 6 and 46 zeros clamped from -0.0 on nonnegative rows changed, to
# the -0.0 a one-tag box keeps
PROJECTION_DIGESTS = {
    "linf": "58d0edfebd6c88d324e5ce579870b58536636a71481d435c3a94584c11c27be3",
    "linf_nonneg": "492e2ce328ac2705518228418c02bc6597a48495df9e6a78f5db70b19db0ad66",
    "box-mixed-tags": "4a8fe6c2b8866761705dbd28b5979366de2f0050545719065b5fca44c683c71d",
    "l1": "f4d43e4a5743ca1c14fc4be7e2d4e1d4de36bebd833affe482fb36b897d8e637",
    "l1_nonneg": "3195e263c75cc76d9e5cb0209582c1bc1e58fe58d6b1d11cd8d38357baa0334c",
    "ball-mixed-tags": "a278298763c7c62d94b5e461003a233cf508dd05b05dde77088c2898389d10c3",
    "disjoint": "84bb0aa47fd9669aa9ac7243c6fc320ed768704d76c5ee907c75e98f09a9b775",
    "disjoint-scattered": "15166b464ccaec58dcd11f66e59b2a0c0faefdc206067222ae7f08e739a5d36c",
    "disjoint-offset": "288fa2411d703b85045cfee015908fa9efe5d5b5df2cb70ffa5bdb2cb88b6d30",
    "pairs": "a52aa322827c939e1577de7ab96d143badc0772753606d18157ca2527ae7a75e",
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _record(state):
    points = [(pt.iteration, pt.objective, pt.sinr_db) for pt in state.trajectory]
    return np.array([state.k, state.objective, *np.ravel(points)], dtype=float)


def solve_digests(case):
    scenario_kwargs, iterations, record_every = SOLVE_CASES[case]
    scenarios = [make_scenario(ScenarioConfig(**kw)) for kw in scenario_kwargs]
    cfgs = [
        SolverConfig(iterations=iterations, record_every=record_every, seed=kw["seed"])
        for kw in scenario_kwargs
    ]
    p = scenario_kwargs[0]["polytope"]
    truths = [sc.s_true for sc in scenarios]
    if len(scenarios) == 1:
        states = [run(scenarios[0].y, p, cfgs[0], ground_truth=truths[0])]
    else:
        states = run([sc.y for sc in scenarios], p, cfgs, ground_truth=truths)
    return (
        _digest([st.s for st in states]),
        _digest([st.estimate for st in states]),
        _digest(np.concatenate([_record(st) for st in states])),
    )


def measure_digests():
    rng = np.random.default_rng(22)
    s = rng.uniform(size=(5, 500)) + 0.25
    y = rng.standard_normal((8, 5)) @ s + 0.01 * rng.standard_normal((8, 500))
    return {
        "ld_mutual_information": _digest(ld_mutual_information(s, y, 1e-5)),
        "conditional_error_covariance": _digest(conditional_error_covariance(s, y, 1e-5)),
        "gradient": _digest(gradient(s, y, 1e-5)),
    }


def projection_input(dim):
    """Columns in and out of each polytope, with -0.0 entries and columns
    exactly on the unit l1 sphere."""
    rng = np.random.default_rng(2200 + dim)
    v = rng.uniform(-1.5, 1.5, (dim, 600))
    v[:, 200:400] *= 0.25
    v[:, :3] = -0.0
    v[0, 3:300:7] = -0.0
    sphere = 2.0 ** -np.arange(1, dim + 1)
    sphere[-1] *= 2.0
    v[:, 500] = sphere
    v[:, 501] = -sphere
    v[:, 502] = sphere * (-1.0) ** np.arange(dim)
    return v


@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_solve_digests(case):
    assert solve_digests(case) == SOLVE_DIGESTS[case]


def test_measure_digests():
    assert measure_digests() == MEASURE_DIGESTS


@pytest.mark.parametrize("case", list(PROJECTION_CASES))
def test_projection_digests(case):
    p = PROJECTION_CASES[case]
    assert _digest(project_columns(p, projection_input(p.dim))) == PROJECTION_DIGESTS[case]
