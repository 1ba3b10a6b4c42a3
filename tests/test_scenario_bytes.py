"""Every scenario byte, pinned by digest.

The digests were computed when rejection sampling evaluated the copula's t
CDF on every drawn entry; the sampler that skips the CDF on columns it cannot
keep must keep exactly the same columns. Only public names are used, so the
test runs unchanged against either sampler.

The digests pin the arithmetic of the numpy and OpenBLAS build they were
recorded with (numpy 2.4, scipy-openblas 0.3.31), not only the algorithm.
The copula's Cholesky product ``chol @ g`` reaches BLAS's matrix-matrix
kernel, whose rounding depends on the build and on the kernel it picks for
the CPU: the same columns formed one at a time by the matrix-vector kernel
change 13 of the 19 digests. On another BLAS build a failure here can mean
a different kernel, not a different scenario.
"""

import hashlib

import numpy as np
import pytest

from ldinfomax import PolytopeSpec, ScenarioConfig, make_scenario, preset

MIXED_PAIRS = PolytopeSpec(5, ("signed",) * 5, ((0, 1), (1, 2), (2, 3)))

SCENARIO_CASES = {
    **{
        f"{name}-{mode}": dict(r=5, n=2000, polytope=preset(name, 5), source_mode=mode,
                               seed=100 + k)
        for name in ("l1", "linf", "l1_nonneg", "linf_nonneg")
        for k, mode in enumerate(("copula_t", "uniform_iid"))
    },
    "pairs-copula_t": dict(r=5, n=2000, polytope=MIXED_PAIRS, seed=110),
    "pairs-uniform_iid": dict(r=5, n=2000, polytope=MIXED_PAIRS, source_mode="uniform_iid",
                              seed=111),
    **{f"l1-dof{dof}": dict(r=5, n=2000, dof=dof, polytope=preset("l1", 5), seed=120 + dof)
       for dof in (1, 4, 30)},
    "l1_nonneg-scale": dict(r=5, n=2000, polytope=preset("l1_nonneg", 5), l1_mode="scale",
                            seed=130),
    "l1-r8": dict(r=8, m=10, n=200, polytope=preset("l1", 8), seed=140),
    "l1-r12-scale": dict(r=12, m=14, n=2000, polytope=preset("l1", 12), l1_mode="scale",
                         seed=141),
    # at N=20,000 this is the benchmark's signed-l1 scenario
    **{f"l1-n{n}": dict(r=5, n=n, polytope=preset("l1", 5), seed=3000)
       for n in (1, 2000, 20000)},
}

# sha256 of the bytes of s_true, h_mix and y
SCENARIO_DIGESTS = {
    "l1-copula_t": (
        "f1a23e6af5ae09001549355e4a8a2c259b80acae2815559dbf732a5200c51393",
        "b010a768c04de8aede0d4123832c0235799432fb8e1915a8d6a0da8b21925291",
        "0b512d2570fed317a11e9869d582286517d09fbf81250400ddbf973e38906fd1",
    ),
    "l1-uniform_iid": (
        "6a73aab57e9ea32728667695978b969028da75df285fe24edc715e51c272e6fc",
        "774353c4b2650da000176f53f8f95410208fd115b99ad9f0dedf52afc1b8536e",
        "bc2874d3320a271a77a1be69241126cd51532ef12866f7d1b06690f559b49cd5",
    ),
    "linf-copula_t": (
        "3b27aaa0bf89d4fade69d77d4a0cc6100e529ba7196dd74f63c142823e7fca9d",
        "b010a768c04de8aede0d4123832c0235799432fb8e1915a8d6a0da8b21925291",
        "7a9ef4c3b411e91b97a6c6b1d14aec2e4aa95454ca539b40ca461e2cc6deeead",
    ),
    "linf-uniform_iid": (
        "274dac9e4a304f986b9d9376773870ab6b1fe01aee4d3fe6994c30a137cce4ba",
        "774353c4b2650da000176f53f8f95410208fd115b99ad9f0dedf52afc1b8536e",
        "0a9906859f7b8d3cdbd3e089a2e6f3ee1f78908057fdbed886b99527167a84a8",
    ),
    "l1_nonneg-copula_t": (
        "fb94c3618b1f2bd6833bc913893a8f5d447f77f0c2b07e7162082db3f7a231eb",
        "b010a768c04de8aede0d4123832c0235799432fb8e1915a8d6a0da8b21925291",
        "921b7565563b247757e6cfadaf4af489a24cf4ad28cbed212a52f00cd9e4e636",
    ),
    "l1_nonneg-uniform_iid": (
        "2198b5664099a3fa7928ea974afe11b38d3466c01149551560d18847241a45fd",
        "774353c4b2650da000176f53f8f95410208fd115b99ad9f0dedf52afc1b8536e",
        "644e7b93b5b4b8b85fd013632abfcf7ab20c85750aa58483ae967a0d0073e6c8",
    ),
    "linf_nonneg-copula_t": (
        "76bef9aef4bce8aef821428aca7499d4c8c723c9416a659cc093ffae4e8427bc",
        "b010a768c04de8aede0d4123832c0235799432fb8e1915a8d6a0da8b21925291",
        "8e2605fcf807eaf6482b9b230faaed92babbc7e0c65ec583dd6d8ff53ac48fe3",
    ),
    "linf_nonneg-uniform_iid": (
        "017d9145373b36831de43a614fe08fd9e5fd8aec00d600360cbd7eea72ed4b1f",
        "774353c4b2650da000176f53f8f95410208fd115b99ad9f0dedf52afc1b8536e",
        "e6fc8d8cfb305bcc5cb998cad5aa3543e709c69ee45317c4dc78425715af73e1",
    ),
    "pairs-copula_t": (
        "95ace342903b307a5fe595840083493af86294ee78539c981152224f13fbc10c",
        "4b86995392729b291d2cbb364df9987c599109b72c0d31524c8f32b9acb61a37",
        "53b1711f1a0e6e4fe82aea6241c93b8d6f9d123b97189288790df79d752be0ee",
    ),
    "pairs-uniform_iid": (
        "3952ba128b5e0260366bf5ca8df740c81df41c0e6a4891b2e7b0fff125c87d53",
        "092d00e8aadd9b85de2205f5ddbcd1d41d4a2622710037eb09152048266a4bb2",
        "b07ed64bcde2cde8af0bef1470722a8b37eb1051567050cea898827b4281aa3b",
    ),
    "l1-dof1": (
        "ae254c8ea0f3dadbc711f0c7a543a8f738c9457edd2b610bf997f348d90991e9",
        "83e792ba4529f08be60aec9b28d1cc602de2ea1691014338315c5e2b57fcdb4e",
        "79d8f6ab7dc4c6ab358de314c4e5c242d8a446b80df3f158f02bfb71d2e47a19",
    ),
    "l1-dof4": (
        "b8950d27f8d0b004c8bab9b0eeaa8245160e96afa5e4da17271f62576548582e",
        "8777eac97c9e3a1bf832ab88f8b204c74945b85f0acd5faab5fcef63731559f7",
        "c258def6f21636490c21b121df336d7e7f73ad414fba1203758456b01e1ba413",
    ),
    "l1-dof30": (
        "1feedd89dbb842a3d2a33b7d82d10faae84c390b2b9e6ffe651aeafa3b08b3c0",
        "02c8b02f243f3e64088f2c53dee590c64e4c0fa4dcb5a2e0df5a87086ee9202f",
        "652339d37a6e666feaed861781d05ff0502f21cc998d3d18f4a235a694ef8599",
    ),
    "l1_nonneg-scale": (
        "212c25fea905bbbcb68df6506247bb32102ef0be01201abf4bef44fd7fd9a262",
        "615df8552ae30cca148586d6c892ef30077333d9ef29df3b0f4bb5b0eba2464a",
        "0fde01607553a067c59f54203223e537b0bdcf1efedb2b26f46efed6aef69cfa",
    ),
    "l1-r8": (
        "0545626a9cb9bf4dfc064cadc96862dc795c68d48f97c042f0f55f1600c1d0c5",
        "87cd9c1e60cf208b442b84d420550388ce90d4b96f91b04f1d1bdc329f06ab7d",
        "24a379e795cb7d1de6a8c50b8b77cf3e42c44c33acda5e2240c73117d4fc3019",
    ),
    "l1-r12-scale": (
        "87135eb6a044a5c4576416ee32d73a19f9307b51b0a77eb6170af83e31009f55",
        "515dbf6adfa77541e644e09af79ce85519b70b6de00c01bce57761dc23461893",
        "a63bd9fd888059bc9b0203c3ba4d4b53c829c61abedbb5acff07274165fb7363",
    ),
    "l1-n1": (
        "a53ff4ae20fceda05a4d965b2d130c8118c0700abaf01f25a8526f5bcd2a19d8",
        "3d981d6ebb0c7964b2252d5b704e6ba5f088ce80a539de201677eb0b3ddfb9d3",
        "acd620a54918d502a5b3100fc6b3d7edf0ad63b3eff1295312232129248f9220",
    ),
    "l1-n2000": (
        "4200a5dd3a7a352f7effd05839d304a6db409156c70b9d7f4b9ceb1d693dd790",
        "3d981d6ebb0c7964b2252d5b704e6ba5f088ce80a539de201677eb0b3ddfb9d3",
        "92014af03260a00fc1fd4580b08679c5f39a86378aa5d5bd19a33475fd2b8dc5",
    ),
    "l1-n20000": (
        "63a9edacd4e04fc563f7236a76114cf208598144ad529805251004fb074c59d7",
        "3d981d6ebb0c7964b2252d5b704e6ba5f088ce80a539de201677eb0b3ddfb9d3",
        "6b9e2cb64ef0d78e488ad2aad989c273f5c47e220027de79ba15a53ea395c3f0",
    ),
}


@pytest.mark.parametrize("case", list(SCENARIO_CASES))
def test_digests(case):
    sc = make_scenario(ScenarioConfig(**SCENARIO_CASES[case]))
    got = tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (sc.s_true, sc.h_mix, sc.y)
    )
    assert got == SCENARIO_DIGESTS[case]


def test_abort_point():
    # one column of 202,000 drawn is kept at r=12: the message pins both counts
    cfg = ScenarioConfig(r=12, m=14, n=2000, polytope=preset("l1", 12), seed=142)
    with pytest.raises(RuntimeError) as err:
        make_scenario(cfg)
    assert str(err.value) == (
        "rejection acceptance rate 4.95e-06 below 0.0001; "
        "use mode='scale' for this polytope"
    )
