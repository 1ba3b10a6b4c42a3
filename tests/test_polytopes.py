import functools
import pickle
import warnings

import numpy as np
import pytest

from ldinfomax import polytopes
from ldinfomax.polytopes import (
    PolytopeSpec,
    contains,
    max_violation,
    preset,
    project_columns,
)
from oracles import (
    KktProjectionOracle,
    QpProjectionOracle,
    frozen_signed_l1_ball,
    sort_simplex_threshold,
)

# the exact oracle enumerates its patterns once per polytope
exact_oracle = functools.lru_cache(KktProjectionOracle)


def mixed_sparsity_example():
    """Signed first two coordinates, nonnegative third, overlapping unit-l1
    pairs (1,2) and (2,3)."""
    return PolytopeSpec(3, ("signed", "signed", "nonneg"), ((0, 1), (1, 2)))


def project(p, v):
    """Project a single point as a (dim, 1) column."""
    return project_columns(p, np.asarray(v, dtype=float)[:, None])[:, 0]


@pytest.fixture
def no_newton(monkeypatch):
    """Fail any projection that reaches the overlapping groups' Newton kernel."""
    def fail(*args):
        raise AssertionError("the overlap kernel was reached")
    monkeypatch.setattr(polytopes, "_newton_columns", fail)


# closed form: disjoint groups, and one group over signed and nonnegative coordinates
DISJOINT_GROUPS = PolytopeSpec(
    5, ("signed", "nonneg", "signed", "nonneg", "signed"), ((0, 1), (2, 3))
)
MIXED_TAG_GROUP = PolytopeSpec(4, ("signed", "nonneg", "signed", "nonneg"), ((0, 1, 3),))
# three overlapping signed pairs: columns need different Newton step counts
MIXED_PAIRS = PolytopeSpec(5, ("signed",) * 5, ((0, 1), (1, 2), (2, 3)))

ALL_PRESETS = [
    ("l1", preset("l1", 4)),
    ("linf", preset("linf", 4)),
    ("l1_nonneg", preset("l1_nonneg", 4)),
    ("linf_nonneg", preset("linf_nonneg", 4)),
    ("mixed", mixed_sparsity_example()),
    ("disjoint", DISJOINT_GROUPS),
    ("mixed_tag_group", MIXED_TAG_GROUP),
    ("mixed_pairs", MIXED_PAIRS),
]


class TestSpecValidation:
    def test_group_index_bounds(self):
        with pytest.raises(ValueError):
            PolytopeSpec(2, ("signed", "signed"), ((0, 2),))

    def test_duplicate_group_index(self):
        with pytest.raises(ValueError):
            PolytopeSpec(2, ("signed", "signed"), ((0, 0),))

    def test_empty_group(self):
        with pytest.raises(ValueError):
            PolytopeSpec(2, ("signed", "signed"), ((),))

    def test_bad_domain_tag(self):
        with pytest.raises(ValueError):
            PolytopeSpec(1, ("positive",))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("l2", 3)


class TestBounds:
    def test_read_only_and_built_once(self):
        p = mixed_sparsity_example()
        assert p.lower is p.lower and p.upper is p.upper
        assert np.array_equal(p.lower, [-1.0, -1.0, 0.0])
        assert np.array_equal(p.upper, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            p.lower[0] = 0.0

    def test_pickle_equality_and_hash_ignore_cached_bounds(self):
        p = mixed_sparsity_example()
        fresh = pickle.dumps(p)
        assert p.lower.size == p.upper.size == 3  # builds both cached bounds
        assert pickle.dumps(p) == fresh
        q = pickle.loads(fresh)
        assert q == p and hash(q) == hash(p)
        assert not q.lower.flags.writeable


class TestContains:
    def test_nonneg_simplex_member(self):
        assert contains(preset("l1_nonneg", 3), np.array([0.2, 0.3, 0.4]))

    def test_box_violation(self):
        assert not contains(preset("linf", 2), np.array([1.0 + 1e-6, 0.0]), tol=1e-9)

    def test_mixed_group_violation(self):
        assert not contains(mixed_sparsity_example(), np.array([0.6, 0.5, 0.2]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(preset("linf", 3), np.array([0.0, 0.0]))

    def test_shape_other_than_vector_or_matrix_rejected(self):
        p = PolytopeSpec(2, ("signed", "nonneg"))
        # a feasible (2, 2, 1) stack would broadcast the bounds along the wrong axis
        stack = np.array([[[-0.5], [-0.5]], [[0.2], [0.3]]])
        assert max_violation(p, stack[:, :, 0]) == 0.0
        for bad in (np.array(0.5), stack):
            with pytest.raises(ValueError, match="expected shape"):
                max_violation(p, bad)
            with pytest.raises(ValueError, match="expected shape"):
                contains(p, bad)


class TestProjectBox:
    def test_signed_clamp(self):
        out = project(preset("linf", 2), np.array([2.0, -3.0]))
        assert np.array_equal(out, [1.0, -1.0])

    def test_nonneg_clamp(self):
        out = project(preset("linf_nonneg", 2), np.array([-0.5, 0.3]))
        assert np.array_equal(out, [0.0, 0.3])

    def test_interior_unchanged(self):
        v = np.array([0.2, -0.4])
        assert np.array_equal(project(preset("linf", 2), v), v)

    def test_matrix_columns(self):
        v = np.array([[2.0, 0.5], [-3.0, 0.1]])
        out = project_columns(preset("linf", 2), v)
        assert np.array_equal(out, [[1.0, 0.5], [-1.0, 0.1]])


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_row_clip(p, v):
    return np.clip(v, p.lower[:, None], p.upper[:, None])


MIXED_DOMAINS = PolytopeSpec(4, ("signed", "nonneg", "signed", "nonneg"))


class TestClamp:
    """The box clamps each run of rows of one tag with scalar bounds, which
    must give the values of the per-row bounds. (Scalar bounds keep the sign
    of a -0.0 on a zero lower bound; the solver's clamps are never given a
    -0.0.)"""

    @pytest.mark.parametrize("p", [preset(name, 4) for name in polytopes.PRESET_NAMES]
                             + [MIXED_DOMAINS], ids=[*polytopes.PRESET_NAMES, "mixed_domains"])
    def test_equals_per_row_clip(self, p):
        v = np.random.default_rng(30).uniform(-3.0, 3.0, (p.dim, 60))
        v[:, :4] = [[np.inf, -np.inf, np.nan, -0.0]] * p.dim
        v[0, 4:8] = [np.nan, np.inf, -np.inf, 0.0]
        assert np.array_equal(polytopes._clamp(p, v, np.empty_like(v)), per_row_clip(p, v),
                              equal_nan=True)
        if not p.l1_groups:
            assert np.array_equal(project_columns(p, v), per_row_clip(p, v), equal_nan=True)

    @pytest.mark.parametrize("n", [2, 8, 600])
    @pytest.mark.parametrize("domains", [
        ("signed", "nonneg"), ("nonneg", "signed", "nonneg"), MIXED_DOMAINS.domains,
    ], ids=["2-rows", "3-rows", "4-rows"])
    def test_negative_zero_keeps_its_sign_at_every_shape(self, domains, n):
        # 0.5 on signed rows and -0.0 on nonnegative ones, alone and inside a stack
        p = PolytopeSpec(len(domains), domains)
        column = np.where(p.lower < 0.0, 0.5, -0.0)[:, None]
        stack = np.random.default_rng(32).uniform(-2.0, 2.0, (p.dim, n))
        stack[:, n // 2] = column[:, 0]
        alone = project_columns(p, column)
        assert same_bytes(project_columns(p, stack)[:, n // 2:n // 2 + 1], alone)
        assert np.signbit(alone[p.lower == 0.0]).all()

    @pytest.mark.parametrize("p", [MIXED_PAIRS, mixed_sparsity_example()],
                             ids=["mixed_pairs", "mixed"])
    def test_overlap_route_clips_on_its_own(self, monkeypatch, p):
        # the overlap kernel clips magnitudes to [0, 1] itself, never the box
        v = np.random.default_rng(31).uniform(-2.0, 2.0, (p.dim, 300))
        out = project_columns(p, v)
        monkeypatch.setattr(polytopes, "_clamp", None)
        assert same_bytes(out, project_columns(p, v))


class TestProjectL1Group:
    def test_symmetric_face_split(self):
        out = project(preset("l1", 2), np.array([1.0, 1.0]))
        assert np.allclose(out, [0.5, 0.5])

    def test_feasible_unchanged(self):
        v = np.array([0.3, -0.2])
        assert np.array_equal(project(preset("l1", 2), v), v)

    def test_matches_qp_oracle(self):
        oracle = QpProjectionOracle(preset("l1", 4))
        rng = np.random.default_rng(20)
        for _ in range(25):
            v = rng.uniform(-2, 2, 4)
            assert np.allclose(project(preset("l1", 4), v), oracle.project(v), atol=1e-8)

    @pytest.mark.parametrize("p", [DISJOINT_GROUPS, MIXED_TAG_GROUP])
    def test_closed_form_matches_qp_oracle(self, p, no_newton):
        # disjoint groups and a group mixing domain tags need no Newton steps
        oracle = QpProjectionOracle(p)
        rng = np.random.default_rng(26)
        for _ in range(25):
            v = rng.uniform(-2, 2, p.dim)
            assert np.abs(project(p, v) - oracle.project(v)).max() <= 1e-12
        with pytest.raises(AssertionError, match="overlap kernel"):
            project(MIXED_PAIRS, rng.uniform(-2, 2, MIXED_PAIRS.dim))


class CountingNumpy:
    """numpy with its ``greater`` calls counted: one per pass of the threshold."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def greater(self, *args, **kwargs):
        self.passes += 1
        return np.greater(*args, **kwargs)


def slow_column(r):
    """A column from which each pass of the fixed point drops one entry: every
    entry sits just below the threshold of the entries above it, by gaps that
    grow fast enough that the next pass keeps the entry above it."""
    d, total, gap = [2.0], 2.0, 1e-12
    for m in range(2, r + 1):
        gap *= m
        d.append((total - 1.0) / (m - 1) - gap)
        total += d[-1]
    return np.array(d)[:, None]


def over_budget_columns(r, rng):
    """Nonnegative columns summing to more than 1: random ones, ones barely
    over, ties, zeros, one dominant entry, entries equal to the threshold
    (0.75, 0.75 and the rest 0.25 have theta 0.25), and :func:`slow_column`."""
    random = rng.exponential(size=(r, 400))
    random *= (1.0 + rng.exponential(3.0, 400)) / random.sum(axis=0)
    barely = rng.uniform(size=(r, 400))
    barely *= (1.0 + 1e-9) / barely.sum(axis=0)
    ties = np.repeat(rng.uniform(0.3, 1.0, (r // 2 + 1, 1)), 2, axis=0)[:r]
    zeros = np.zeros((r, 1))
    zeros[0] = 1.5
    dominant = np.full((r, 1), 0.1)
    dominant[-1] = 5.0
    at_theta = np.full((r, 1), 0.25)
    at_theta[:2] = 0.75
    cols = np.hstack([
        random, barely, ties, np.full((r, 1), 2.0 / r), zeros, dominant, at_theta, slow_column(r),
    ])
    return cols[:, cols.sum(axis=0) > 1.0]


class TestSimplexThreshold:
    """Michelot's fixed point against the sort formula of ``oracles``."""

    @pytest.mark.parametrize("r", range(1, 13))
    def test_matches_sort_oracle(self, r, monkeypatch):
        u = over_budget_columns(r, np.random.default_rng(40 + r))
        counting = CountingNumpy()
        monkeypatch.setattr(polytopes, "np", counting)
        theta = polytopes._simplex_threshold(u.copy())
        monkeypatch.undo()
        # theta is (sum - 1) / count, so its rounding scales with the column sum
        ulp = np.spacing(u.sum(axis=0))
        assert np.all(np.abs(theta - sort_simplex_threshold(u)) <= 4 * ulp)
        x = np.maximum(u - theta, 0.0)
        assert np.all(np.abs(x.sum(axis=0) - 1.0) <= 4 * ulp)
        assert contains(preset("l1_nonneg", r), project_columns(preset("l1_nonneg", r), u))
        # at most r passes, and the slow column takes every one of them
        assert counting.passes == r

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_huge_equal_entries_stay_finite(self, r):
        # sum - 1 rounds to the sum, so the first theta equals every entry
        # and keeps none of them
        u = np.full((r, 3), 1e16)
        theta = polytopes._simplex_threshold(u.copy())
        assert np.all(np.isfinite(theta))
        for name in ("l1", "l1_nonneg"):
            out = project_columns(preset(name, r), u)
            assert np.all(np.isfinite(out))
            assert contains(preset(name, r), out)


class TestProject:
    def test_box_only_is_clamp(self, no_newton):
        p = preset("linf", 3)
        out = project(p, np.array([5.0, -0.2, -9.0]))
        assert np.array_equal(out, [1.0, -0.2, -1.0])
        assert max_violation(p, out) == 0.0

    def test_nonneg_simplex_symmetry(self):
        out = project(preset("l1_nonneg", 3), np.array([1.0, 1.0, 1.0]))
        assert np.allclose(out, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_mixed_example_matches_qp_oracle(self):
        p = mixed_sparsity_example()
        oracle = QpProjectionOracle(p)
        rng = np.random.default_rng(21)
        for _ in range(25):
            v = rng.uniform(-2, 2, 3)
            assert np.allclose(project(p, v), oracle.project(v), atol=1e-6)


class TestProjectColumns:
    def test_feasible_unchanged(self):
        p = preset("l1_nonneg", 3)
        s = np.array([[0.1, 0.2], [0.1, 0.3], [0.1, 0.4]])
        assert np.allclose(project_columns(p, s), s)

    def test_only_infeasible_column_changes(self):
        p = preset("l1_nonneg", 2)
        s = np.array([[0.2, 2.0], [0.3, 2.0]])
        out = project_columns(p, s)
        assert np.allclose(out[:, 0], s[:, 0])
        assert not np.allclose(out[:, 1], s[:, 1])

    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_columnwise_equals_per_vector(self, name, p):
        rng = np.random.default_rng(22)
        s = rng.uniform(-2, 2, (p.dim, 30))
        out = project_columns(p, s)
        for j in range(s.shape[1]):
            assert np.array_equal(out[:, j], project_columns(p, s[:, j:j + 1])[:, 0])

    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_zero_columns(self, name, p):
        empty = np.zeros((p.dim, 0))
        out = project_columns(p, empty)
        assert out.shape == (p.dim, 0)
        assert max_violation(p, empty) == 0.0
        assert contains(p, empty)

    def test_step_cap_raises(self, monkeypatch):
        s = np.random.default_rng(29).normal(0.0, 2.0, (MIXED_PAIRS.dim, 40))
        settled = project_columns(MIXED_PAIRS, s)
        monkeypatch.setattr(polytopes, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"columns not settled after 1 Newton steps"):
            project_columns(MIXED_PAIRS, s)
        # a column inside the polytope settles before any step
        inside = settled[:, :1] * 0.5
        assert np.array_equal(project_columns(MIXED_PAIRS, inside), inside)

    def test_silent_on_project_heavy_sized_inputs(self):
        # heavy-tailed steps, as the solver's first iterations take them
        s = np.random.default_rng(28).standard_cauchy((MIXED_PAIRS.dim, 2000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_columns(MIXED_PAIRS, s)
        assert contains(MIXED_PAIRS, out)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            project_columns(preset("linf", 3), np.zeros((2, 5)))


# every route of project_columns: box with one tag (one run) and with mixed
# tags (a run per tag), one group over every coordinate (signed,
# nonnegative, mixed tags), disjoint groups, overlapping groups, and disjoint
# groups scattered beside a coordinate in no group or starting past row 0
OUT_ROUTES = [
    ("box_scalar", preset("linf", 4)),
    ("box_scalar_nonneg", preset("linf_nonneg", 4)),
    ("box_columns", MIXED_DOMAINS),
    ("ball", preset("l1", 4)),
    ("ball_nonneg", preset("l1_nonneg", 4)),
    ("ball_mixed_tags", PolytopeSpec(3, ("signed", "nonneg", "signed"), ((0, 1, 2),))),
    ("disjoint", DISJOINT_GROUPS),
    ("overlap", MIXED_PAIRS),
    ("disjoint_scattered", PolytopeSpec(
        6, ("signed", "nonneg", "signed", "signed", "nonneg", "nonneg"), ((0, 4), (1, 3, 5)))),
    ("disjoint_offset", PolytopeSpec(
        5, ("nonneg", "signed", "signed", "nonneg", "signed"), ((2, 3, 4),))),
]


def out_columns(dim, rng):
    """Columns in and out of every route's polytope, with -0.0 entries and
    columns exactly on the unit l1 sphere (powers of two summing to 1)."""
    v = rng.uniform(-1.5, 1.5, (dim, 120))
    v[:, 40:80] *= 0.2  # mostly inside the ball
    v[:, :2] = -0.0
    v[0, 2:60:3] = -0.0
    sphere = 2.0 ** -np.arange(1, dim + 1)
    sphere[-1] *= 2.0
    v[:, 100] = sphere
    v[:, 101] = -sphere
    v[:, 102] = sphere * (-1.0) ** np.arange(dim)
    v[:, 103] = 0.0
    v[-1, 103] = -1.0
    return v


class TestProjectColumnsOut:
    @pytest.mark.parametrize("name,p", OUT_ROUTES)
    def test_out_holds_the_returned_bits(self, name, p):
        v = out_columns(p.dim, np.random.default_rng(40))
        expected = project_columns(p, v)
        out = np.full_like(v, np.nan)
        assert project_columns(p, v, out=out) is out
        assert same_bytes(out, expected)
        assert contains(p, out)

    @pytest.mark.parametrize("name,p", OUT_ROUTES)
    def test_out_as_a_view_of_a_larger_buffer(self, name, p):
        # the solver's source rows: the first rows of a (rows, T, N) buffer
        v = out_columns(p.dim, np.random.default_rng(41))
        buffer = np.full((p.dim + 3, 2, v.shape[1] // 2), np.nan)
        out = buffer[:p.dim].reshape(p.dim, -1)
        project_columns(p, v, out=out)
        assert same_bytes(buffer[:p.dim].reshape(p.dim, -1), project_columns(p, v))
        assert np.isnan(buffer[p.dim:]).all()

    @pytest.mark.parametrize("dim", [1, 4, 5])
    def test_signed_ball_keeps_columns_inside_bit_for_bit(self, dim):
        # a column on or inside the signed ball is its own projection, -0.0
        # entries included: copysign(|v|, v) is v for every finite v
        p = preset("l1", dim)
        v = out_columns(dim, np.random.default_rng(42))
        out = project_columns(p, v, out=np.empty_like(v))
        inside = np.abs(v).sum(axis=0) <= 1.0
        assert inside[[0, 1, 100, 101, 102, 103]].all() and inside.sum() > 10
        assert same_bytes(out[:, inside], v[:, inside])
        assert np.signbit(out[:, :2]).all()
        assert contains(p, out) and not np.array_equal(out[:, ~inside], v[:, ~inside])

    @pytest.mark.parametrize("name,p", OUT_ROUTES)
    def test_zero_columns_into_out(self, name, p):
        out = np.empty((p.dim, 0))
        assert project_columns(p, np.zeros((p.dim, 0)), out=out) is out

    @pytest.mark.parametrize("name,p", OUT_ROUTES)
    def test_bad_out_raises(self, name, p):
        v = out_columns(p.dim, np.random.default_rng(43))
        for bad in (np.empty((p.dim, v.shape[1] - 1)), np.empty((v.shape[1], p.dim)),
                    np.empty(v.shape, dtype=np.float32), v.tolist()):
            with pytest.raises(ValueError, match="out must be a float array"):
                project_columns(p, v, out=bad)
        buffer = np.zeros((p.dim + 1, v.shape[1]))
        for s, shared in ((v, v), (v, v[::-1]), (buffer[:p.dim], buffer[1:])):
            with pytest.raises(ValueError, match="out must not share memory"):
                project_columns(p, s, out=shared)


# columns of the first steps of a solve on MIXED_PAIRS on which Dykstra's
# alternating projection stopped at its 200-sweep cap: the first three
# feasible yet a unit away from the projection, the last one infeasible
CAPPED_DYKSTRA_COLUMNS = np.array([
    [-33.32187770911466, -87.38606233762798, 161.553498385933, 220.71291500561244,
     3.9649355309762693],
    [-66.55527504714165, -73.81269028912843, 335.3954892750996, 397.724303163795,
     -14.841467698600221],
    [22.50105792967858, 102.32740271066982, -202.55322787767875, 230.13787501817038,
     0.26476024845902735],
    [7.042311849207054, -30.463564104355164, -103.75093179083753, 149.16930617275054,
     -2.8673928143417817],
]).T

THREE_GROUPS_NONNEG = PolytopeSpec(
    4, ("nonneg", "signed", "nonneg", "signed"), ((0, 1), (1, 2, 3), (0, 3))
)
NESTED_GROUPS = PolytopeSpec(4, ("signed",) * 4, ((0, 1, 2), (1, 2)))
OVERLAPPING = [
    ("mixed_pairs", MIXED_PAIRS),
    ("mixed", mixed_sparsity_example()),
    ("three_groups_nonneg", THREE_GROUPS_NONNEG),
    ("nested", NESTED_GROUPS),
]


# columns whose dual has kinks or zero multipliers at or near the optimum, with
# their projections found by enumerating active sets in exact rational
# arithmetic: the first came up in a 5,000-step solve on MIXED_PAIRS. The last
# two, near |v| = 1e6, each raise without one rule of the kernel, and their
# projections were checked against the KKT conditions by hand: the first moves
# along a flat direction of the dual and needs the stop where a clipped
# coordinate returns to 1/2; in the second a multiplier at zero gets a
# negative Newton component and needs the re-solve with it bound
KINK_COLUMNS = [
    (MIXED_PAIRS,
     [0.38557175501176033, 0.2848714099096099, -0.14204845690962342, 1.1420469337055967,
      -0.034586097887556067],
     [0.38557175501176033, 0.2848714099096099, -7.616020133438539e-07, 0.9999992383979867,
      -0.034586097887556067]),
    (PolytopeSpec(4, ("signed",) * 4, ((0, 1, 2), (1, 2, 3), (0, 3))),
     [-0.25, 0.5, -0.375, -0.875], [-0.25, 0.25, -0.125, -0.625]),
    (PolytopeSpec(4, ("signed",) * 4, ((0, 1), (0, 2), (0, 3))),
     [2.0000000019343873, 1.4999999993788116, -1.999999999814727, 1.9999999986666732],
     [0.0, 1.0, -1.0, 1.0]),
    (THREE_GROUPS_NONNEG,
     [2.4999999995636752, 1.500000002270669, 2.4999999982934256, 2.9999999971744136],
     [0.9999999995293491, 4.706508833456675e-10, 0.9999999990586982, 4.706508833456675e-10]),
    (PolytopeSpec(8, ("signed",) * 3 + ("nonneg", "nonneg", "signed", "nonneg", "nonneg"),
                  ((0, 1, 2, 3, 4, 5), (0, 4, 5, 7), (1, 2, 5), (2, 3, 4, 6), (1, 2, 3, 4, 6, 7))),
     [600625.5, -25777.75, 802986.25, 810238.5, 163123.5, -693929.25, -306084.0, 439245.5],
     [0.0, 0.0, 0.0, 0.5, 0.0, -0.5, 0.0, 0.5]),
    (PolytopeSpec(5, ("nonneg", "signed", "signed", "nonneg", "nonneg"),
                  ((0, 1, 3, 4), (0, 1, 3, 4), (0, 2, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4),
                   (0, 2, 3, 4))),
     [747548.5, -537380.0, 730694.0, 718358.5, -715219.0],
     [1.0, 0.0, 0.0, 0.0, 0.0]),
]


# the closed-form l1 balls, whose sums must not depend on the number of columns
L1_BALLS = [(f"{name}_{r}", preset(name, r)) for name in ("l1", "l1_nonneg") for r in (5, 8, 12)]


def varied_columns(dim, scale, rng):
    """Normal and uniform columns at ``scale``, some rounded to integers
    (ties and entries on the box faces), zeros and one huge column."""
    v = rng.normal(0.0, scale, (dim, 60))
    v[:, :20] = rng.uniform(-scale, scale, (dim, 20))
    v[:, 20:30] = np.round(v[:, 20:30])
    v[:, 30] = 0.0
    v[:, 31] = 1e6 * np.sign(v[:, 31])
    return v


def kernel_columns(dim, rng, n=2000):
    """n columns of five kinds, n // 5 each, in shuffled order: normal at
    scales 0.05-3; multiples of 1/2, 1/4 or 1/8 (ties, and columns on the
    unit sphere and on its kinks); half their entries +-0.0; rescaled to an
    l1 norm of 1, 1 +- 1e-15 or 1 + 1e-9; and 1e16 entries, a few columns all
    of them."""
    k = n // 5
    normal = rng.normal(0.0, 1.0, (dim, k)) * rng.choice([0.05, 0.3, 1.0, 3.0], k)
    grid = rng.integers(-8, 9, (dim, k)) / rng.choice([2.0, 4.0, 8.0], k)
    zeros = np.where(rng.random((dim, k)) < 0.5, rng.choice([-0.0, 0.0], (dim, k)),
                     rng.uniform(-0.6, 0.6, (dim, k)))
    sphere = rng.uniform(-1.0, 1.0, (dim, k))
    sphere *= (1.0 + rng.choice([-1e-15, 0.0, 1e-15, 1e-9], k)) / np.abs(sphere).sum(axis=0)
    huge = rng.normal(0.0, 1.0, (dim, k))
    huge[rng.random((dim, k)) < 0.4] = 1e16
    huge[:, :10] = 1e16
    huge[:, 5:15] *= -1.0
    return np.hstack([normal, grid, zeros, sphere, huge])[:, rng.permutation(5 * k)]


class TestOverlapKernel:
    """Projected Newton on the group multipliers against the exact KKT oracle."""

    def test_capped_dykstra_columns_match_oracle(self):
        oracle = exact_oracle(MIXED_PAIRS)
        out = project_columns(MIXED_PAIRS, CAPPED_DYKSTRA_COLUMNS)
        for j, v in enumerate(CAPPED_DYKSTRA_COLUMNS.T):
            assert np.abs(out[:, j] - oracle.project(v)).max() <= 1e-10

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0, 1e3])
    @pytest.mark.parametrize("name,p", OVERLAPPING)
    def test_matches_qp_oracle(self, name, p, scale):
        v = varied_columns(p.dim, scale, np.random.default_rng(int(scale * 10) + p.dim))
        out = project_columns(p, v)
        assert contains(p, out)
        oracle = exact_oracle(p)
        for j in range(31):  # column 31 is +-1e6, settled to 1e-12 of its own scale
            assert np.abs(out[:, j] - oracle.project(v[:, j])).max() <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("name,p", [("mixed_pairs", MIXED_PAIRS),
                                        ("mixed", mixed_sparsity_example())])
    def test_grid_kink_columns_match_exact_oracle(self, name, p):
        # multiples of 1/2, 1/4 or 1/8 just off the kinks, where the QP
        # oracle's 1e-9 feasibility slack can pick a wrong active set
        rng = np.random.default_rng(35)
        oracle = exact_oracle(p)
        for grid in (2, 4, 8):
            for eps in (1e-9, 1e-8, 1e-7, 1e-6):
                v = np.round(rng.uniform(-3.0, 3.0, (p.dim, 20)) * grid) / grid
                v += eps * rng.standard_normal(v.shape)
                out = project_columns(p, v)
                for j in range(v.shape[1]):
                    assert np.abs(out[:, j] - oracle.project(v[:, j])).max() <= 1e-12

    @pytest.mark.parametrize("p, v, exact", [c for c in KINK_COLUMNS if c[0].dim <= 6])
    def test_exact_oracle_gives_the_kink_projections(self, p, v, exact):
        # the oracle itself, on the projections verified by hand or by rational enumeration
        assert np.array_equal(exact_oracle(p).project(np.array(v)), exact)

    @pytest.mark.parametrize("name,p", OVERLAPPING + L1_BALLS)
    def test_stack_equals_one_column_projections(self, name, p):
        rng = np.random.default_rng(32)
        v = np.hstack([varied_columns(p.dim, scale, rng) for scale in (0.5, 2.0, 1e3)]
                      + [kernel_columns(p.dim, rng, 100)])
        out = project_columns(p, v)
        for j in range(v.shape[1]):
            assert same_bytes(out[:, j], project_columns(p, v[:, j:j + 1])[:, 0])

    @pytest.mark.parametrize("name,p", OVERLAPPING)
    def test_settles_near_kinks(self, name, p):
        # grid inputs put coordinates on the kinks r = 0 and r = 1 of the dual,
        # exactly or within a perturbation, and multipliers on zero
        rng = np.random.default_rng(34)
        for grid in (2, 4, 8):
            for eps in (0.0, 1e-13, 1e-9, 1e-6):
                v = np.round(rng.uniform(-3.0, 3.0, (p.dim, 500)) * grid) / grid
                v += eps * rng.standard_normal(v.shape)
                assert contains(p, project_columns(p, v))

    @pytest.mark.parametrize("p, v, exact", KINK_COLUMNS, ids=[
        "bounce_across_a_kink", "multiplier_a_rounding_error_above_zero",
        "flat_direction_on_a_kink", "coordinates_on_kinks", "flat_direction_stop",
        "bound_set_re_solve",
    ])
    def test_kink_columns_match_exact_projection(self, p, v, exact):
        out = project_columns(p, np.array(v)[:, None])[:, 0]
        assert np.abs(out - exact).max() <= 1e-15

    @pytest.mark.parametrize("p, v", [
        (PolytopeSpec(5, ("signed", "signed", "signed", "nonneg", "signed"),
                      ((0, 1, 3, 4), (0, 1, 2, 3, 4), (4,), (1, 2, 3, 4))),
         [-2.1406524402865115e-09, -0.5000000008984236, -6.456372982268688e-10,
          0.25000000101045133, -0.24999999943742363]),
        (PolytopeSpec(5, ("nonneg", "nonneg", "signed", "nonneg", "nonneg"),
                      ((0, 1, 2, 3, 4), (2, 3, 4), (1, 2), (2, 3), (0, 1, 2, 4), (1,))),
         [4.464381253692031e-11, 0.5000000015385841, -0.5000000002500269,
          1.9094230932930827e-09, -6.327952947720797e-10]),
        (PolytopeSpec(6, ("signed", "signed", "nonneg", "signed", "nonneg", "nonneg"),
                      ((1, 2, 3, 5), (1, 2, 3, 4), (0, 1, 2, 3, 4), (2, 3, 4, 5), (1, 2, 3, 4, 5))),
         [-1.076537168476253e-09, 0.250000000560637, 0.24999999972511242,
          -0.49999999978486753, -3.682759394875218e-10, -1.1639820155677468e-10]),
    ], ids=["group_inside_a_group", "six_nested_groups", "five_nested_groups"])
    def test_nested_groups_on_a_face_settle(self, p, v):
        # inputs within 1e-9 of a face of nested groups: the Newton step
        # could go to either of two multipliers, and the stalled column's
        # damped direction splits it; the last one also needs the bound
        # multipliers' steps in the free ones' system
        out = project_columns(p, np.array(v)[:, None])
        assert contains(p, out)
        assert np.abs(out[:, 0] - v).max() <= 1e-8

    def test_non_finite_column_stops_at_once(self):
        v = np.random.default_rng(33).uniform(-2.0, 2.0, (MIXED_PAIRS.dim, 4))
        v[1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_columns(MIXED_PAIRS, v)
        assert np.isnan(out[:, 2]).any()
        keep = [0, 1, 3]
        assert same_bytes(out[:, keep], project_columns(MIXED_PAIRS, v[:, keep]))


class TestProjectionProperties:
    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_idempotence(self, name, p):
        rng = np.random.default_rng(23)
        for _ in range(10):
            first = project(p, rng.uniform(-2, 2, p.dim))
            second = project(p, first)
            assert np.allclose(second, first, atol=1e-9)

    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_feasibility(self, name, p):
        rng = np.random.default_rng(24)
        for _ in range(10):
            assert contains(p, project(p, rng.uniform(-3, 3, p.dim)), tol=1e-8)

    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_nonexpansiveness(self, name, p):
        rng = np.random.default_rng(25)
        for _ in range(10):
            u = rng.uniform(-2, 2, p.dim)
            v = rng.uniform(-2, 2, p.dim)
            du = project(p, u)
            dv = project(p, v)
            assert np.linalg.norm(du - dv) <= np.linalg.norm(u - v) + 1e-9

    def test_nonneg_l1_equals_capped_simplex(self):
        # violating only the sum constraint: classic nonneg + sum <= 1 projection
        p = preset("l1_nonneg", 3)
        v = np.array([0.5, 0.6, 0.2])
        out = project(p, v)
        # the constraint is active, so the projection lies on the simplex face
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0)
        oracle = QpProjectionOracle(p)
        assert np.allclose(out, oracle.project(v), atol=1e-8)

    def test_max_violation_reports_worst(self):
        p = preset("l1_nonneg", 2)
        assert max_violation(p, np.array([0.8, 0.8])) == pytest.approx(0.6)
        assert max_violation(p, np.array([0.2, 0.3])) == 0.0


class TestSignedBallBytes:
    """The all-signed l1 ball, which takes ``v`` back and signs only the
    columns it moves, gives byte for byte what it gave when it signed every
    entry (``oracles.frozen_signed_l1_ball``)."""

    @pytest.mark.parametrize("r", range(1, 13))
    def test_matches_signing_every_entry(self, r):
        v = kernel_columns(r, np.random.default_rng(700 + r))
        out = project_columns(preset("l1", r), v, out=np.empty_like(v))
        assert same_bytes(out, frozen_signed_l1_ball(v))
