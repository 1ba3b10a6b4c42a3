import numpy as np
import pytest

from ldinfomax.polytopes import (
    PolytopeSpec,
    contains,
    max_violation,
    preset,
    project,
    project_columns,
)
from oracles import QpProjectionOracle


def mixed_sparsity_example():
    """Signed first two coordinates, nonnegative third, overlapping unit-l1
    pairs (1,2) and (2,3)."""
    return PolytopeSpec(3, ("signed", "signed", "nonneg"), ((0, 1), (1, 2)))


# closed form: disjoint groups, and one group over signed and nonnegative coordinates
DISJOINT_GROUPS = PolytopeSpec(
    5, ("signed", "nonneg", "signed", "nonneg", "signed"), ((0, 1), (2, 3))
)
MIXED_TAG_GROUP = PolytopeSpec(4, ("signed", "nonneg", "signed", "nonneg"), ((0, 1, 3),))

ALL_PRESETS = [
    ("l1", preset("l1", 4)),
    ("linf", preset("linf", 4)),
    ("l1_nonneg", preset("l1_nonneg", 4)),
    ("linf_nonneg", preset("linf_nonneg", 4)),
    ("mixed", mixed_sparsity_example()),
    ("disjoint", DISJOINT_GROUPS),
    ("mixed_tag_group", MIXED_TAG_GROUP),
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


class TestProjectBox:
    def test_signed_clamp(self):
        out = project(preset("linf", 2), np.array([2.0, -3.0])).point
        assert np.array_equal(out, [1.0, -1.0])

    def test_nonneg_clamp(self):
        out = project(preset("linf_nonneg", 2), np.array([-0.5, 0.3])).point
        assert np.array_equal(out, [0.0, 0.3])

    def test_interior_unchanged(self):
        v = np.array([0.2, -0.4])
        assert np.array_equal(project(preset("linf", 2), v).point, v)

    def test_matrix_columns(self):
        v = np.array([[2.0, 0.5], [-3.0, 0.1]])
        out = project_columns(preset("linf", 2), v)
        assert np.array_equal(out, [[1.0, 0.5], [-1.0, 0.1]])


class TestProjectL1Group:
    def test_symmetric_face_split(self):
        out = project(preset("l1", 2), np.array([1.0, 1.0])).point
        assert np.allclose(out, [0.5, 0.5])

    def test_feasible_unchanged(self):
        v = np.array([0.3, -0.2])
        assert np.array_equal(project(preset("l1", 2), v).point, v)

    def test_matches_qp_oracle(self):
        oracle = QpProjectionOracle(preset("l1", 4))
        rng = np.random.default_rng(20)
        for _ in range(25):
            v = rng.uniform(-2, 2, 4)
            assert np.allclose(project(preset("l1", 4), v).point, oracle.project(v), atol=1e-8)

    @pytest.mark.parametrize("p", [DISJOINT_GROUPS, MIXED_TAG_GROUP])
    def test_closed_form_matches_qp_oracle(self, p):
        # disjoint groups and a group mixing domain tags need no Dykstra sweeps
        oracle = QpProjectionOracle(p)
        rng = np.random.default_rng(26)
        for _ in range(25):
            v = rng.uniform(-2, 2, p.dim)
            rep = project(p, v)
            assert rep.iterations == 0
            assert np.abs(rep.point - oracle.project(v)).max() <= 1e-12


class TestProject:
    def test_box_only_is_clamp(self):
        p = preset("linf", 3)
        rep = project(p, np.array([5.0, -0.2, -9.0]))
        assert np.allclose(rep.point, [1.0, -0.2, -1.0])
        assert rep.iterations == 0
        assert rep.residual <= 1e-9

    def test_nonneg_simplex_symmetry(self):
        rep = project(preset("l1_nonneg", 3), np.array([1.0, 1.0, 1.0]))
        assert np.allclose(rep.point, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_mixed_example_matches_qp_oracle(self):
        p = mixed_sparsity_example()
        oracle = QpProjectionOracle(p)
        rng = np.random.default_rng(21)
        for _ in range(25):
            v = rng.uniform(-2, 2, 3)
            rep = project(p, v)
            assert np.allclose(rep.point, oracle.project(v), atol=1e-6)

    def test_single_point_only(self):
        with pytest.raises(ValueError):
            project(preset("linf", 2), np.zeros((2, 3)))


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
            assert np.allclose(out[:, j], project(p, s[:, j]).point, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            project_columns(preset("linf", 3), np.zeros((2, 5)))


class TestProjectionProperties:
    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_idempotence(self, name, p):
        rng = np.random.default_rng(23)
        for _ in range(10):
            first = project(p, rng.uniform(-2, 2, p.dim)).point
            second = project(p, first).point
            assert np.allclose(second, first, atol=1e-9)

    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_feasibility(self, name, p):
        rng = np.random.default_rng(24)
        for _ in range(10):
            rep = project(p, rng.uniform(-3, 3, p.dim))
            assert contains(p, rep.point, tol=1e-8)

    @pytest.mark.parametrize("name,p", ALL_PRESETS)
    def test_nonexpansiveness(self, name, p):
        rng = np.random.default_rng(25)
        for _ in range(10):
            u = rng.uniform(-2, 2, p.dim)
            v = rng.uniform(-2, 2, p.dim)
            du = project(p, u).point
            dv = project(p, v).point
            assert np.linalg.norm(du - dv) <= np.linalg.norm(u - v) + 1e-9

    def test_nonneg_l1_equals_capped_simplex(self):
        # violating only the sum constraint: classic nonneg + sum <= 1 projection
        p = preset("l1_nonneg", 3)
        v = np.array([0.5, 0.6, 0.2])
        out = project(p, v).point
        # the constraint is active, so the projection lies on the simplex face
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0)
        oracle = QpProjectionOracle(p)
        assert np.allclose(out, oracle.project(v), atol=1e-8)

    def test_max_violation_reports_worst(self):
        p = preset("l1_nonneg", 2)
        assert max_violation(p, np.array([0.8, 0.8])) == pytest.approx(0.6)
        assert max_violation(p, np.array([0.2, 0.3])) == 0.0
