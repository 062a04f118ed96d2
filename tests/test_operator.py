import numpy as np
import pytest

from conftest import PAPER_GEOM, SMALL_PRESET_GEOM, TINY_GEOM
from truncated_hilbert import (Geometry, SampledGrid, apply_adjoint,
                               apply_forward, build_operator, make_phantom,
                               weighted_dot, weighted_norm)
from truncated_hilbert.errors import GridError


class TestGridType:
    def test_points(self):
        g = SampledGrid(start=1.5, step=0.5, count=4)
        np.testing.assert_allclose(g.points, [1.5, 2.0, 2.5, 3.0])

    def test_validation(self):
        with pytest.raises(GridError):
            SampledGrid(start=0.0, step=0.0, count=3)
        with pytest.raises(GridError):
            SampledGrid(start=0.0, step=1.0, count=0)


class TestBuildOperator:
    def test_paper_shape(self, paper_op):
        assert paper_op.shape == (1351, 1276)

    def test_tiny_shape_by_enumeration(self, tiny_op):
        # data: 0..6 step 1 -> 7; object candidates 1.5..8.5 clipped below 8
        assert tiny_op.shape == (7, 7)
        np.testing.assert_allclose(tiny_op.data_grid.points, np.arange(7.0))
        np.testing.assert_allclose(tiny_op.object_grid.points, 1.5 + np.arange(7.0))

    def test_entry_sign_and_value(self, tiny_op):
        x = tiny_op.data_grid.points
        y = tiny_op.object_grid.points
        i = int(np.argmax(x < TINY_GEOM.a2))       # some x_i < a2
        j = int(np.argmax(y > TINY_GEOM.a2))       # some y_j > a2
        assert tiny_op.matrix[i, j] > 0
        assert tiny_op.matrix[i, j] == pytest.approx(
            tiny_op.step / np.pi / (y[j] - x[i]), rel=1e-15)

    def test_collision_raises(self):
        # non-multiple breakpoint puts object samples onto data samples
        with pytest.raises(GridError):
            build_operator(Geometry(0.0, 2.5, 6.0, 8.0), step=1.0, shift=0.5)

    def test_shift_validation(self):
        with pytest.raises(GridError):
            build_operator(TINY_GEOM, shift=0.0)
        with pytest.raises(GridError):
            build_operator(TINY_GEOM, shift=1.0)
        with pytest.raises(GridError):
            build_operator(TINY_GEOM, step=-1.0)

    def test_half_step_counts(self):
        op = build_operator(TINY_GEOM, step=0.5, shift=0.5)
        assert op.data_grid.count == 13            # 0..6 step 0.5
        assert op.object_grid.points[0] == pytest.approx(1.75)
        assert op.object_grid.points[-1] < TINY_GEOM.a4


class TestApply:
    def test_zero_maps_to_zero(self, tiny_op):
        np.testing.assert_array_equal(
            apply_forward(tiny_op, np.zeros(7)), np.zeros(7))
        np.testing.assert_array_equal(
            apply_adjoint(tiny_op, np.zeros(7)), np.zeros(7))

    def test_linearity(self, tiny_op):
        rng = np.random.default_rng(7)
        f1, f2 = rng.standard_normal(7), rng.standard_normal(7)
        lhs = apply_forward(tiny_op, 2.0 * f1 + f2)
        rhs = 2.0 * apply_forward(tiny_op, f1) + apply_forward(tiny_op, f2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_dimension_mismatch(self, tiny_op):
        with pytest.raises(ValueError):
            apply_forward(tiny_op, np.zeros(8))
        with pytest.raises(ValueError):
            apply_adjoint(tiny_op, np.zeros(6))

    def test_adjoint_identity(self, tiny_op):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(7)
        g = rng.standard_normal(7)
        lhs = weighted_dot(apply_forward(tiny_op, f), g, tiny_op.step)
        rhs = weighted_dot(f, apply_adjoint(tiny_op, g), tiny_op.step)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_adjoint_basis_vector_reads_row(self, tiny_op):
        e0 = np.zeros(7)
        e0[3] = 1.0
        np.testing.assert_allclose(apply_adjoint(tiny_op, e0),
                                   tiny_op.matrix[3, :], atol=0)


class TestForwardOracle:
    """Indicator transform against (1/pi) log|(d-x)/(c-x)|."""

    C, D = 40.0, 70.0

    def _max_err(self, step):
        op = build_operator(SMALL_PRESET_GEOM, step=step)
        f = make_phantom("indicator", SMALL_PRESET_GEOM, op.object_grid,
                         c=self.C, d=self.D)
        h = apply_forward(op, f)
        xs = op.data_grid.points
        keep = (np.abs(xs - self.C) > 1.0) & (np.abs(xs - self.D) > 1.0)
        oracle = np.log(np.abs((self.D - xs[keep]) / (self.C - xs[keep]))) / np.pi
        return float(np.abs(h[keep] - oracle).max())

    def test_matches_log_oracle(self):
        assert self._max_err(1.0) <= 3.0 * 1.0
        assert self._max_err(1.0) < 0.01   # much tighter in practice

    def test_error_drops_when_step_halves(self):
        assert self._max_err(0.5) <= self._max_err(1.0) / 1.5


class TestWeightedNorms:
    def test_indicator_norm_approaches_sqrt_width(self):
        for step in (1.0, 0.5):
            op = build_operator(SMALL_PRESET_GEOM, step=step)
            f = make_phantom("indicator", SMALL_PRESET_GEOM, op.object_grid,
                             c=40.0, d=70.0)
            assert weighted_norm(f, step) == pytest.approx(np.sqrt(30.0), rel=1e-12)

    def test_indicator_norm_unaligned_endpoints(self):
        for step in (1.0, 0.5):
            op = build_operator(SMALL_PRESET_GEOM, step=step)
            f = make_phantom("indicator", SMALL_PRESET_GEOM, op.object_grid,
                             c=40.3, d=70.2)
            assert abs(weighted_norm(f, step) ** 2 - 29.9) <= step

    def test_operator_norm_below_one_plus_tol(self, paper_op):
        smax = np.linalg.svd(paper_op.matrix, compute_uv=False)[0]
        assert smax <= 1.05

    def test_operator_norm_step_refinement(self):
        g = Geometry(0.0, 6.0, 18.0, 23.0)
        s1 = np.linalg.svd(build_operator(g, step=1.0).matrix, compute_uv=False)[0]
        s05 = np.linalg.svd(build_operator(g, step=0.5).matrix, compute_uv=False)[0]
        assert s1 <= 1.05
        assert s05 <= s1 + 1e-12
