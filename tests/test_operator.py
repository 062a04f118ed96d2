import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAPER_GEOM, SMALL_PRESET_GEOM, TINY_GEOM
from truncated_hilbert import (Geometry, SampledGrid, apply_adjoint,
                               apply_forward, build_operator, compute_svd,
                               make_phantom, weighted_norm)
from truncated_hilbert.errors import GeometryError, GridError
from truncated_hilbert.operator import MAX_SAMPLES


@st.composite
def lattice_geometries(draw):
    """(geometry, step, shift) as in test_cauchy_svd.sampled_nodes, a1 up to +-1e15.

    Shifts lie in (0.05, 0.95) or 1e-6 or 1e-3 away from 0 or 1.
    """
    step = draw(st.floats(0.3, 2.7))
    shift = draw(st.floats(0.05, 0.95)
                 | st.sampled_from([1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6]))
    a1 = draw(st.floats(-10.0, 10.0)) * 10.0 ** draw(st.integers(0, 14))
    head = draw(st.integers(1, 20)) + draw(st.just(0.0) | st.floats(0.05, 0.95))
    overlap = draw(st.floats(0.5, min(22.0, 23.0 - head)))
    a2 = a1 + step * head
    a3 = a2 + step * overlap
    a4 = a3 + step * draw(st.floats(0.5, 23.0 - overlap))
    return Geometry(a1, a2, a3, a4), step, shift


class TestGridType:
    def test_points(self):
        g = SampledGrid(start=1.5, step=0.5, count=4)
        np.testing.assert_allclose(g.points, [1.5, 2.0, 2.5, 3.0])

    def test_validation(self):
        for step in (0.0, float("nan"), float("inf")):
            with pytest.raises(GridError):
                SampledGrid(start=0.0, step=step, count=3)
        with pytest.raises(GridError):
            SampledGrid(start=0.0, step=1.0, count=0)
        # each was accepted as a count
        for count in (float("nan"), float("inf"), True, 10 ** 400):
            with pytest.raises(GridError, match="count must be an integer"):
                SampledGrid(start=0.0, step=1.0, count=count)


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

    @pytest.mark.parametrize("geom, step", [(SMALL_PRESET_GEOM, 1.0), (TINY_GEOM, 0.5)])
    def test_matrix_formed_once_on_first_access(self, geom, step):
        op = build_operator(geom, step=step)
        compute_svd(op)
        assert "matrix" not in vars(op)
        x, y = op.data_grid.points, op.object_grid.points
        expected = (step / np.pi) / (y[None, :] - x[:, None])
        assert op.matrix.shape == op.shape
        assert op.matrix.tobytes() == expected.tobytes()
        assert op.matrix is op.matrix

    @pytest.mark.parametrize("geom", [Geometry(0.1, 30.1, 90.1, 115.1),
                                      Geometry(-7.3, 22.7, 82.7, 107.7)])
    def test_translation_keeps_the_operator(self, geom, small_preset_op, small_preset_sys):
        # the kernel lives in step units, so only the offset of the object
        # grid from the data lattice reaches the product and the solver
        op = build_operator(geom)
        assert op.kernel_spectrum.tobytes() == small_preset_op.kernel_spectrum.tobytes()
        sys_ = compute_svd(op)
        for name in ("sigmas", "u", "v"):
            assert getattr(sys_, name).tobytes() == getattr(small_preset_sys, name).tobytes()

    def test_cap_counts_the_samples(self):
        # 4472^2 is just under the 2e7 cap and 4473^2 just over it
        # (tests/test_memory.py refuses a far finer step)
        assert build_operator(TINY_GEOM, step=6 / 4471).shape == (4472, 4472)
        with pytest.raises(GridError, match="cap"):
            build_operator(TINY_GEOM, step=6 / 4472)

    def test_collision_raises(self):
        # at 1e16 doubles are 2 apart, so a1 + k + 1/2 rounds onto the data lattice
        with pytest.raises(GridError, match="collide"):
            build_operator(Geometry(*(1e16 + np.array([0.0, 30.0, 90.0, 116.0]))))
        for shift in (1e-13, 1.0 - 1e-13):
            with pytest.raises(GridError, match="collide"):
                build_operator(TINY_GEOM, shift=shift)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(lattice_geometries())
    def test_accepted_grids_do_not_collide(self, case):
        # the O(1) rule against a brute-force scan of the points returned
        geom, step, shift = case
        try:
            op = build_operator(geom, step, shift)
        except GridError as exc:
            assert "collide" in str(exc)
            # only where the breakpoints are too large for the step
            assert abs(geom.a1) > 10.0
            return
        gap = np.abs(op.object_grid.points[:, None] - op.data_grid.points[None, :]).min()
        assert gap >= 1e-12 * step

    @pytest.mark.parametrize("a2", [29.8, 30.5])
    def test_object_nodes_on_the_data_lattice(self, a2):
        # whatever a2, object nodes sit half a step off the data lattice, so
        # the spectrum accumulates at 1, not at 1/sin(pi frac(a2 - shift))
        op = build_operator(Geometry(0.0, a2, 90.0, 115.0))
        y = op.object_grid.points
        offset = (y - op.geom.a1) / op.step - 0.5
        np.testing.assert_array_equal(offset, np.round(offset))
        assert y[0] <= a2 < y[1] and y[-1] < op.geom.a4 <= y[-1] + op.step
        assert compute_svd(op).sigmas[0] <= 1.0 + 1e-12

    def test_shift_validation(self):
        with pytest.raises(GridError):
            build_operator(TINY_GEOM, shift=0.0)
        with pytest.raises(GridError):
            build_operator(TINY_GEOM, shift=1.0)
        # nan used to fail converting the data count to an int
        # 10**400 ended in a bare OverflowError from (a3 - a1) / step
        for step in (-1.0, float("nan"), float("inf"), 10 ** 400):
            with pytest.raises(GridError, match=r"step must be a finite real in \(0\.0, inf\)"):
                build_operator(TINY_GEOM, step=step)
        # a subnormal step: the data count (a3 - a1) / step overflowed int()
        with pytest.raises(GridError, match=r"\(a3 - a1\) / step must be a finite real"):
            build_operator(TINY_GEOM, step=5e-324)

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
        lhs = tiny_op.step * np.dot(apply_forward(tiny_op, f), g)
        rhs = tiny_op.step * np.dot(f, apply_adjoint(tiny_op, g))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_adjoint_basis_vector_reads_row(self, tiny_op):
        e0 = np.zeros(7)
        e0[3] = 1.0
        np.testing.assert_allclose(apply_adjoint(tiny_op, e0),
                                   tiny_op.matrix[3, :], atol=0)


@st.composite
def extreme_grids(draw):
    """step and the four breakpoints together, with a vector scale.

    One end is any finite double, hypothesis's draw favouring 0 and the
    ends of the range, or one of magnitude 1e307 to 1.79e308: a1 if it is
    negative, else a4, so the others lie toward 0.  step is 10^[-300, 305],
    or 10^[-12, -3] times that end, so that breakpoints near +-1e308 stay
    apart.  Each segment is 0.5-50 steps, 1000-5000 steps (near the cap of
    MAX_SAMPLES, about 4472 a side) or 10^[4, 308] steps, so the
    breakpoints also run past 0 toward the other end of the range and past
    it.  The vectors are scaled by 10^[-300, 300]; entries near 1e306
    overflow the FFT's sums (apply_forward), which no config reaches: the
    phantom's norm is at most E, and E^2 is a finite double.
    """
    end = draw(st.floats(allow_nan=False, allow_infinity=False)
               | st.floats(1e307, sys.float_info.max).map(lambda x: -x)
               | st.floats(1e307, sys.float_info.max))
    step = 10.0 ** draw(st.floats(-300.0, 305.0)
                        | st.floats(-12.0, -3.0).map(lambda t: t + math.log10(abs(end) or 1.0)))
    sign = 1.0 if end < 0 else -1.0
    points = [end]
    for _ in range(3):
        width = draw(st.floats(0.5, 50.0) | st.floats(1000.0, 5000.0)
                     | st.floats(4.0, 308.0).map(lambda t: 10.0 ** t))
        points.append(points[-1] + sign * width * step)
    return step, points[::int(sign)], 10.0 ** draw(st.floats(-300.0, 300.0))


class TestExtremeGrids:
    # the argument sweep varies one parameter at a time; here step and all
    # four breakpoints are extreme together.  The suite turns every warning
    # into an error
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(extreme_grids())
    def test_finite_grids_and_products_or_refused(self, case):
        step, points, scale = case
        try:
            geom = Geometry(*points)
        except GeometryError:     # a breakpoint past the double range
            return
        try:
            op = build_operator(geom, step)
        except GridError:
            return
        m, n = op.shape
        assert m * n <= MAX_SAMPLES
        assert np.isfinite(op.data_grid.points).all()
        assert np.isfinite(op.object_grid.points).all()
        if op.fft_size > 2 ** 20:   # accepted, but too long a product for the suite
            return
        rng = np.random.default_rng(0)
        g = apply_forward(op, scale * rng.standard_normal(n))
        f = apply_adjoint(op, scale * rng.standard_normal(m))
        assert g.shape == (m,) and np.isfinite(g).all()
        assert f.shape == (n,) and np.isfinite(f).all()

    def test_object_span_past_the_double_range(self):
        # (a4 - a1) / step = 2e308 / 1e305 overflows: refused, as before,
        # but the message read "1501 x inf samples exceed the cap"
        with pytest.raises(GridError, match=r"object span \(a4 - a1\) / step leaves "
                                            r"the double range"):
            build_operator(Geometry(-1e308, -5e307, 5e307, 1e308), step=1e305)


EPS = np.finfo(float).eps


class TestFFTProduct:
    """apply_forward and apply_adjoint by FFT against products of the formed matrix."""

    @pytest.mark.parametrize("geom, step", [
        (PAPER_GEOM, 1.0),
        (SMALL_PRESET_GEOM, 1.0),
        (Geometry(0.0, 12.0, 36.0, 46.0), 1.0),
        (SMALL_PRESET_GEOM, 0.3),
        (Geometry(-1.3, 0.7, 11.1, 17.9), 0.07),
    ], ids=["paper", "small", "live_oracle", "small_step0.3", "unaligned_step0.07"])
    def test_matches_the_dense_product(self, geom, step):
        # the formed matrix is exactly Toeplitz at every step: its nodes are
        # in step units, where c + j - i is exact at shift 1/2
        op = build_operator(geom, step=step)
        M = op.matrix
        scale = 4 * EPS * np.linalg.norm(M, 2)
        rng = np.random.default_rng(5)
        for _ in range(3):
            f = rng.standard_normal(op.shape[1])
            g = rng.standard_normal(op.shape[0])
            hf, htg = apply_forward(op, f), apply_adjoint(op, g)
            assert np.linalg.norm(hf - M @ f) <= scale * np.linalg.norm(f)
            assert np.linalg.norm(htg - M.T @ g) <= scale * np.linalg.norm(g)
            assert np.dot(hf, g) == pytest.approx(np.dot(f, htg), rel=1e-12)

    @pytest.mark.parametrize("geom", [PAPER_GEOM, SMALL_PRESET_GEOM], ids=["paper", "small"])
    def test_error_within_the_rounding_reconstruct_allows(self, geom):
        # reconstruct takes data within 2 eps |f| of H f for exact.  The
        # error is normwise in f: at most 1.03 eps |f| here.  Against |g| it
        # read 1.05 eps for the centred bump of the small preset and 3.0 eps
        # on the far side, where |g| is a third of |f| (the dense product
        # read up to 1.95 eps |g|, on the centred paper phantoms)
        op = build_operator(geom)
        exact = op.matrix.astype(np.longdouble)
        for center, width in ((0.5 * (geom.a2 + geom.a3), 0.2 * (geom.a4 - geom.a2)),
                              (0.5 * (geom.a3 + geom.a4), 0.4 * (geom.a4 - geom.a3))):
            for kind, params in (("bump", {"center": center, "width": width}),
                                 ("indicator", {"c": center - width, "d": center + width}),
                                 ("hat", {"center": center, "half_width": width})):
                f = make_phantom(kind, geom, op.object_grid, **params)
                g = (exact @ f.astype(np.longdouble)).astype(float)
                assert np.linalg.norm(apply_forward(op, f) - g) <= 2 * EPS * np.linalg.norm(f)


def fft_error_ratios(geometries, vectors=8, seed=0):
    """Worst forward error / (eps |f|) and adjoint error / (eps |g|) over geometries.

    Against the formed matrix's product in np.longdouble, for `vectors`
    standard normal f and g per geometry.
    """
    rng = np.random.default_rng(seed)
    worst = [0.0, 0.0]
    for geom in geometries:
        op = build_operator(Geometry(*geom))
        M = op.matrix.astype(np.longdouble)
        F = rng.standard_normal((op.shape[1], vectors))
        G = rng.standard_normal((op.shape[0], vectors))
        for j, (apply, exact, X) in enumerate(((apply_forward, M @ F, F),
                                               (apply_adjoint, M.T @ G, G))):
            got = np.column_stack([apply(op, x) for x in X.T])
            err = np.linalg.norm((got - exact).astype(float), axis=0)
            worst[j] = max(worst[j], float((err / (EPS * np.linalg.norm(X, axis=0))).max()))
    return worst


def test_fft_rounding_over_the_sweep_geometries(monkeypatch):
    # the rounding term of reconstruct, 2 eps |f|, needs the FFT product
    # within 2 eps |f| forward and 2 eps |g| adjoint.  Over both presets,
    # the benchmark's four fixed geometries and 800 of its random ones
    # (sides 10-140, alpha 2-7) the power-of-two length reads 1.54 and
    # 1.56; the smallest 3 * 2^k length, a quarter cheaper per product,
    # reads 2.15 and 2.02
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    geometries = [PAPER_GEOM.points, *workloads.oracle.FIXED_GEOMETRIES,
                  *workloads.random_geometries(1)[:800]]
    forward, adjoint = fft_error_ratios(geometries)
    assert forward <= 2.0 and adjoint <= 2.0


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
