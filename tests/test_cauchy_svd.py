"""Oracle tests for the structured SVD solver.

The solver's whole purpose is relative accuracy for singular values far
below eps * sigma_max, so it is checked against multiprecision references
(frozen 50-digit values for the preset geometry, live 40-digit runs on
smaller instances, two of them slowly decaying, and on randomly drawn
geometries, integer ones at step 1 and non-integer ones on the grids of
build_operator) rather than against a double-precision SVD only.
On one live instance the singular vectors and their ROI norms are
checked as well.  The elimination is pinned bit for bit to a reference
copy of its earlier loop.  Then the one-BLAS-thread cap on small solves: it
restores the thread count, also when a LAPACK step fails, stays off above
SMALL_RANK, degrades to the threaded path without the library, and changes
no bit on the small preset.  Last, compute_svd is pinned bit for bit to a
reference copy of its earlier route through scipy.linalg.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens as G
from conftest import PAPER_GEOM
from truncated_hilbert import cauchy_svd
from truncated_hilbert import (Geometry, build_operator, compute_svd, roi_mask,
                               roi_norm)
from truncated_hilbert.cauchy_svd import (CauchyRRD, accurate_cauchy_svd,
                                          gecp_cauchy, svd_from_rrd)
from truncated_hilbert.errors import SpectralError


def cauchy_matrix(x, y, scale):
    return scale / (np.asarray(y)[None, :] - np.asarray(x)[:, None])


def step1_nodes(a1, a2, a3, a4):
    """Data and object nodes of an integer geometry at step 1, shift 1/2."""
    x = a1 + np.arange(a3 - a1 + 1.0)
    y = a2 - 0.5 + np.arange(a4 - a2 + 1.0)
    return x, y


def _mpmath_cauchy(mp_mod, x, y):
    """C[i, j] = 1 / (pi (y_j - x_i)) at the working precision."""
    mp = mp_mod.mp
    A = mp_mod.matrix(len(x), len(y))
    for i in range(len(x)):
        for j in range(len(y)):
            A[i, j] = 1 / (mp.pi * (mp.mpf(y[j]) - mp.mpf(x[i])))
    return A


def mpmath_sigmas(x, y, dps=40):
    """Singular values of C[i, j] = 1 / (pi (y_j - x_i)) by mpmath svd_r."""
    mp_mod = pytest.importorskip("mpmath")
    with mp_mod.workdps(dps):
        S = mp_mod.mp.svd_r(_mpmath_cauchy(mp_mod, x, y), compute_uv=False)
        return np.sort([float(S[i]) for i in range(min(len(x), len(y)))])[::-1]


@pytest.fixture(scope="module")
def live_oracle():
    """Operator of (0, 12, 36, 46) at step 1 (37 x 35) and its 40-digit SVD.

    Returns the operator, the reference sigmas (descending), the object-
    and data-side reference vectors as columns, and each value's gap to
    its nearest neighbour relative to itself, formed at 40 digits: the
    sixteen leading values all round to 1.0 in double.
    """
    mp_mod = pytest.importorskip("mpmath")
    op = build_operator(Geometry(0.0, 12.0, 36.0, 46.0), step=1.0, shift=0.5)
    x, y = op.data_grid.points, op.object_grid.points
    with mp_mod.workdps(40):
        U, S, V = mp_mod.mp.svd_r(_mpmath_cauchy(mp_mod, x, y))
        r = len(S)
        gaps = [min(abs(S[k] - S[j]) for j in range(r) if j != k) / S[k]
                for k in range(r)]
        # A = U diag(S) V: data vectors are the columns of U, object vectors the rows of V
        v_ref = np.array([[float(U[i, k]) for k in range(r)] for i in range(len(x))])
        u_ref = np.array([[float(V[k, j]) for k in range(r)] for j in range(len(y))])
        return (op, np.array([float(s) for s in S]), u_ref, v_ref,
                np.array([float(g) for g in gaps]))


class TestGecp:
    def test_factorization_reconstructs(self):
        x = np.arange(25.0)
        y = 7.5 + np.arange(22.0)
        rrd = gecp_cauchy(x, y, 1.0 / np.pi)
        M = cauchy_matrix(x, y, 1.0 / np.pi)
        approx = (rrd.L * rrd.d[None, :]) @ rrd.U
        err = np.abs(M[np.ix_(rrd.rperm, rrd.cperm)] - approx).max()
        assert err < 1e-13

    def test_multipliers_bounded(self):
        x = np.arange(30.0)
        y = 9.5 + np.arange(25.0)
        rrd = gecp_cauchy(x, y, 1.0)
        assert np.abs(rrd.L).max() <= 1.0 + 1e-12
        assert np.abs(rrd.U).max() <= 1.0 + 1e-12

    def test_pivots_track_floor(self):
        # the floor is relative to max |C|, not to the first pivot
        x = np.arange(40.0)
        y = 11.5 + np.arange(35.0)
        rrd = gecp_cauchy(x, y, 1.0, floor_rel=1e-20)
        c_max = np.abs(cauchy_matrix(x, y, 1.0)).max()
        assert np.all(np.abs(rrd.d) > 1e-20 * c_max)

        # one object node 0.01 from a data node, far from where the rook
        # search starts: the first pivot is fifty times below max |C|
        y[20] = 31.01
        rrd = gecp_cauchy(x, y, 1.0, floor_rel=1e-15)
        c_max = np.abs(cauchy_matrix(x, y, 1.0)).max()
        assert np.abs(rrd.d[0]) < 0.1 * c_max
        assert rrd.rank < y.size
        assert np.all(np.abs(rrd.d) > 1e-15 * c_max)

    def test_zero_scale(self):
        rrd = gecp_cauchy(np.arange(4.0), 5.5 + np.arange(3.0), 0.0)
        assert rrd.rank == 0

    def test_non_finite_input_refused(self):
        with pytest.raises(SpectralError):
            gecp_cauchy(np.array([0.0, np.nan]), np.array([0.5, 1.5]), 1.0)
        with pytest.raises(SpectralError):
            gecp_cauchy(np.arange(3.0), 0.5 + np.arange(3.0), np.inf)

    @pytest.mark.parametrize("fixture", ["paper_op", "small_preset_op"])
    def test_factors_bounded_and_well_conditioned(self, fixture, request):
        # rook pivoting bounds |L| and |U| like complete pivoting but has a
        # weaker rank-revealing guarantee, so gate the factors' conditioning
        op = request.getfixturevalue(fixture)
        rrd = gecp_cauchy(op.data_grid.points, op.object_grid.points,
                          op.step / np.pi)
        assert np.abs(rrd.L).max() <= 1.0 + 1e-12
        assert np.abs(rrd.U).max() <= 1.0 + 1e-12
        assert np.linalg.cond(rrd.L) < 1e4
        assert np.linalg.cond(rrd.U) < 1e4


def reference_gecp(x_nodes, y_nodes, scale, floor_rel=1e-28):
    """The elimination loop before its swaps and updates were reorganized:
    fancy-indexed swaps, and the generator ratios (x_i - x_p)/(x_i - y_q) and
    (y_j - y_q)/(y_j - x_p) formed afresh after the pivot moves.  gecp_cauchy
    must return its factors bit for bit."""
    xa = np.array(x_nodes, dtype=float, copy=True)
    ya = np.array(y_nodes, dtype=float, copy=True)
    m, n = xa.size, ya.size
    r_max = min(m, n)
    a = np.full(m, float(scale))
    b = np.ones(n)
    rperm = np.arange(m)
    cperm = np.arange(n)
    L = np.zeros((m, r_max))
    U = np.zeros((r_max, n))
    d = np.zeros(r_max)
    floor = floor_rel * cauchy_svd._max_entry(xa, ya, scale) if r_max else 0.0
    rank = 0
    for k in range(r_max):
        xk, yk, ak, bk = xa[k:], ya[k:], a[k:], b[k:]
        j = 0
        col = (ak * bk[j]) / (yk[j] - xk)
        i = int(np.abs(col).argmax())
        while True:
            row = (ak[i] * bk) / (yk - xk[i])
            j_new = int(np.abs(row).argmax())
            if abs(row[j_new]) <= abs(row[j]):
                break
            j = j_new
            col = (ak * bk[j]) / (yk[j] - xk)
            i_new = int(np.abs(col).argmax())
            if abs(col[i_new]) <= abs(col[i]):
                break
            i = i_new
        piv = row[j]
        if abs(piv) <= floor:
            break
        if i:
            for arr in (xk, ak, rperm[k:], col):
                arr[0], arr[i] = arr[i], arr[0]
            L[[k, k + i], :k] = L[[k + i, k], :k]
        if j:
            for arr in (yk, bk, cperm[k:], row):
                arr[0], arr[j] = arr[j], arr[0]
            U[:k, [k, k + j]] = U[:k, [k + j, k]]
        d[k] = piv
        L[k, k] = 1.0
        U[k, k] = 1.0
        L[k + 1:, k] = col[1:] / piv
        U[k, k + 1:] = row[1:] / piv
        xi = xk[1:]
        yj = yk[1:]
        ak[1:] *= (xi - xk[0]) / (xi - yk[0])
        bk[1:] *= (yj - yk[0]) / (yj - xk[0])
        rank = k + 1
    return CauchyRRD(rperm=rperm, cperm=cperm, L=L[:, :rank], d=d[:rank], U=U[:rank, :])


def seeded_integer_geometries(count=100, seed=25):
    """Integer breakpoints with sides below 60; on their half-integer lattice
    the rook search meets exact ties in argmax."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a2, overlap, tail = (int(v) for v in rng.integers(1, 30, size=3))
        out.append((0, a2, a2 + overlap, a2 + overlap + tail))
    return out


@pytest.fixture(scope="module")
def paper_step3_op():
    return build_operator(PAPER_GEOM, step=3.0, shift=0.5)


class TestGecpBitForBit:
    """gecp_cauchy reorganizes the reference loop without changing a bit."""

    @staticmethod
    def assert_same(x, y, scale):
        got = gecp_cauchy(x, y, scale)
        want = reference_gecp(x, y, scale)
        for name in ("rperm", "cperm", "d", "L", "U"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("fixture", ["small_preset_op", "paper_step3_op"])
    def test_presets(self, fixture, request):
        op = request.getfixturevalue(fixture)
        self.assert_same(op.data_grid.points, op.object_grid.points, op.step / np.pi)

    def test_integer_geometries_with_ties(self):
        for g in seeded_integer_geometries():
            self.assert_same(*step1_nodes(*g), 1.0 / np.pi)


class TestAgainstLapackWhereValid:
    def test_moderate_cauchy(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 1.0, 20))
        y = np.sort(rng.uniform(1.5, 2.5, 18))
        _, s, _ = accurate_cauchy_svd(x, y, 1.0)
        ref = np.linalg.svd(cauchy_matrix(x, y, 1.0), compute_uv=False)
        keep = ref > 1e-12 * ref[0]
        # the conventional solver itself only carries eps * sigma_max
        np.testing.assert_allclose(s[: keep.sum()], ref[keep], rtol=1e-9,
                                   atol=1e-14 * ref[0])

    def test_orthonormal_factors(self):
        x = np.arange(25.0)
        y = 7.5 + np.arange(22.0)
        vd, s, uo = accurate_cauchy_svd(x, y, 1.0 / np.pi)
        r = s.size
        np.testing.assert_allclose(vd.T @ vd, np.eye(r), atol=5e-14)
        np.testing.assert_allclose(uo.T @ uo, np.eye(r), atol=5e-14)

    def test_reconstruction(self):
        x = np.arange(25.0)
        y = 7.5 + np.arange(22.0)
        vd, s, uo = accurate_cauchy_svd(x, y, 1.0 / np.pi)
        M = cauchy_matrix(x, y, 1.0 / np.pi)
        rel = np.linalg.norm(M - (vd * s[None, :]) @ uo.T) / np.linalg.norm(M)
        assert rel < 1e-13


class TestDeepTailAgainstMultiprecision:
    def test_small_preset_frozen_50_digit_reference(self):
        x = np.arange(91.0)
        y = 29.5 + np.arange(86.0)
        _, s, _ = accurate_cauchy_svd(x, y, 1.0 / np.pi)
        ref = np.array(G.SMALL_PRESET_SIGMAS)
        m = min(s.size, ref.size)

        def worst(lo_rel):
            sel = ref[:m] > lo_rel * ref[0]
            return (np.abs(s[:m][sel] - ref[:m][sel]) / ref[:m][sel]).max()

        # near-full relative accuracy through eighteen decades
        assert worst(1e-18) < 1e-11
        # graceful degradation approaching the elimination floor (1e-28):
        # the truncated remainder acts like a ~1e-30 absolute perturbation
        assert worst(1e-20) < 1e-9
        assert worst(1e-24) < 2e-8
        deeper = (ref[:m] > 1e-26) & (ref[:m] <= 1e-24)
        if deeper.any():
            rel2 = np.abs(s[:m][deeper] - ref[:m][deeper]) / ref[:m][deeper]
            assert rel2.max() < 1e-4

    def test_live_mpmath_oracle(self, live_oracle):
        x, y = step1_nodes(0, 12, 36, 46)   # paper geometry / 37.5
        ref = live_oracle[1]
        _, s, _ = accurate_cauchy_svd(x, y, 1.0 / np.pi)
        valid = ref > 1e-24 * ref[0]
        m = valid.sum()
        rel = np.abs(s[:m] - ref[:m]) / ref[:m]
        assert rel.max() < 1e-9

    @pytest.mark.parametrize("geometry, retained", [
        ((0, 60, 61, 120), 23),    # alpha ~ 1.6
        ((0, 50, 60, 115), 29),    # alpha ~ 2.6
    ])
    def test_slow_decay_against_mpmath(self, geometry, retained):
        # consecutive ratios exp(alpha) of only 5..14: no scale gaps to exploit
        x, y = step1_nodes(*geometry)
        ref = mpmath_sigmas(x, y)
        _, s, _ = accurate_cauchy_svd(x, y, 1.0 / np.pi)
        assert (s > 1e-21 * s[0]).sum() == retained

        def worst(lo_rel):
            m = (ref > lo_rel * ref[0]).sum()
            return (np.abs(s[:m] - ref[:m]) / ref[:m]).max()

        assert worst(1e-20) < 1e-9
        assert worst(1e-21) < 2e-8


class TestSingularVectorsAgainstMultiprecision:
    """compute_svd's vectors against the live 40-digit oracle (unit step, so
    the step-weighted and Euclidean norms coincide)."""

    @pytest.fixture(scope="class")
    def aligned(self, live_oracle):
        op, _, u_ref, v_ref, gaps = live_oracle
        sys_ = compute_svd(op)
        k = sys_.count
        # the reference pair (u, v) flips together, as the convention does
        sign = np.sign(np.sum(sys_.u * u_ref[:, :k], axis=0))
        return op, sys_, u_ref[:, :k] * sign, v_ref[:, :k] * sign, gaps[:k]

    def test_vector_error_times_relative_gap(self, aligned):
        # perturbation theory bounds the error of a high relative accuracy
        # SVD by about eps / relgap: 1e-12 at relgap 7.6e-4, 1e-15 in the
        # tail.  Worst product measured 2.3e-15 (sigma = 0.56); bound 1e-14.
        _, sys_, u_ref, v_ref, gaps = aligned
        err = np.maximum(np.linalg.norm(sys_.u - u_ref, axis=0),
                         np.linalg.norm(sys_.v - v_ref, axis=0))
        assert (err * gaps).max() < 1e-14

    @pytest.mark.parametrize("mu", [0.5, 2.0, 8.0])
    def test_tail_roi_norms(self, aligned, mu):
        # the accuracy is normwise and the ROI part of the deepest vectors
        # is small, so the relative error grows with depth and with mu.
        # Worst measured 3.6e-9 (n = 9, sigma = 1.6e-19, mu = 8, ROI norm
        # 1.5e-9); bound 1e-8.
        op, sys_, u_ref, _, _ = aligned
        mask = roi_mask(op.geom, op.object_grid, mu)
        rel = [abs(roi_norm(sys_, k, mu) - np.linalg.norm(u_ref[mask, k]))
               / np.linalg.norm(u_ref[mask, k]) for k in sys_.tail]
        assert max(rel) < 1e-8


@st.composite
def integer_geometries(draw):
    """Integer breakpoints 0 < a2 < a3 < a4 with at most 40 nodes per side."""
    a3 = draw(st.integers(2, 39))
    a2 = draw(st.integers(1, a3 - 1))
    a4 = draw(st.integers(a3 + 1, a2 + 39))
    return 0, a2, a3, a4


@st.composite
def sampled_nodes(draw):
    """Nodes of build_operator's grids on non-integer breakpoints, at most 25 per side.

    Steps lie in [0.3, 2.7], shifts in (0.05, 0.95) or 1e-6 or 1e-3 away
    from 0 or 1.  Object nodes sit shift steps off the data lattice for
    any breakpoints, so such a shift puts every object node that close to
    a data node.
    """
    step = draw(st.floats(0.3, 2.7))
    shift = draw(st.floats(0.05, 0.95)
                 | st.sampled_from([1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6]))
    a1 = draw(st.floats(-10.0, 10.0))
    head = draw(st.integers(1, 20)) + draw(st.just(0.0) | st.floats(0.05, 0.95))
    overlap = draw(st.floats(0.5, min(22.0, 23.0 - head)))
    a2 = a1 + step * head
    a3 = a2 + step * overlap
    a4 = a3 + step * draw(st.floats(0.5, 23.0 - overlap))
    op = build_operator(Geometry(a1, a2, a3, a4), step, shift)
    return op.data_grid.points, op.object_grid.points


class TestRandomGeometriesAgainstMultiprecision:
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(integer_geometries().map(lambda g: step1_nodes(*g)) | sampled_nodes())
    def test_matches_mpmath(self, nodes):
        x, y = nodes
        ref = mpmath_sigmas(x, y)
        _, s, _ = accurate_cauchy_svd(x, y, 1.0 / np.pi)
        assert (s > 1e-21 * s[0]).sum() == (ref > 1e-21 * ref[0]).sum()

        def worst(lo_rel):
            m = (ref > lo_rel * ref[0]).sum()
            return (np.abs(s[:m] - ref[:m]) / ref[:m]).max()

        assert worst(1e-20) < 1e-9
        assert worst(1e-21) < 2e-8


class TestEdgeCases:
    def test_empty_rrd_svd(self):
        rrd = CauchyRRD(rperm=np.arange(3), cperm=np.arange(4), L=np.zeros((3, 0)),
                        d=np.zeros(0), U=np.zeros((0, 4)))
        left, s, right = svd_from_rrd(rrd)
        assert s.size == 0
        assert left.shape == (3, 0)
        assert right.shape == (4, 0)

    def test_non_finite_factor_refused(self):
        rrd = CauchyRRD(rperm=np.arange(2), cperm=np.arange(2),
                        L=np.array([[1.0, 0.0], [np.inf, 1.0]]), d=np.ones(2),
                        U=np.eye(2))
        with pytest.raises(SpectralError, match="not finite"):
            svd_from_rrd(rrd)

    def test_single_entry(self):
        vd, s, uo = accurate_cauchy_svd(np.array([0.0]), np.array([0.5]), 2.0)
        assert s[0] == pytest.approx(4.0, rel=1e-14)


SMALL_PRESET_NODES = (np.arange(91.0), 29.5 + np.arange(86.0), 1.0 / np.pi)


class SetterSpy:
    """Stands in for openblas_set_num_threads_local and records its calls.

    Delegates to the real setter when given one, else keeps a count.
    """

    def __init__(self, real=None, count=2):
        self.real, self.count, self.calls = real, count, []

    def __call__(self, n):
        self.calls.append(n)
        if self.real is not None:
            return self.real(n)
        old, self.count = self.count, n
        return old


@pytest.fixture
def fresh_lookup():
    """The library lookup runs anew in the test and is forgotten after it."""
    cauchy_svd._blas_threads_local.cache_clear()
    yield cauchy_svd._blas_threads_local
    cauchy_svd._blas_threads_local.cache_clear()


@pytest.fixture
def real_setter():
    setter = cauchy_svd._blas_threads_local()
    if setter is None:
        pytest.skip("scipy's OpenBLAS or its thread setter is not found")
    return setter


def small_preset_svd(monkeypatch, spy=None, small_rank=cauchy_svd.SMALL_RANK):
    monkeypatch.setattr(cauchy_svd, "SMALL_RANK", small_rank)
    if spy is not None:
        monkeypatch.setattr(cauchy_svd, "_blas_threads_local", lambda: spy)
    return accurate_cauchy_svd(*SMALL_PRESET_NODES)


class TestBlasThreadCap:
    def test_small_solve_restores_the_count(self, monkeypatch, real_setter):
        before = real_setter(1)
        real_setter(before)
        spy = SetterSpy(real_setter)
        small_preset_svd(monkeypatch, spy)
        assert spy.calls == [1, before]
        after = real_setter(1)
        real_setter(after)
        assert after == before

    def test_failed_jacobi_restores_the_count(self, monkeypatch):
        lapack = cauchy_svd._lapack()
        real = lapack.dgejsv

        def failing(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], 3)

        monkeypatch.setattr(lapack, "dgejsv", failing)
        spy = SetterSpy(count=2)
        with pytest.raises(SpectralError, match="info=3"):
            small_preset_svd(monkeypatch, spy)
        assert spy.calls == [1, 2]
        assert spy.count == 2

    @pytest.mark.parametrize("routine", ["dgeqp3", "dorgqr"])
    def test_failed_qr_step_restores_the_count(self, monkeypatch, routine):
        lapack = cauchy_svd._lapack()
        real = getattr(lapack, routine)

        def failing(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], -4)

        monkeypatch.setattr(lapack, routine, failing)
        spy = SetterSpy(count=2)
        with pytest.raises(SpectralError, match=f"{routine} failed with info=-4"):
            small_preset_svd(monkeypatch, spy)
        assert spy.calls == [1, 2]
        assert spy.count == 2

    def test_setter_unused_from_small_rank_up(self, monkeypatch):
        rank = gecp_cauchy(*SMALL_PRESET_NODES).rank
        spy = SetterSpy()
        small_preset_svd(monkeypatch, spy, small_rank=rank)
        assert spy.calls == []

    @pytest.mark.parametrize("failure", ["no library", "unloadable", "no symbol"])
    def test_lookup_failure_still_solves(self, monkeypatch, fresh_lookup, failure):
        expected = accurate_cauchy_svd(*SMALL_PRESET_NODES)
        fresh_lookup.cache_clear()
        if failure == "no library":
            monkeypatch.setattr(cauchy_svd, "_scipy_dir", lambda: Path("/nonexistent/scipy"))
        elif failure == "unloadable":
            def unloadable(path):
                raise OSError(f"cannot load {path}")
            monkeypatch.setattr(ctypes, "CDLL", unloadable)
        else:
            monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        assert fresh_lookup() is None
        got = accurate_cauchy_svd(*SMALL_PRESET_NODES)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
        m = min(got[1].size, len(G.SMALL_PRESET_SIGMAS))
        s, ref = got[1][:m], np.array(G.SMALL_PRESET_SIGMAS[:m])
        sel = ref > 1e-18 * ref[0]
        assert (np.abs(s[sel] - ref[sel]) / ref[sel]).max() < 1e-11

    def test_cap_changes_no_bit_on_the_small_preset(self, monkeypatch, real_setter):
        spy = SetterSpy(real_setter)
        capped = small_preset_svd(monkeypatch, spy)
        assert spy.calls[0] == 1
        threaded = small_preset_svd(monkeypatch, spy, small_rank=0)
        assert len(spy.calls) == 2
        for a, b in zip(capped, threaded):
            assert np.array_equal(a, b)


def reference_compute_svd(op, tol=1e-21):
    """compute_svd's earlier route on the operator's step-unit nodes:
    scipy.linalg.qr and scipy.linalg.lapack's dgejsv, a zeros_like scatter
    of all r columns, then a compress truncation, the weighted scaling and
    the sign convention.  compute_svd must return its sigmas, u and v bit
    for bit."""
    import scipy.linalg as sla
    rrd = gecp_cauchy(*op.nodes, 1 / np.pi, floor_rel=min(1e-28, tol * 1e-7))
    Q = np.multiply(rrd.L, rrd.d, order="F")
    with cauchy_svd._blas_threads_for(rrd.rank):
        Q, R, piv = sla.qr(Q, mode="economic", pivoting=True, overwrite_a=True)
        W = R @ rrd.U[piv, :]
        sva, u, v, work, _, info = sla.lapack.dgejsv(
            W.T, joba=0, jobu=0, jobv=0, jobr=1, jobt=0, jobp=0, overwrite_a=1)
    assert info == 0
    left, s_all, right = Q @ v, sva * (work[1] / work[0]), u
    v_all = np.zeros_like(left)
    v_all[rrd.rperm, :] = left
    u_all = np.zeros_like(right)
    u_all[rrd.cperm, :] = right
    keep = s_all > tol * s_all[0]
    s = s_all[keep]
    u = u_all.compress(keep, axis=1)
    v = v_all.compress(keep, axis=1)
    scale = 1.0 / np.sqrt(op.step)
    u *= scale
    v *= scale
    ys = op.object_grid.points
    inside = (ys > op.geom.a2) & (ys < op.geom.a3)
    if inside.any():
        first = int(np.argmax(inside))
        signs = np.sign(u[first, :])
        signs[signs == 0.0] = 1.0
        u *= signs[None, :]
        v *= signs[None, :]
    return s, u, v


class TestComputeSvdBitForBit:
    """The direct LAPACK calls and the truncated scatter change no bit.

    The paper grid (rank 914) runs the threaded path, every other case the
    one-thread path below SMALL_RANK.
    """

    @staticmethod
    def assert_same(op):
        got = compute_svd(op)
        want = reference_compute_svd(op)
        for name, a, b in zip(("sigmas", "u", "v"), (got.sigmas, got.u, got.v), want):
            assert np.array_equal(a, b), name
            assert a.flags.c_contiguous == b.flags.c_contiguous, name

    @pytest.mark.parametrize("fixture", ["paper_op", "small_preset_op", "paper_step3_op"])
    def test_presets(self, fixture, request):
        self.assert_same(request.getfixturevalue(fixture))

    def test_integer_geometries(self):
        for g in seeded_integer_geometries():
            self.assert_same(build_operator(Geometry(*map(float, g)), step=1.0, shift=0.5))
