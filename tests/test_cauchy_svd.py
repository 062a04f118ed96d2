"""Oracle tests for the structured SVD solver.

The solver's whole purpose is relative accuracy for singular values far
below eps * sigma_max, so it is checked against multiprecision references
(frozen 50-digit values for the preset geometry, live 40-digit runs on
smaller instances, two of them slowly decaying) rather than against a
double-precision SVD only.
"""

import numpy as np
import pytest

import goldens as G
from truncated_hilbert.cauchy_svd import (accurate_cauchy_svd, gecp_cauchy,
                                          svd_from_rrd)


def cauchy_matrix(x, y, scale):
    return scale / (np.asarray(y)[None, :] - np.asarray(x)[:, None])


def step1_nodes(a1, a2, a3, a4):
    """Data and object nodes of an integer geometry at step 1, shift 1/2."""
    x = a1 + np.arange(a3 - a1 + 1.0)
    y = a2 - 0.5 + np.arange(a4 - a2 + 1.0)
    return x, y


def mpmath_sigmas(x, y, dps=40):
    """Singular values of C[i, j] = 1 / (pi (y_j - x_i)) by mpmath svd_r."""
    mp_mod = pytest.importorskip("mpmath")
    mp = mp_mod.mp
    old_dps = mp.dps
    try:
        mp.dps = dps
        A = mp_mod.matrix(len(x), len(y))
        for i in range(len(x)):
            for j in range(len(y)):
                A[i, j] = 1 / (mp.pi * (mp.mpf(y[j]) - mp.mpf(x[i])))
        S = mp.svd_r(A, compute_uv=False)
        return np.sort([float(S[i]) for i in range(min(len(x), len(y)))])[::-1]
    finally:
        mp.dps = old_dps


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
        x = np.arange(40.0)
        y = 11.5 + np.arange(35.0)
        rrd = gecp_cauchy(x, y, 1.0, floor_rel=1e-20)
        assert np.abs(rrd.d[-1]) > 1e-20 * np.abs(rrd.d[0])

    def test_zero_scale(self):
        rrd = gecp_cauchy(np.arange(4.0), 5.5 + np.arange(3.0), 0.0)
        assert rrd.rank == 0


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

    def test_live_mpmath_oracle(self):
        x, y = step1_nodes(0, 12, 36, 46)   # paper geometry / 37.5
        ref = mpmath_sigmas(x, y)
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


class TestEdgeCases:
    def test_empty_rrd_svd(self):
        left, s, right = svd_from_rrd(np.zeros((3, 0)), np.zeros(0),
                                      np.zeros((0, 4)))
        assert s.size == 0
        assert left.shape == (3, 0)
        assert right.shape == (4, 0)

    def test_single_entry(self):
        vd, s, uo = accurate_cauchy_svd(np.array([0.0]), np.array([0.5]), 2.0)
        assert s[0] == pytest.approx(4.0, rel=1e-14)
