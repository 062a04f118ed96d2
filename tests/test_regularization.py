import json

import numpy as np
import pytest

import goldens as G
from conftest import TINY_GEOM, SMALL_PRESET_GEOM
from truncated_hilbert import (AsymptoticConstants, add_noise, apply_forward,
                               export_reconstruction, make_phantom,
                               optimal_cutoff_l2, tail_index_map,
                               tikhonov_reconstruct, tsvd_reconstruct,
                               weighted_norm)
from truncated_hilbert.errors import GeometryError
from truncated_hilbert.quadrature import integrate


def paper_constants():
    return AsymptoticConstants(
        A=G.PAPER_CALIBRATED_A, alpha=G.PAPER_ALPHA, n0=G.PAPER_N0,
        n_mu=G.PAPER_N_MU_100, b_mu=G.PAPER_B_MU_100,
        beta_mu=G.PAPER_BETA[100.0], v_mu=G.PAPER_V_MU_100,
        w_mu=G.PAPER_W_MU_100, c_tv=1.0)


class TestAddNoise:
    def test_zero_delta_exact_copy(self):
        g = np.linspace(0.0, 1.0, 20)
        out = add_noise(g, 0.0, seed=1)
        np.testing.assert_array_equal(out.g, g)

    def test_exact_weighted_norm(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(200)
        for delta, step in ((0.5, 1.0), (2.0, 0.25), (1e-3, 1.0)):
            out = add_noise(g, delta, seed=4, step=step)
            got = weighted_norm(out.g - g, step)
            assert got == pytest.approx(delta, rel=1e-12)

    def test_deterministic_per_seed(self):
        g = np.linspace(-1.0, 1.0, 50)
        a = add_noise(g, 0.3, seed=99)
        b = add_noise(g, 0.3, seed=99)
        np.testing.assert_array_equal(a.g, b.g)
        c = add_noise(g, 0.3, seed=100)
        assert not np.array_equal(a.g, c.g)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(3), -1.0, seed=0)


class TestCutoffs:
    def test_log_of_one_gives_zero(self):
        k = paper_constants()
        delta = 1.0 * k.A * k.v_mu   # E = 1
        choice = optimal_cutoff_l2(delta, 1.0, k)
        assert choice.n_cut == 0
        assert choice.n_real == pytest.approx(0.0, abs=1e-12)

    def test_shrinking_delta_by_e_alpha_steps_once(self):
        k = paper_constants()
        a = optimal_cutoff_l2(1e-4, 1.0, k)
        b = optimal_cutoff_l2(1e-4 * np.exp(-k.alpha), 1.0, k)
        assert b.n_real == pytest.approx(a.n_real + 1.0, rel=1e-12)

    def test_paper_golden_composition(self):
        k = paper_constants()
        choice = optimal_cutoff_l2(1e-6, 1.0, k)
        expected = np.log(1.0 * k.A * k.v_mu / 1e-6) / k.alpha
        assert choice.n_real == pytest.approx(expected, rel=1e-14)
        assert choice.n_cut == round(expected)
        assert choice.valid == (expected > k.n_mu)

    def test_cutoff_consistency_with_sigma_floor(self, paper_sys):
        # counting tail values above the singular-value floor
        # delta/(E V_mu) reproduces the index cutoff
        k = paper_constants()
        E = 1.0
        for delta in (1e-5, 1e-7, 1e-9):
            choice = optimal_cutoff_l2(delta, E, k)
            floor = delta / (E * k.v_mu)
            pairs = tail_index_map(paper_sys, 9)
            count = sum(1 for _, kk in pairs if paper_sys.sigmas[kk] >= floor)
            assert abs(count - choice.n_cut) <= 1


class TestTsvd:
    def test_zero_data(self, small_preset_sys):
        rec = tsvd_reconstruct(small_preset_sys, np.zeros(small_preset_sys.v.shape[0]), 3)
        np.testing.assert_array_equal(rec.f, np.zeros_like(rec.f))

    def test_single_tail_component_recovered(self, small_preset_sys):
        sys_ = small_preset_sys
        pairs = tail_index_map(sys_, min(9, sys_.count))
        n, k = pairs[4]    # tail index 5
        s, u, v = sys_.triple(k)
        g = s * v
        rec = tsvd_reconstruct(sys_, g, n_cut=n)
        np.testing.assert_allclose(rec.f, u, atol=1e-10 * np.abs(u).max())
        # cut below the component: contribution excluded
        rec2 = tsvd_reconstruct(sys_, g, n_cut=n - 1)
        assert weighted_norm(rec2.f, sys_.step) < 1e-10

    def test_noiseless_projection_identity(self, tiny_op, tiny_sys):
        f_true = make_phantom("hat", TINY_GEOM, tiny_op.object_grid,
                              center=4.5, half_width=1.5, peak=1.0)
        g_ex = apply_forward(tiny_op, f_true)
        rec = tsvd_reconstruct(tiny_sys, g_ex, n_cut=tiny_sys.count)
        coeffs = tiny_sys.step * (tiny_sys.u.T @ f_true)
        proj = tiny_sys.u @ coeffs
        np.testing.assert_allclose(rec.f, proj, atol=1e-10)

    def test_error_monotone_in_cutoff_noiseless(self, tiny_op, tiny_sys):
        f_true = make_phantom("hat", TINY_GEOM, tiny_op.object_grid,
                              center=4.5, half_width=1.5, peak=1.0)
        g_ex = apply_forward(tiny_op, f_true)
        coeffs = tiny_sys.step * (tiny_sys.u.T @ f_true)
        proj = tiny_sys.u @ coeffs
        tail_len = min(9, tiny_sys.count)
        errs = [weighted_norm(tsvd_reconstruct(tiny_sys, g_ex, n).f - proj,
                              tiny_sys.step)
                for n in range(tail_len + 1)]
        assert all(a >= b - 1e-13 for a, b in zip(errs, errs[1:]))

    def test_validation(self, tiny_sys):
        with pytest.raises(ValueError):
            tsvd_reconstruct(tiny_sys, np.zeros(7), -1)
        with pytest.raises(ValueError):
            tsvd_reconstruct(tiny_sys, np.zeros(6), 1)


class TestTikhonov:
    def test_matches_normal_equations(self, tiny_op, tiny_sys):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(7)
        for eta in (1e-2, 1e-5, 1e-8):
            rec = tikhonov_reconstruct(tiny_sys, g, eta)
            M = tiny_op.matrix
            direct = np.linalg.solve(M.T @ M + eta * np.eye(7), M.T @ g)
            np.testing.assert_allclose(rec.f, direct, rtol=1e-8, atol=1e-12)

    def test_filter_shrinks_every_coefficient(self, tiny_sys):
        rng = np.random.default_rng(6)
        g = rng.standard_normal(7)
        eta = 1e-3
        rec = tikhonov_reconstruct(tiny_sys, g, eta)
        coeffs_rec = tiny_sys.step * (tiny_sys.u.T @ rec.f)
        naive = tiny_sys.step * (tiny_sys.v.T @ g) / tiny_sys.sigmas
        factors = coeffs_rec / naive
        expected = tiny_sys.sigmas ** 2 / (tiny_sys.sigmas ** 2 + eta)
        np.testing.assert_allclose(factors, expected, rtol=1e-8)
        assert np.all(factors > 0) and np.all(factors < 1)

    def test_single_component(self, small_preset_sys):
        sys_ = small_preset_sys
        k = sys_.count - 12   # a well-conditioned mid-spectrum component
        s, u, v = sys_.triple(k)
        eta = 0.1
        rec = tikhonov_reconstruct(sys_, 2.0 * v, eta)
        np.testing.assert_allclose(rec.f, 2.0 * s / (s ** 2 + eta) * u, atol=1e-10)

    def test_norm_vanishes_for_large_eta(self, tiny_sys):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(7)
        big = tikhonov_reconstruct(tiny_sys, g, 1e12)
        assert weighted_norm(big.f, tiny_sys.step) < 1e-10

    def test_eta_validation(self, tiny_sys):
        with pytest.raises(ValueError):
            tikhonov_reconstruct(tiny_sys, np.zeros(7), 0.0)


class TestPhantoms:
    def test_hat_total_variation(self, small_preset_op):
        f = make_phantom("hat", SMALL_PRESET_GEOM, small_preset_op.object_grid,
                         center=60.5, half_width=20.0, peak=1.5)
        tv = np.abs(np.diff(np.concatenate([[0.0], f, [0.0]]))).sum()
        assert tv == pytest.approx(2 * 1.5, rel=1e-10)

    def test_bump_norm_matches_quadrature(self, small_preset_op):
        c, w, amp = 60.0, 15.0, 1.0
        f = make_phantom("bump", SMALL_PRESET_GEOM, small_preset_op.object_grid,
                         center=c, width=w, amplitude=amp)

        def sq(xs):
            t = (np.asarray(xs) - c) / w
            out = np.zeros_like(t)
            core = np.abs(t) < 1.0
            out[core] = np.exp(2.0 * (1.0 - 1.0 / (1.0 - t[core] ** 2)))
            return out

        ref, _ = integrate(sq, c - w, c + w, 1e-12)
        assert weighted_norm(f, small_preset_op.step) == pytest.approx(
            np.sqrt(ref), rel=0.02)

    def test_support_validation(self, tiny_op):
        with pytest.raises(GeometryError):
            make_phantom("bump", TINY_GEOM, tiny_op.object_grid,
                         center=2.5, width=1.0)
        with pytest.raises(GeometryError):
            make_phantom("indicator", TINY_GEOM, tiny_op.object_grid, c=1.0, d=5.0)
        with pytest.raises(GeometryError):
            make_phantom("hat", TINY_GEOM, tiny_op.object_grid,
                         center=7.5, half_width=1.0)
        with pytest.raises(GeometryError):
            make_phantom("spike", TINY_GEOM, tiny_op.object_grid)

    def test_determinism_bitwise(self, tiny_op, tiny_sys):
        f_true = make_phantom("hat", TINY_GEOM, tiny_op.object_grid,
                              center=4.5, half_width=1.5, peak=1.0)
        g_ex = apply_forward(tiny_op, f_true)
        noisy1 = add_noise(g_ex, 1e-3, seed=42, step=tiny_op.step)
        noisy2 = add_noise(g_ex, 1e-3, seed=42, step=tiny_op.step)
        rec1 = tsvd_reconstruct(tiny_sys, noisy1.g, 2)
        rec2 = tsvd_reconstruct(tiny_sys, noisy2.g, 2)
        assert np.array_equal(rec1.f, rec2.f)


def test_export_reconstruction(tmp_path, tiny_op):
    f_true = make_phantom("hat", TINY_GEOM, tiny_op.object_grid,
                          center=4.5, half_width=1.5, peak=1.0)
    path = tmp_path / "recon.csv"
    export_reconstruction(path, tiny_op.object_grid, f_true, 0.5 * f_true,
                          {"method": "tsvd", "delta": 1e-3})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "y,f_true,f_recon"
    assert len(lines) == 1 + tiny_op.object_grid.count
    meta = json.loads((tmp_path / "recon.csv.json").read_text())
    assert meta["method"] == "tsvd"
