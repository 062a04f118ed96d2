import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import goldens as G
from conftest import TINY_GEOM, SMALL_PRESET_GEOM
from truncated_hilbert import (AsymptoticConstants, Geometry, add_noise,
                               apply_forward, build_operator, export_reconstruction,
                               l2_validity, make_phantom, optimal_cutoff_l2,
                               optimal_cutoff_tv, tail_index_map, tv_validity,
                               tikhonov_reconstruct, tsvd_reconstruct,
                               weighted_norm)
from truncated_hilbert.errors import GeometryError
from truncated_hilbert.quadrature import integrate


def paper_constants():
    return AsymptoticConstants(A=G.PAPER_CALIBRATED_A, alpha=G.PAPER_ALPHA,
                               beta_mu=G.PAPER_BETA[100.0], n_mu=G.PAPER_N_MU_100,
                               c_tv=1.0)


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
        # 10**400 ended in a bare OverflowError from the rescaling
        for delta in (-1.0, float("nan"), float("inf"), 10 ** 400):
            with pytest.raises(ValueError):
                add_noise(np.zeros(3), delta, seed=0)

    @pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, -1, np.int64(-1), "3", None],
                             ids=["True", "False", "1.5", "2.0", "negative",
                                  "int64_negative", "str", "None"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # True used to be taken for 1, and 1.5 failed inside numpy's SeedSequence
        with pytest.raises(ValueError, match="seed must be an integer"):
            add_noise(np.zeros(3), 0.1, seed=seed)

    def test_numpy_integer_seed_matches_int(self):
        g = np.linspace(-1.0, 1.0, 50)
        np.testing.assert_array_equal(add_noise(g, 0.3, seed=np.int64(7)).g,
                                      add_noise(g, 0.3, seed=7).g)


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

    def test_bad_delta_or_E_refused(self):
        # before, inf overflowed in int(round(...)) and NaN failed to convert
        k = paper_constants()
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            for delta, E in ((bad, 1.0), (1e-6, bad)):
                with pytest.raises(ValueError, match=("delta" if E == 1.0 else "E")
                                   + r" must be a finite real in \(0\.0, inf\)"):
                    optimal_cutoff_l2(delta, E, k)

    @pytest.mark.parametrize("delta, E", [(1e-320, 1.0), (1e-300, 1e300),
                                          (1e300, 1e-300)])
    def test_extreme_finite_inputs(self, delta, E):
        # E A V_mu / delta overflows at the first two and underflows to
        # zero at the third; the suite turns the warnings into errors
        k = paper_constants()
        choice = optimal_cutoff_l2(delta, E, k)
        expected = (math.log(E) + math.log(k.A * k.v_mu) - math.log(delta)) / k.alpha
        assert choice.n_real == pytest.approx(expected, rel=1e-14)
        assert choice.n_cut == max(0, round(expected))
        assert l2_validity(delta, E, k) == (expected > k.n_mu)

    @pytest.mark.parametrize("delta, kappa", [(1e-6, 1.0), (1e-320, 1.0), (1e-300, 1e300),
                                              (1e300, 1e-300)])
    def test_variation_cutoff(self, delta, kappa):
        # the index log(kappa A W_mu / delta)/alpha, finite at extreme finite inputs
        k = paper_constants()
        choice = optimal_cutoff_tv(delta, kappa, k)
        expected = (math.log(kappa) + math.log(k.A * k.w_mu) - math.log(delta)) / k.alpha
        assert choice.n_real == pytest.approx(expected, rel=1e-14)
        assert choice.n_cut == max(0, round(expected))
        assert tv_validity(delta, kappa, k) == (expected > k.n_mu)

    def test_paper_golden_composition(self):
        k = paper_constants()
        choice = optimal_cutoff_l2(1e-6, 1.0, k)
        expected = np.log(1.0 * k.A * k.v_mu / 1e-6) / k.alpha
        assert choice.n_real == pytest.approx(expected, rel=1e-14)
        assert choice.n_cut == round(expected)
        assert l2_validity(1e-6, 1.0, k) == (expected > k.n_mu)

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
        s, u, v = sys_.sigmas[k], sys_.u[:, k], sys_.v[:, k]
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

    @pytest.mark.parametrize("n_cut", [2.5, 3.0, np.float64(3.0), True, False,
                                       np.bool_(True), "3", None, np.int64(-1)],
                             ids=["2.5", "3.0", "float64", "True", "False",
                                  "bool_", "str", "None", "int64_negative"])
    def test_cutoff_must_be_an_integer(self, tiny_sys, n_cut):
        # a float used to fail as a slice index with a bare TypeError, and
        # True was taken for 1 and recorded as cutoff_n=True
        with pytest.raises(ValueError, match="n_cut must be an integer"):
            tsvd_reconstruct(tiny_sys, np.zeros(7), n_cut)

    @pytest.mark.parametrize("n_cut", [3, np.int64(3), np.int32(3), np.uint8(3)],
                             ids=["int", "int64", "int32", "uint8"])
    def test_numpy_integers_recorded_as_int(self, tiny_sys, n_cut):
        g = np.random.default_rng(2).standard_normal(7)
        rec = tsvd_reconstruct(tiny_sys, g, n_cut)
        assert type(rec.cutoff_n) is int and rec.cutoff_n == 3
        cold = tsvd_reconstruct(replace(tiny_sys), g, 3)
        assert rec.f.tobytes() == cold.f.tobytes()


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
        s, u, v = sys_.sigmas[k], sys_.u[:, k], sys_.v[:, k]
        eta = 0.1
        rec = tikhonov_reconstruct(sys_, 2.0 * v, eta)
        np.testing.assert_allclose(rec.f, 2.0 * s / (s ** 2 + eta) * u, atol=1e-10)

    def test_norm_vanishes_for_large_eta(self, tiny_sys):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(7)
        big = tikhonov_reconstruct(tiny_sys, g, 1e12)
        assert weighted_norm(big.f, tiny_sys.step) < 1e-10

    def test_eta_validation(self, tiny_sys):
        # 10**400 ended in a bare OverflowError from float(eta)
        for eta in (0.0, float("nan"), 10 ** 400):
            with pytest.raises(ValueError):
                tikhonov_reconstruct(tiny_sys, np.zeros(7), eta)

    @pytest.mark.parametrize("eta", [True, np.bool_(True), "1e-6", np.array([1e-6, 1e-5]),
                                     1e-6 + 0j, None, float("inf"), -float("inf"),
                                     -1e-6, np.float32("inf")],
                             ids=["True", "bool_", "str", "array", "complex", "None",
                                  "inf", "-inf", "negative", "float32_inf"])
    def test_eta_must_be_a_finite_positive_real(self, tiny_sys, eta):
        # True was recorded as eta=True, inf returned f = 0, "1e-6" failed
        # with a bare TypeError and an array with numpy's ambiguous truth value
        with pytest.raises(ValueError, match=r"eta must be a finite real in \(0\.0, inf\)"):
            tikhonov_reconstruct(tiny_sys, np.zeros(7), eta)

    @pytest.mark.parametrize("eta", [np.float32(1e-3), np.float64(1e-3), 1, np.int64(1)],
                             ids=["float32", "float64", "int", "int64"])
    def test_eta_recorded_as_float(self, tiny_sys, eta):
        g = np.random.default_rng(3).standard_normal(7)
        rec = tikhonov_reconstruct(tiny_sys, g, eta)
        assert type(rec.eta) is float and rec.eta == float(eta)
        cold = tikhonov_reconstruct(replace(tiny_sys), g, float(eta))
        assert rec.f.tobytes() == cold.f.tobytes()


class _CountingArray(np.ndarray):
    """An array that records each matrix product it enters, views included."""

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products.append(ufunc)
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _counting(sys_, name):
    """A cold copy of sys_ whose u or v records the products it enters."""
    arr = getattr(sys_, name).view(_CountingArray)
    arr.products = []
    return replace(sys_, **{name: arr}), arr.products


class TestSharedProjection:
    def test_one_read_of_v_per_data_vector(self, small_preset_sys):
        sys_, products = _counting(small_preset_sys, "v")
        rng = np.random.default_rng(12)
        g = rng.standard_normal(sys_.v.shape[0])
        tsvd_reconstruct(sys_, g, 3)
        tikhonov_reconstruct(sys_, g, 1e-6)
        tsvd_reconstruct(sys_, g.copy(), 5)
        assert len(products) == 1
        tikhonov_reconstruct(sys_, rng.standard_normal(sys_.v.shape[0]), 1e-6)
        assert len(products) == 2

    def test_one_synthesis_per_estimator_key(self, small_preset_sys):
        sys_, products = _counting(small_preset_sys, "u")
        g = np.random.default_rng(13).standard_normal(sys_.v.shape[0])
        for _ in range(3):
            tsvd_reconstruct(sys_, g, 4)
            tikhonov_reconstruct(sys_, g.copy(), 1e-6)
        assert len(products) == 2
        # each change of key or of data vector makes exactly one more
        tikhonov_reconstruct(sys_, g, 1e-8)
        assert len(products) == 3
        tsvd_reconstruct(sys_, g, 2)
        assert len(products) == 4
        g = np.random.default_rng(14).standard_normal(sys_.v.shape[0])
        tsvd_reconstruct(sys_, g, 2)
        assert len(products) == 5
        g[0] += 1.0
        tsvd_reconstruct(sys_, g, 2)
        assert len(products) == 6
        tikhonov_reconstruct(sys_, g, 1e-8)
        tikhonov_reconstruct(sys_, g, 1e-8)
        assert len(products) == 7

    def test_clamped_cutoffs_share_one_estimate(self, small_preset_sys):
        sys_, products = _counting(small_preset_sys, "u")
        g = np.random.default_rng(15).standard_normal(sys_.v.shape[0])
        tail_len = len(sys_.tail)
        at, past = (tsvd_reconstruct(sys_, g, n) for n in (tail_len, tail_len + 7))
        assert len(products) == 1
        assert past.f is at.f
        assert (at.cutoff_n, past.cutoff_n) == (tail_len, tail_len + 7)

    def test_synthesize_is_u_times_w(self, small_preset_sys):
        sys_ = replace(small_preset_sys)
        w = np.random.default_rng(16).standard_normal(sys_.count)
        f = sys_.synthesize(w)
        assert f.tobytes() == (sys_.u @ w).tobytes()
        assert not f.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f[0] = 0.0
        # a list of the same values is the same input, and an integer
        # vector is converted to float
        assert sys_.synthesize(list(w)) is f
        ones = sys_.synthesize(np.ones(sys_.count, dtype=int))
        assert ones.tobytes() == (sys_.u @ np.ones(sys_.count)).tobytes()

    def test_synthesize_refuses_wrong_shape(self, small_preset_sys):
        count = small_preset_sys.count
        for shape in [(count - 1,), (count + 1,), (1, count), (), (0,)]:
            msg = f"expected weights of length {count}, got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(msg)):
                small_preset_sys.synthesize(np.zeros(shape))

    def test_noise_sweep_pattern_makes_three_syntheses(self, small_preset_sys):
        # per noisy vector the sweep alternates TSVD and Tikhonov over three
        # mu; the first cutoff differs from the next two, eta never changes
        sys_, products = _counting(small_preset_sys, "u")
        g = np.random.default_rng(17).standard_normal(sys_.v.shape[0])
        for n_cut in (2, 4, 4):
            tsvd_reconstruct(sys_, g, n_cut)
            tikhonov_reconstruct(sys_, g, 1e-6)
        assert len(products) == 3

    def test_hit_makes_its_entry_most_recent(self, small_preset_sys):
        sys_, products = _counting(small_preset_sys, "u")
        a, b, c = np.random.default_rng(19).standard_normal((3, sys_.count))
        for w in (a, b, a, c):   # c drops b, the least recently used
            sys_.synthesize(w)
        assert len(products) == 3
        sys_.synthesize(a)
        assert len(products) == 3
        sys_.synthesize(b)
        assert len(products) == 4

    def test_weights_changed_in_place_synthesized_again(self, small_preset_sys):
        sys_, products = _counting(small_preset_sys, "u")
        w = np.random.default_rng(18).standard_normal(sys_.count)
        first = sys_.synthesize(w)
        assert sys_.synthesize(w) is first and len(products) == 1
        w[0] += 1.0
        second = sys_.synthesize(w)
        assert len(products) == 2
        assert second.tobytes() == (small_preset_sys.u @ w).tobytes()
        assert first.tobytes() != second.tobytes()

    def test_cold_and_warm_bitwise_equal(self, small_preset_op, small_preset_sys):
        # every remembered estimate is the cold system's, byte for byte
        f_true = make_phantom("bump", SMALL_PRESET_GEOM, small_preset_op.object_grid,
                              center=60.0, width=17.0)
        g = add_noise(apply_forward(small_preset_op, f_true), 1e-4, seed=3,
                      step=small_preset_op.step).g
        warm = replace(small_preset_sys)
        warm.coefficients(g)
        estimates = [lambda s: tsvd_reconstruct(s, g, 4),
                     lambda s: tikhonov_reconstruct(s, g, 4e-12),
                     lambda s: tsvd_reconstruct(s, g, 40),
                     lambda s: tikhonov_reconstruct(s, g, 4e-12)]
        for _ in range(2):
            for estimate in estimates:
                f = estimate(warm).f
                assert f.tobytes() == estimate(replace(small_preset_sys)).f.tobytes()
                assert not f.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    f[0] = 0.0


class TestPhantoms:
    def test_hat_total_variation(self, small_preset_op):
        # the sampled hat rises to its largest sample and falls back, so its
        # TV is 2 max |f|: 2 |peak| only with the centre on a sample (60.5);
        # the highest sample of the hat at 109.9 is 109.5, giving TV 1.81
        for center, half_width, peak, tv_expected in [
                (60.5, 20.0, 1.5, 3.0), (109.9, 4.25, 1.0, 2 * (1 - 0.4 / 4.25))]:
            f = make_phantom("hat", SMALL_PRESET_GEOM, small_preset_op.object_grid,
                             center=center, half_width=half_width, peak=peak)
            tv = np.abs(np.diff(np.concatenate([[0.0], f, [0.0]]))).sum()
            assert tv == pytest.approx(2 * np.abs(f).max(), rel=1e-12)
            assert tv == pytest.approx(tv_expected, rel=1e-10)

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

    @pytest.mark.parametrize("kind, params", [
        ("bump", {"center": 4.0}),                               # missing width
        ("hat", {"half_width": 1.0}),                            # missing center
        ("bump", {"center": 4.0, "width": 1.0, "widht": 3.0}),   # misspelt
        ("indicator", {"c": 3.0, "d": 5.0, "peak": 1.0}),
        ("hat", {"center": 4.0, "half_width": 1.0, "grid": 1.0}),
        (["bump"], {"center": 4.0, "width": 1.0}),
    ])
    def test_schema_refused(self, tiny_op, kind, params):
        with pytest.raises(GeometryError):
            make_phantom(kind, TINY_GEOM, tiny_op.object_grid, **params)

    @pytest.mark.parametrize("kind, scale", [("bump", "amplitude"), ("hat", "peak")])
    def test_narrow_support_and_negative_scale(self, kind, scale):
        # a support much narrower than the grid spacing puts the grid at
        # ~1e308 half-widths and beyond: no overflow warning, all zeros;
        # a negative scale flips the profile and leaves it 0 outside
        geom = Geometry(-3.0, -1.0, 1.0, 3.0)
        grid = build_operator(geom).object_grid
        width = "width" if kind == "bump" else "half_width"
        f = make_phantom(kind, geom, grid, center=0.0, **{width: 5e-324, scale: 2.0})
        assert not f.any()
        f = make_phantom(kind, geom, grid, center=0.5, **{width: 1.0, scale: -2.0})
        assert np.all(f <= 0.0) and f.min() < 0.0
        assert not f[np.abs(grid.points - 0.5) >= 1.0].any()

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
