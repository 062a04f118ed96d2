import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goldens as G
from conftest import TINY_GEOM, SMALL_PRESET_GEOM
from truncated_hilbert import (AsymptoticConstants, Geometry, add_noise,
                               apply_adjoint, apply_forward, build_operator,
                               calibrate_constants, compute_svd, export_reconstruction, l2_validity,
                               make_phantom, optimal_cutoff_l2, optimal_cutoff_tv,
                               spectral, tail_index_map, tv_validity,
                               tikhonov_reconstruct, tsvd_reconstruct,
                               weighted_norm)
from truncated_hilbert.config import load_config
from truncated_hilbert.errors import GeometryError
from truncated_hilbert.quadrature import integrate
from truncated_hilbert.regularization import phantom_from_spec, tikhonov_eta


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


class TestTikhonovEta:
    @pytest.mark.parametrize("delta, E", [
        (1e-200, 1e200),           # E^2 overflows
        (1e-200, 1.0),             # delta^2 underflows to 0
        (1e200, 1.0),              # delta^2 overflows
        (1.0, 1e-200),             # E^2 underflows to 0
        (1e150, 1e-150),           # the quotient overflows
        (1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0), (1.0, float("inf")),
        (True, 1.0), (1.0, np.bool_(True)), ("1e-3", 1.0), (None, 1.0),
    ])
    def test_refused_with_value_error(self, delta, E):
        # these raised a bare OverflowError, ZeroDivisionError or TypeError,
        # or returned 0.0, inf, nan, or 1.0 for a bool or a negative delta
        with pytest.raises(ValueError):
            tikhonov_eta(delta, E)

    def test_value_is_delta_squared_over_e_squared(self):
        for delta, E in ((1e-3, 500.0), (1e-7, 50.0), (3, 7), (1e-150, 1e-150)):
            eta = tikhonov_eta(delta, E)
            assert type(eta) is float and eta == float(delta) ** 2 / float(E) ** 2


def _doubles(lo_exp, hi_exp):
    """Mantissa in [1, 1.79) times 10^k, k in [lo_exp, hi_exp]: the whole double range."""
    return st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 1.79),
                     st.integers(lo_exp, hi_exp))


@st.composite
def regularization_arguments(draw):
    """Every numeric argument of add_noise, tikhonov_eta, both cutoffs and both
    estimators together, with the data scale 10^[-300, 300]."""
    return (10.0 ** draw(st.floats(-300.0, 300.0)), draw(_doubles(-323, 307)),
            draw(st.integers(0, 2 ** 64)), draw(_doubles(-323, 307)),
            draw(_doubles(-323, 307)), draw(_doubles(-323, 307)),
            draw(st.integers(0, 40) | st.integers(0, 2 ** 64)), draw(_doubles(-323, 307)))


class TestExtremeArguments:
    # the argument sweep varies one parameter at a time; here all of them
    # are extreme together.  The suite turns every warning into an error.
    # The explicit examples returned all-inf data or an inf estimate, after
    # an overflow warning for the estimates
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(regularization_arguments())
    @example((1.0, 1e300, 3, 1e-300, 1.0, 1.0, 5, 1.0))
    @example((1.0, 1.7976931348623157e308, 3, 1e-3, 1.0, 1.0, 5, 1.0))
    @example((1.0, 1e200, 3, 1e-250, 1.0, 1.0, 5, 1.0))
    @example((1e300, 1e-3, 3, 1.0, 1.0, 1.0, 5, 1e-20))
    def test_finite_or_refused(self, small_preset_sys, case):
        scale, delta, seed, step, E, kappa, n_cut, eta = case
        sys_ = small_preset_sys
        k = calibrate_constants(sys_, SMALL_PRESET_GEOM, 8.0)
        g = scale * np.random.default_rng(0).standard_normal(sys_.v.shape[0])
        try:
            g = add_noise(g, delta, seed, step=step).g
            assert np.isfinite(g).all()
        except ValueError as exc:
            assert "noisy data" in str(exc)
        try:
            assert 0.0 < tikhonov_eta(delta, E) < math.inf
        except ValueError as exc:
            assert "Tikhonov parameter" in str(exc)
        for cutoff, size in ((optimal_cutoff_l2, E), (optimal_cutoff_tv, kappa)):
            cut = cutoff(delta, size, k)
            assert type(cut.n_cut) is int and cut.n_cut >= 0 and math.isfinite(cut.n_real)
        for rec in (lambda: tsvd_reconstruct(sys_, g, n_cut),
                    lambda: tikhonov_reconstruct(sys_, g, eta)):
            try:
                assert np.isfinite(rec().f).all()
            except ValueError as exc:
                assert "estimate" in str(exc)

    def test_index_past_the_double_range(self):
        # hand-built constants only (a geometry's alpha stays above about
        # 0.007): n* = 1381/1e-307 overflows, and round(inf) ended in a bare
        # OverflowError.  The validities and bounds: TestOneValidityRule
        k = AsymptoticConstants(A=1, alpha=1e-307, beta_mu=5e-308, n_mu=2, c_tv=1)
        for cutoff in (optimal_cutoff_l2, optimal_cutoff_tv):
            with pytest.raises(ValueError, match="index at delta=1e-300 leaves the double range"):
                cutoff(1e-300, 1e300, k)


@pytest.fixture
def adjoints(monkeypatch):
    """Counts the adjoint products the estimators make."""
    calls = []
    real = spectral.apply_adjoint

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "apply_adjoint", counted)
    return calls


class TestSharedProjection:
    def test_one_adjoint_per_data_vector(self, small_preset_sys, adjoints):
        sys_ = replace(small_preset_sys)
        rng = np.random.default_rng(12)
        g = rng.standard_normal(sys_.v.shape[0])
        tsvd_reconstruct(sys_, g, 3)
        tikhonov_reconstruct(sys_, g, 1e-6)
        tsvd_reconstruct(sys_, g.copy(), 5)
        assert len(adjoints) == 1
        g[0] += 1.0   # changed in place: a new vector
        tikhonov_reconstruct(sys_, g, 1e-6)
        assert len(adjoints) == 2
        tikhonov_reconstruct(sys_, rng.standard_normal(sys_.v.shape[0]), 1e-6)
        assert len(adjoints) == 3

    def test_noise_sweep_pattern_applies_the_adjoint_once(self, small_preset_sys,
                                                          adjoints):
        # per noisy vector the sweep alternates TSVD and Tikhonov over three
        # mu; the first cutoff differs from the next two, eta never changes
        sys_ = replace(small_preset_sys)
        for seed in (17, 18):
            g = np.random.default_rng(seed).standard_normal(sys_.v.shape[0])
            for n_cut in (2, 4, 4):
                tsvd_reconstruct(sys_, g, n_cut)
                tikhonov_reconstruct(sys_, g, 1e-6)
        assert len(adjoints) == 2

    def test_clamped_cutoffs_share_one_estimate(self, small_preset_sys):
        g = np.random.default_rng(15).standard_normal(small_preset_sys.v.shape[0])
        tail_len = len(small_preset_sys.tail)
        at, past = (tsvd_reconstruct(small_preset_sys, g, n)
                    for n in (tail_len, tail_len + 7))
        assert past.f.tobytes() == at.f.tobytes()
        assert (at.cutoff_n, past.cutoff_n) == (tail_len, tail_len + 7)

    def test_spectral_filter_is_the_adjoint_plus_resolved_terms(self, small_preset_op,
                                                                small_preset_sys):
        # a H^T g + u_S ((psi - a sigma_S) c_S), with c_S summed in longdouble
        sys_, op = small_preset_sys, small_preset_op
        g = np.random.default_rng(16).standard_normal(op.shape[0])
        ks = sys_.resolved
        s = sys_.sigmas[ks]
        psi = np.random.default_rng(20).standard_normal(ks.size)
        c = op.step * (sys_.v[:, ks].T.astype(np.longdouble) @ g.astype(np.longdouble))
        want = 0.5 * apply_adjoint(op, g) + sys_.u[:, ks] @ ((psi - 0.5 * s) * c.astype(float))
        got = sys_.spectral_filter(g, psi, 0.5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        # a list of the same values is the same data vector
        assert sys_.spectral_filter(list(g), psi, 0.5).tobytes() == got.tobytes()

    def test_spectral_filter_refuses_wrong_shape(self, small_preset_sys):
        m = small_preset_sys.v.shape[0]
        psi = np.zeros(small_preset_sys.resolved.size)
        for shape in [(m - 1,), (m + 1,), (1, m), (), (0,)]:
            msg = f"expected data vector of length {m}, got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(msg)):
                small_preset_sys.spectral_filter(np.zeros(shape), psi, 1.0)

    def test_cold_and_warm_bitwise_equal(self, small_preset_op, small_preset_sys):
        # every estimate from remembered products is the cold system's, byte for byte
        f_true = make_phantom("bump", SMALL_PRESET_GEOM, small_preset_op.object_grid,
                              center=60.0, width=17.0)
        g = add_noise(apply_forward(small_preset_op, f_true), 1e-4, seed=3,
                      step=small_preset_op.step).g
        warm = replace(small_preset_sys)
        estimates = [lambda s: tsvd_reconstruct(s, g, 4),
                     lambda s: tikhonov_reconstruct(s, g, 4e-12),
                     lambda s: tsvd_reconstruct(s, g, 40),
                     lambda s: tikhonov_reconstruct(s, g, 4e-12)]
        for _ in range(2):
            for estimate in estimates:
                f = estimate(warm).f
                assert f.tobytes() == estimate(replace(small_preset_sys)).f.tobytes()


class TestAccuracy:
    """Each estimate against a longdouble evaluation of its filter on the same system.

    The estimate through the adjoint may differ from the dense sum over
    every retained triple by 3 residual |g|_w (spectral_filter); beyond
    that it may err by at most 4 times the dense sum's own rounding.
    """

    @pytest.mark.parametrize("case", ["paper", "small_preset", "live_oracle_37x35"])
    def test_within_the_dense_route_and_the_residual(self, request, case):
        # the presets' configs, and the benchmark's two fixed geometry_sweep
        # members: the small preset and (0, 12, 36, 46) under its config
        cfg = load_config(None, small=case != "paper")
        if case == "live_oracle_37x35":
            op = build_operator(Geometry(0.0, 12.0, 36.0, 46.0))
            sys_ = compute_svd(op)
        else:
            op, sys_ = (request.getfixturevalue(f"{case}_{x}") for x in ("op", "sys"))
        f_true = phantom_from_spec(cfg.phantom, op.geom, op.object_grid)
        u, v, s = (x.astype(np.longdouble) for x in (sys_.u, sys_.v, sys_.sigmas))
        for delta in cfg.delta_list:
            g = add_noise(apply_forward(op, f_true), delta, cfg.seed, step=op.step).g
            exact = op.step * (v.T @ g.astype(np.longdouble))
            coeffs = sys_.step * (sys_.v.T @ g)
            rows = []
            for n in range(len(sys_.tail) + 1):
                keep = sys_.tail.start + n
                psi = np.zeros(sys_.count, dtype=np.longdouble)
                psi[:keep] = 1 / s[:keep]
                w = np.zeros(sys_.count)
                w[:keep] = coeffs[:keep] / sys_.sigmas[:keep]
                rows.append((f"tsvd n_cut={n}", tsvd_reconstruct(sys_, g, n).f, w, psi))
            eta = tikhonov_eta(delta, cfg.E)
            rows.append(("tikhonov", tikhonov_reconstruct(sys_, g, eta).f,
                         coeffs * sys_.sigmas / (sys_.sigmas ** 2 + eta),
                         s / (s ** 2 + np.longdouble(eta))))
            slack = 3 * sys_.residual * weighted_norm(g, op.step)
            for name, f, w, psi in rows:
                ref = u @ (psi * exact)
                new, dense = (weighted_norm((x - ref).astype(float), op.step)
                              for x in (f, sys_.u @ w))
                assert new <= 4 * dense + slack, f"delta={delta:g} {name}"


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
