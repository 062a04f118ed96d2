import math
import sys
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens as G
from conftest import PAPER_GEOM, SMALL_PRESET_GEOM, UNIT_GEOM
from truncated_hilbert import (AsymptoticConstants, add_noise, apply_forward,
                               build_operator, calibrate_constants,
                               full_interval_bound, full_interval_validity,
                               l2_validity, make_phantom, optimal_cutoff_l2,
                               optimal_cutoff_tv, roi_bound_l2, roi_bound_tv,
                               roi_mask, tsvd_reconstruct, tv_validity, v_mu, w_mu,
                               weighted_norm, write_bounds_csv)
from truncated_hilbert.config import load_config
from truncated_hilbert.errors import BoundNotApplicableError, SpectralError
from truncated_hilbert.geometry import Geometry, alpha, beta_mu_exact
from truncated_hilbert.regularization import default_phantom
from truncated_hilbert.spectral import SingularSystem, roi_norm


def paper_constants(c_tv=1.0):
    return AsymptoticConstants(A=G.PAPER_CALIBRATED_A, alpha=G.PAPER_ALPHA,
                               beta_mu=G.PAPER_BETA[100.0], n_mu=G.PAPER_N_MU_100,
                               c_tv=c_tv)


class TestClosedFormConstants:
    def test_v_mu_golden(self):
        assert v_mu(2.0, 1.0) == pytest.approx(G.V_MU_ALPHA2_BETA1, rel=1e-12)
        # at (alpha, beta) = (2, 1) the expression collapses to 1/e
        assert v_mu(2.0, 1.0) == pytest.approx(1.0 / np.e, rel=1e-12)

    def test_v_mu_small_beta_limit(self):
        assert v_mu(2.0, 1e-4 / 4) < v_mu(2.0, 1e-4) < v_mu(2.0, 1e-2)
        assert v_mu(3.0, 1e-8) > 0

    def test_v_mu_validation(self):
        with pytest.raises(BoundNotApplicableError):
            v_mu(1.0, 1.0)
        with pytest.raises(BoundNotApplicableError):
            v_mu(1.0, 2.0)

    def test_w_mu_golden(self):
        assert w_mu(2.0, 1.0, 1.0, 10) == pytest.approx(
            G.W_MU_ALPHA2_BETA1_C1_N10, rel=1e-12)

    def test_w_mu_halves_when_n_doubles(self):
        assert w_mu(2.0, 1.0, 1.0, 20) == pytest.approx(
            0.5 * w_mu(2.0, 1.0, 1.0, 10), rel=1e-14)

    def test_w_mu_positive(self):
        assert w_mu(5.0, 0.3, 2.5, 3) > 0

    def test_large_beta_underflows_without_warning(self):
        # both constants lie near e^(-beta) < 1e-300; expm1 overflowed
        # with a RuntimeWarning on the way to that 0
        assert v_mu(1000.0, 800.0) == 0.0
        assert w_mu(1000.0, 800.0, 1.0, 2) == 0.0
        # the cutoffs read log V_mu and log W_mu, which stay finite: the
        # index was -inf.  No index exceeds N_mu then
        k = AsymptoticConstants(A=1.0, alpha=1000.0, beta_mu=800.0, n_mu=2, c_tv=1.0)
        with mpmath.workdps(40):
            gap = mpmath.mpf(200)
            lead = mpmath.sqrt(-mpmath.expm1(-2 * gap)) / gap * 800 * mpmath.exp(-800)
            log_v = mpmath.log(lead / mpmath.sqrt(-mpmath.expm1(-1600)))
            log_w = mpmath.log(lead / (2 * -mpmath.expm1(-800)))
        for cutoff, validity, log_c in ((optimal_cutoff_l2, l2_validity, log_v),
                                        (optimal_cutoff_tv, tv_validity, log_w)):
            cut = cutoff(1e-3, 1.0, k)
            want = float((log_c - mpmath.log(mpmath.mpf(1e-3))) / 1000)
            assert cut.n_cut == 0
            assert cut.n_real == pytest.approx(want, rel=1e-14)
            assert not validity(1e-3, 1.0, k)
        assert optimal_cutoff_l2(1e-3, 1.0, k).n_real == pytest.approx(-0.79170595036,
                                                                       rel=1e-10)
        with pytest.raises(BoundNotApplicableError, match="-0.792 <= N_mu"):
            roi_bound_l2(1e-3, 1.0, k)

    @pytest.mark.parametrize("a, b", [
        (a, b) for a in (G.PAPER_ALPHA, 2.0)
        for b in (5e-21, 1e-16, 1e-12, 1e-6, 0.3, 1.0, a - 1e-2, a - 4e-4)])
    def test_v_mu_w_mu_against_multiprecision(self, a, b):
        # e^(2 beta) - 1 and 1 - e^(-2 gap) cancel for small beta (V_mu = inf
        # once beta < 1e-16) and as beta approaches alpha
        with mpmath.workdps(50):
            am, bm = mpmath.mpf(a), mpmath.mpf(b)
            root = mpmath.sqrt(-mpmath.expm1(-2 * (am - bm)))
            v_ref = bm / (am - bm) * root / mpmath.sqrt(mpmath.expm1(2 * bm))
            w_ref = bm / (am - bm) * root * 1.5 / (3 * mpmath.expm1(bm))
            assert abs(v_mu(a, b) / v_ref - 1) <= 1e-15
            assert abs(w_mu(a, b, 1.5, 3) / w_ref - 1) <= 1e-15

    @pytest.mark.parametrize("args", [(0.01, 1e-300, 1.7e308, 2),
                                      (2.0, 1.9, 1.7e308, 1)])
    def test_w_mu_past_the_double_range_refused(self, args):
        # W_mu is 1.2e309 and 2.4e308; the first returned inf
        with pytest.raises(BoundNotApplicableError, match="W_mu"):
            w_mu(*args)

    @pytest.mark.parametrize("args", [(2.0, 1.5, 1.7e308, 10),
                                      (1e10, 9999999999.999998, 1.7e308, 1)])
    def test_w_mu_past_its_partial_products_against_multiprecision(self, args):
        # c_tv times beta/gap overflows where W_mu does not: the first, about
        # 1.165e307, was refused, and the second, which underflows to 0,
        # raised on a nan after an invalid-value warning
        a, b, c, n = args
        with mpmath.workdps(50):
            am, bm = mpmath.mpf(a), mpmath.mpf(b)
            ref = float(bm / (am - bm) * mpmath.sqrt(-mpmath.expm1(-2 * (am - bm)))
                        * c / (n * mpmath.expm1(bm)))
        got = w_mu(*args)
        # the log form errs by about eps times the log of c_tv, 710
        assert got == ref == 0.0 or abs(got / ref - 1) <= 1e-12


class TestConstantsType:
    def test_invariants_enforced(self):
        for bad in ({"A": 2.5}, {"A": 0.0}, {"beta_mu": 5.0}, {"beta_mu": 6.0},
                    {"beta_mu": 0.0}, {"n_mu": 1}, {"c_tv": 0.0}, {"c_tv": -1.0},
                    # W_mu = inf, which tv_validity took for valid
                    {"alpha": 0.01, "beta_mu": 1e-300, "c_tv": 1.7e308}):
            with pytest.raises(SpectralError):
                AsymptoticConstants(**{"A": 1.5, "alpha": 5.0, "beta_mu": 1.0,
                                       "n_mu": 2, "c_tv": 1.0, **bad})

    def test_derived_constants_are_the_closed_forms(self):
        k = paper_constants(c_tv=11.2)
        assert AsymptoticConstants.n0 == k.n0 == 1
        assert k.b_mu == 1.0 / np.sqrt(k.n_mu * np.pi)
        assert k.v_mu == v_mu(k.alpha, k.beta_mu)
        assert k.w_mu == w_mu(k.alpha, k.beta_mu, k.c_tv, k.n_mu)

    def test_replace_rederives(self):
        k = paper_constants()
        k3 = replace(k, n_mu=3)
        assert k3.b_mu == 1.0 / np.sqrt(3 * np.pi)
        assert k3.w_mu == w_mu(k.alpha, k.beta_mu, k.c_tv, 3)
        assert k3.v_mu == k.v_mu
        assert replace(k3, n_mu=k.n_mu) == k

    @pytest.mark.parametrize("name", ["n0", "b_mu", "v_mu", "w_mu"])
    def test_derived_constants_not_accepted(self, name):
        with pytest.raises(TypeError):
            AsymptoticConstants(A=1.5, alpha=5.0, beta_mu=1.0, n_mu=2, c_tv=1.0,
                                **{name: 1})


class TestCalibration:
    def test_paper_geometry_golden(self, paper_sys):
        k = calibrate_constants(paper_sys, PAPER_GEOM, 100.0)
        assert k.A == pytest.approx(G.PAPER_CALIBRATED_A, rel=1e-6)
        assert k.n0 == G.PAPER_N0
        assert k.n_mu == G.PAPER_N_MU_100
        assert k.b_mu == pytest.approx(G.PAPER_B_MU_100, rel=1e-12)
        assert k.v_mu == pytest.approx(G.PAPER_V_MU_100, rel=1e-6)
        # the W_mu golden was computed at c_tv = 1, and W_mu is linear in c_tv
        assert k.w_mu == pytest.approx(G.PAPER_W_MU_100 * k.c_tv, rel=1e-6)

    @pytest.mark.parametrize("fixture, geom, small", [
        ("paper_sys", PAPER_GEOM, False),
        ("small_preset_sys", SMALL_PRESET_GEOM, True),
    ], ids=["paper", "small"])
    def test_envelopes_hold_on_the_tail(self, request, fixture, geom, small):
        # sigma_n >= A e^(-alpha n) from n = 1 on, and the ROI envelope from N_mu on
        sys_ = request.getfixturevalue(fixture)
        ks = np.array(sys_.tail)
        ns = ks - sys_.tail.start + 1
        for mu in load_config(None, small=small).mu_list:
            k = calibrate_constants(sys_, geom, mu)
            assert k.n0 == 1
            assert np.all(sys_.sigmas[ks] >= k.A * np.exp(-k.alpha * ns))
            rn = np.array([roi_norm(sys_, kk, mu) for kk in ks])
            tail = ns >= k.n_mu
            assert np.all(rn[tail] <= k.b_mu * np.exp(-k.beta_mu * ns[tail]))

    @pytest.mark.parametrize("fixture, geom, c_tv, tol", [
        ("paper_sys", PAPER_GEOM, 11.2, 0.1),
        ("small_preset_sys", SMALL_PRESET_GEOM, 2.92, 0.05),
    ], ids=["paper", "small"])
    def test_measured_c_tv_bounds_phantom_coefficients(self, request, fixture, geom,
                                                        c_tv, tol):
        # n |<f, u_n>| <= c_tv |f|_TV on every tail index for objects vanishing
        # at a2 and a4; a hat near a4 reaches 6.95 |f|_TV on the paper grid
        # and 1.97 on the small preset, so c_tv = 1 fails on both
        sys_ = request.getfixturevalue(fixture)
        k = calibrate_constants(sys_, geom, 20.0)
        assert k.c_tv == pytest.approx(c_tv, abs=tol)
        w = geom.a4 - geom.a2
        grid = sys_.object_grid
        bump = default_phantom(geom)
        phantoms = [
            make_phantom("hat", geom, grid, center=geom.a4 - 0.06 * w, half_width=0.05 * w),
            make_phantom("indicator", geom, grid, c=geom.a2 + 0.1 * w, d=geom.a4 - 0.1 * w),
            make_phantom(bump.pop("kind"), geom, grid, **bump),
        ]
        ks = np.array(sys_.tail)
        ns = ks - sys_.tail.start + 1
        for f in phantoms:
            tv = np.abs(np.diff(np.concatenate([[0.0], f, [0.0]]))).sum()
            assert np.all(ns * np.abs(sys_.step * f @ sys_.u[:, ks]) <= k.c_tv * tv)

    def test_synthetic_exact_model(self):
        # spectrum exactly 2 e^(-alpha n) and ROI-free columns: A = 0.98 * 2
        geom = UNIT_GEOM
        a = alpha(geom)
        count = 10
        sig = np.concatenate([[0.9], 2.0 * np.exp(-a * np.arange(1, count))])
        op = build_operator(geom, step=0.1)
        ys = op.object_grid.points
        u = np.zeros((ys.size, count))
        outside = np.where(ys > geom.a3)[0]
        for j in range(count):
            u[outside[j % outside.size], j] = 1.0 / np.sqrt(op.step)
        synth = SingularSystem(sigmas=sig, u=u, v=np.zeros((op.shape[0], count)),
                               op=op, residual=0.0)
        k = calibrate_constants(synth, geom, 0.05)
        assert k.A == pytest.approx(1.96, rel=1e-12)
        assert k.n0 == 1
        assert k.n_mu == 2
        assert k.b_mu == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_geometry_must_be_the_systems(self, small_preset_sys):
        # alpha and beta_mu of another geometry on this tail gave A = 3.2e-4
        # for a4 = 200, against 0.71 for the system's own a4 = 115
        with pytest.raises(ValueError, match="is not the system's"):
            calibrate_constants(small_preset_sys, Geometry(0, 30, 90, 200), 10.0)
        equal = Geometry(*small_preset_sys.geom.points)
        assert equal is not small_preset_sys.geom
        k = calibrate_constants(small_preset_sys, equal, 10.0)
        assert k == calibrate_constants(small_preset_sys, small_preset_sys.geom, 10.0)
        assert k.A == pytest.approx(0.71, abs=0.01)

    def test_explicit_constants_refused(self, small_preset_sys):
        # only None, which ExperimentConfig's c_tv and A still hold, is accepted
        geom = SMALL_PRESET_GEOM
        for extra in ({"c_tv": 1.0}, {"amplitude": 1.95}):
            with pytest.raises(ValueError):
                calibrate_constants(small_preset_sys, geom, 10.0, **extra)
        assert (calibrate_constants(small_preset_sys, geom, 10.0, c_tv=None, amplitude=None)
                == calibrate_constants(small_preset_sys, geom, 10.0))

    def test_n_mu_nonincreasing_in_mu(self, paper_sys):
        k_small = calibrate_constants(paper_sys, PAPER_GEOM, 20.0)
        k_large = calibrate_constants(paper_sys, PAPER_GEOM, 100.0)
        assert k_large.n_mu <= k_small.n_mu

    def test_small_preset_calibrates(self, small_preset_sys):
        k = calibrate_constants(small_preset_sys, SMALL_PRESET_GEOM, 10.0)
        assert k.alpha == pytest.approx(G.PAPER_ALPHA, rel=1e-9)
        assert k.n_mu > k.n0


def last_valid_delta(cutoff, size, k):
    """The largest double delta at which cutoff(delta, size, k).n_real exceeds N_mu."""
    lo, hi = 1e-300, 1e300          # the index decreases with delta
    assert cutoff(lo, size, k).n_real > k.n_mu >= cutoff(hi, size, k).n_real
    while math.nextafter(lo, math.inf) < hi:
        mid = max(math.nextafter(lo, math.inf), min(math.sqrt(lo) * math.sqrt(hi),
                                                    math.nextafter(hi, 0.0)))
        lo, hi = (mid, hi) if cutoff(mid, size, k).n_real > k.n_mu else (lo, mid)
    return lo


class TestL2Bound:
    def test_flavor_relations_exact(self):
        k = paper_constants()
        delta, E = 1e-6, 1.0
        pair = roi_bound_l2(delta, E, k, "pair")
        tsvd = roi_bound_l2(delta, E, k, "tsvd")
        tikh = roi_bound_l2(delta, E, k, "tikhonov")
        assert pair == pytest.approx(2.0 * tsvd, rel=1e-14)
        assert tikh == pytest.approx((1.0 + np.sqrt(2.0)) * tsvd, rel=1e-14)
        with pytest.raises(ValueError):
            roi_bound_l2(delta, E, k, "single")

    def test_golden_value(self):
        # frozen composition over the calibrated constants
        k = paper_constants()
        head = 1e-6 * np.exp(k.alpha * k.n_mu) / k.A
        gap = k.alpha - k.beta_mu
        tail = (1.0 * k.b_mu * (1e-6 / (k.A * k.v_mu)) ** (k.beta_mu / k.alpha)
                * k.alpha / (gap * np.sqrt(np.expm1(2 * k.beta_mu))))
        assert roi_bound_l2(1e-6, 1.0, k, "tsvd") == pytest.approx(
            head + tail, rel=1e-12)

    def test_power_law_scaling_of_dominant_term(self):
        k = paper_constants()
        E = 1.0

        def tail_term(delta):
            head = delta * np.exp(k.alpha * k.n_mu) / k.A
            return roi_bound_l2(delta, E, k, "tsvd") - head

        ratio = tail_term(1e-7) / tail_term(1e-6)
        assert ratio == pytest.approx(10.0 ** (-k.beta_mu / k.alpha), rel=1e-10)

    def test_validity_error(self):
        k = paper_constants()
        with pytest.raises(BoundNotApplicableError):
            roi_bound_l2(10.0, 1.0, k, "pair")
        assert not l2_validity(10.0, 1.0, k)
        assert l2_validity(1e-8, 1.0, k)

    def test_monotone_in_delta_and_E(self):
        k = paper_constants()
        assert roi_bound_l2(1e-6, 1.0, k) < roi_bound_l2(2e-6, 1.0, k)
        assert roi_bound_l2(1e-6, 1.0, k) < roi_bound_l2(1e-6, 2.0, k)

    def test_loglog_slope_matches_holder_power(self):
        # deep in the small-noise regime, where the power-law term dominates
        k = paper_constants()
        E = 1.0
        d1, d2 = 1e-12, 1e-13
        s = (np.log(roi_bound_l2(d1, E, k)) - np.log(roi_bound_l2(d2, E, k))) \
            / (np.log(d1) - np.log(d2))
        target = k.beta_mu / k.alpha
        assert abs(s - target) / target < 0.01

    def test_validity_threshold_strict(self):
        # valid up to the last delta whose quasi-optimal index exceeds N_mu
        k = paper_constants()
        thresh = last_valid_delta(optimal_cutoff_l2, 1.0, k)
        assert thresh == pytest.approx(k.A * k.v_mu * np.exp(-k.alpha * k.n_mu),
                                       rel=1e-13)
        assert l2_validity(0.99 * thresh, 1.0, k)
        assert l2_validity(thresh, 1.0, k)
        assert not l2_validity(math.nextafter(thresh, math.inf), 1.0, k)
        assert not l2_validity(2.0 * thresh, 1.0, k)
        roi_bound_l2(thresh, 1.0, k)
        with pytest.raises(BoundNotApplicableError, match="<= N_mu"):
            roi_bound_l2(math.nextafter(thresh, math.inf), 1.0, k)


class TestTvBound:
    def test_validity_threshold_strict(self):
        # valid up to the last delta whose quasi-optimal index exceeds N_mu
        k = paper_constants()
        thresh = last_valid_delta(optimal_cutoff_tv, 1.0, k)
        assert thresh == pytest.approx(k.A * k.w_mu * np.exp(-k.alpha * k.n_mu),
                                       rel=1e-13)
        assert tv_validity(0.99 * thresh, 1.0, k)
        assert tv_validity(thresh, 1.0, k)
        assert not tv_validity(math.nextafter(thresh, math.inf), 1.0, k)
        assert not tv_validity(2.0 * thresh, 1.0, k)

    def test_golden_value(self):
        k = paper_constants()
        gap = k.alpha - k.beta_mu
        head = 2e-8 / k.A * np.exp(k.alpha * k.n_mu)
        tail = (2.0 * k.c_tv / k.n_mu * k.b_mu
                * (1e-8 / (k.A * k.w_mu)) ** (k.beta_mu / k.alpha)
                * k.alpha / (gap * np.expm1(k.beta_mu)))
        assert roi_bound_tv(1e-8, 1.0, k) == pytest.approx(head + tail, rel=1e-12)

    def test_power_law_in_delta(self):
        k = paper_constants()

        def tail_term(delta):
            head = 2.0 * delta / k.A * np.exp(k.alpha * k.n_mu)
            return roi_bound_tv(delta, 1.0, k) - head

        ratio = tail_term(1e-9) / tail_term(1e-8)
        assert ratio == pytest.approx(10.0 ** (-k.beta_mu / k.alpha), rel=1e-9)

    def test_kappa_to_zero(self):
        # with delta scaled along, the bound vanishes with kappa
        k = paper_constants()
        vals = []
        for kappa in (1.0, 1e-2, 1e-4):
            delta = 1e-9 * kappa
            vals.append(roi_bound_tv(delta, kappa, k))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3 * vals[0]

    def test_invalid_raises(self):
        k = paper_constants()
        with pytest.raises(BoundNotApplicableError):
            roi_bound_tv(1.0, 1.0, k)

    def test_bound_beyond_double_range_is_not_valid(self):
        # mu = 6.2e-277 on the small preset: beta_mu is 3.6e-139, so the tail
        # grows like 0.4 kappa / beta_mu and leaves the double range near
        # kappa = 1.6e170, long before delta/kappa reaches the smallness
        # threshold; valid must still mean a finite bound
        a = alpha(SMALL_PRESET_GEOM)
        beta = beta_mu_exact(SMALL_PRESET_GEOM, 6.173353054684783e-277)
        k = AsymptoticConstants(A=0.71, alpha=a, beta_mu=beta, n_mu=2, c_tv=1.0)
        with mpmath.workdps(30):
            ka, kb, kA, kw, delta, kappa = map(
                mpmath.mpf, (k.alpha, k.beta_mu, k.A, k.w_mu, 1e-3, 1e100))
            gap = ka - kb
            want = (2 * delta / kA * mpmath.exp(ka * k.n_mu)
                    + 2 * k.c_tv / k.n_mu * mpmath.mpf(k.b_mu) * kappa ** (gap / ka)
                    * (delta / (kA * kw)) ** (kb / ka) * ka / (gap * mpmath.expm1(kb)))
        assert tv_validity(1e-3, 1e100, k)
        assert roi_bound_tv(1e-3, 1e100, k) == pytest.approx(float(want), rel=1e-12)
        assert not tv_validity(1e-3, 1e171, k)
        with pytest.raises(BoundNotApplicableError):
            roi_bound_tv(1e-3, 1e171, k)
        verdicts = []
        for kappa in 10.0 ** np.arange(20.0, 300.0, 3.0):
            verdicts.append(tv_validity(1e-3, kappa, k))
            if verdicts[-1]:
                assert np.isfinite(roi_bound_tv(1e-3, kappa, k))
        assert True in verdicts and False in verdicts


# N_mu = 2 and beta_mu = alpha - 1e-9: V_mu = 1507, and the power form
# (delta/(A V_mu E))^(beta/alpha) of the tail underflows past E = 1e300
NEAR_ALPHA = dict(A=1.0, alpha=5.0, beta_mu=5.0 - 1e-9, n_mu=2, c_tv=1.0)


def mp_l2_bound(delta, E, k, dps=40):
    """The two-solution bound under the norm prior, evaluated in mpmath."""
    with mpmath.workdps(dps):
        A, a, b, d, E = map(mpmath.mpf, (k.A, k.alpha, k.beta_mu, delta, E))
        gap = a - b
        V = b / gap * mpmath.sqrt(-mpmath.expm1(-2 * gap) / mpmath.expm1(2 * b))
        B = 1 / mpmath.sqrt(k.n_mu * mpmath.pi)
        return 2 * (d * mpmath.exp(a * k.n_mu) / A
                    + E * B * (d / (A * V * E)) ** (b / a)
                    * a / (gap * mpmath.sqrt(mpmath.expm1(2 * b))))


def mp_tv_bound(delta, kappa, k, dps=40):
    """The bound under the variation prior, evaluated in mpmath."""
    with mpmath.workdps(dps):
        A, a, b, c, d, kap = map(mpmath.mpf,
                                 (k.A, k.alpha, k.beta_mu, k.c_tv, delta, kappa))
        gap = a - b
        W = (b / gap * mpmath.sqrt(-mpmath.expm1(-2 * gap)) * c
             / (k.n_mu * mpmath.expm1(b)))
        B = 1 / mpmath.sqrt(k.n_mu * mpmath.pi)
        return 2 * (d * mpmath.exp(a * k.n_mu) / A
                    + c / k.n_mu * B * kap ** (gap / a) * (d / (A * W)) ** (b / a)
                    * a / (gap * mpmath.expm1(b)))


class TestExtremePrior:
    @pytest.mark.parametrize("E, want", [(1e306, 61.894174590450),
                                         (1.7e308, 61.894174608776)])
    def test_l2_bound_at_huge_E(self, E, want):
        # the power form underflowed to 0 with a RuntimeWarning, leaving the
        # head 44.05 alone, while l2_validity said valid
        k = AsymptoticConstants(**NEAR_ALPHA)
        assert l2_validity(1e-3, E, k)
        got = roi_bound_l2(1e-3, E, k, "pair")
        assert got == pytest.approx(float(mp_l2_bound(1e-3, E, k)), rel=1e-12)
        assert got == pytest.approx(want, rel=1e-12)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda t: 10.0 ** t)


@st.composite
def extreme_draws(draw):
    """delta in [1e-300, 1], a prior size in [1e-300, 1.7e308], and constants
    whose gap alpha - beta_mu runs from 1e-12 alpha to nearly alpha."""
    delta = draw(_log_uniform(-300.0, 0.0))
    size = draw(st.floats(1.0, 1.7)) * 10.0 ** draw(st.integers(-300, 308))
    alpha = draw(_log_uniform(-1.0, math.log10(20.0)))
    t = draw(st.floats(-12.0, 12.0))           # gap/alpha = 1/(1 + 10^-t)
    k = AsymptoticConstants(A=draw(st.floats(0.01, 1.99)), alpha=alpha,
                            beta_mu=alpha * (1.0 - 1.0 / (1.0 + 10.0 ** -t)),
                            n_mu=draw(st.integers(2, 40)),
                            c_tv=draw(_log_uniform(-1.0, 2.0)))
    return delta, size, k


class TestTwoExtremeArguments:
    # the argument sweep varies one parameter at a time; here delta and the
    # prior's size are extreme together, on constants near both ends of
    # beta_mu in (0, alpha).  The suite turns every warning into an error.
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(extreme_draws())
    def test_cutoffs_validity_and_bounds(self, case):
        delta, size, k = case
        for cutoff, validity, bound, mp_bound in (
                (optimal_cutoff_l2, l2_validity, roi_bound_l2, mp_l2_bound),
                (optimal_cutoff_tv, tv_validity, roi_bound_tv, mp_tv_bound)):
            cut = cutoff(delta, size, k)
            assert cut.n_cut >= 0 and math.isfinite(cut.n_real)
            if not validity(delta, size, k):
                with pytest.raises(BoundNotApplicableError):
                    bound(delta, size, k)
                continue
            assert cut.n_real > k.n_mu
            got = bound(delta, size, k)
            assert math.isfinite(got)
            with mpmath.workdps(30):
                head = 2 * mpmath.mpf(delta) * mpmath.exp(mpmath.mpf(k.alpha) * k.n_mu) / k.A
            # the head, up to the rounding of its log and exp
            assert got >= float(head) * (1 - 1e-12)
            assert got == pytest.approx(float(mp_bound(delta, size, k, dps=30)), rel=1e-10)


@st.composite
def bound_arguments(draw):
    """Every numeric argument of v_mu, w_mu, the three validity functions and
    the three bounds together: delta, E and kappa in [1e-300, 1e300]; alpha
    in [1e-2, 1e3] or down to 1e-307, where the quasi-optimal index can
    leave the double range, with the gap alpha - beta_mu from 1e-12 alpha
    to nearly alpha and beta_mu at least the smallest normal double; A in
    [0.01, 1.99]; N_mu from 2 to 2^53 - 1; c_tv up to 1.7e308."""
    delta, E, kappa = [draw(_log_uniform(-300.0, 300.0)) for _ in range(3)]
    alpha = draw(_log_uniform(-2.0, 3.0) | _log_uniform(-307.0, -2.0))
    t = draw(st.floats(-12.0, 12.0))           # gap/alpha = 1/(1 + 10^-t)
    beta = max(alpha * (1.0 - 1.0 / (1.0 + 10.0 ** -t)), sys.float_info.min)
    n_mu = draw(st.integers(2, 40) | st.integers(41, 2 ** 53 - 1))
    c_tv = draw(st.floats(1.0, 1.7)) * 10.0 ** draw(st.integers(-300, 308))
    return delta, E, kappa, draw(st.floats(0.01, 1.99)), alpha, beta, n_mu, c_tv


class TestOneValidityRule:
    # valid means the regime's condition holds and the bound is a finite
    # double, for all three bounds; the suite turns every warning into an error
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(bound_arguments())
    def test_valid_means_a_finite_positive_bound(self, case):
        delta, E, kappa, A, alpha, beta, n_mu, c_tv = case
        assert 0.0 <= v_mu(alpha, beta) < math.inf
        try:
            w = w_mu(alpha, beta, c_tv, n_mu)
        except BoundNotApplicableError:
            with pytest.raises(SpectralError):
                AsymptoticConstants(A=A, alpha=alpha, beta_mu=beta, n_mu=n_mu, c_tv=c_tv)
            return
        assert 0.0 <= w < math.inf
        k = AsymptoticConstants(A=A, alpha=alpha, beta_mu=beta, n_mu=n_mu, c_tv=c_tv)
        for validity, size, bounds in (
                (l2_validity, E, [partial(roi_bound_l2, flavor=f)
                                  for f in ("pair", "tsvd", "tikhonov")]),
                (tv_validity, kappa, [roi_bound_tv]),
                (full_interval_validity, kappa, [full_interval_bound])):
            valid = validity(delta, size, k)
            assert type(valid) is bool
            for bound in bounds:
                if valid:
                    assert 0.0 < bound(delta, size, k) < math.inf
                else:
                    with pytest.raises(BoundNotApplicableError):
                        bound(delta, size, k)

    def test_index_past_the_double_range(self):
        # n* = 1381/1e-307 overflows to inf.  Both validities said True and
        # both bounds returned their head 2e-300 alone: beta_mu n* = inf
        # dropped the second term.  The cutoffs: TestExtremeArguments
        k = AsymptoticConstants(A=1, alpha=1e-307, beta_mu=5e-308, n_mu=2, c_tv=1)
        for validity, bound in ((l2_validity, roi_bound_l2), (tv_validity, roi_bound_tv)):
            assert validity(1e-300, 1e300, k) is False
            with pytest.raises(BoundNotApplicableError,
                               match="quasi-optimal index leaves the double range"):
                bound(1e-300, 1e300, k)

    def test_numpy_alpha_near_the_double_range(self):
        # 2 alpha overflowed in numpy with a RuntimeWarning; the bundle keeps
        # its rates as Python floats, so the threshold is just out of reach
        k = AsymptoticConstants(A=1.0, alpha=np.float64(9e307), beta_mu=1.0, n_mu=2,
                                c_tv=1.0)
        assert type(k.alpha) is float and k.alpha == 9e307
        for validity in (l2_validity, tv_validity, full_interval_validity):
            assert not validity(1e-3, 1.0, k)

    def test_full_interval_ratio_past_the_double_range(self, small_preset_sys):
        # kappa/delta = 1e310 leaves the double range, its log does not: the
        # regime holds and the bound is a finite double, so it is valid.  An
        # overflow clause made it invalid; before that, validity said True
        # and full_interval_bound raised
        k = calibrate_constants(small_preset_sys, SMALL_PRESET_GEOM, 8.0)
        with mpmath.workdps(40):
            A, a, c, delta, kappa = map(mpmath.mpf, (k.A, k.alpha, k.c_tv, 1e-10, 1e300))
            want = (kappa * c * (1 / a + 2) * mpmath.sqrt(a + 1.5)
                    / mpmath.sqrt(mpmath.log(kappa / delta) + mpmath.log(A * c / (2 * a))))
        assert full_interval_validity(1e-10, 1e300, k)
        # e^(log bound) errs by about eps times that log, 690
        assert full_interval_bound(1e-10, 1e300, k) == pytest.approx(float(want), rel=1e-12)
        assert full_interval_bound(1e-10, 1e300, k) == pytest.approx(6.147e299, rel=1e-3)
        assert l2_validity(1e-10, 1e300, k) and tv_validity(1e-10, 1e300, k)


@pytest.mark.parametrize("fixture, small, valid_rows", [
    ("small_preset_sys", True, 240), ("paper_sys", False, 300)], ids=["small", "paper"])
def test_tsvd_at_the_tv_cutoff_within_the_tv_bound(request, fixture, small, valid_rows):
    # the variation prior's first empirical check: hats of peak 0.5 centred
    # on an object sample have |f|_TV = 2 max |f| = kappa = 1 and vanish at
    # a2 and a4.  Worst error / bound: 0.033 on the small preset, 0.059 on
    # the paper grid
    sys_ = request.getfixturevalue(fixture)
    cfg = load_config(None, small=small)
    geom, op, ys = sys_.geom, sys_.op, sys_.object_grid.points
    hats = []
    for centre in (0.5 * (geom.a2 + geom.a3), 0.5 * (geom.a3 + geom.a4)):
        f = make_phantom("hat", geom, sys_.object_grid, center=ys[np.abs(ys - centre).argmin()],
                         half_width=0.4 * (geom.a4 - geom.a3), peak=0.5)
        assert np.abs(np.diff(np.concatenate([[0.0], f, [0.0]]))).sum() == pytest.approx(1.0)
        hats.append((f, apply_forward(op, f)))
    rows, worst = 0, 0.0
    for mu in cfg.mu_list:
        k = calibrate_constants(sys_, geom, mu)
        mask = roi_mask(geom, sys_.object_grid, mu)
        for delta in np.logspace(-2, -9, 15):
            if not tv_validity(delta, 1.0, k):
                continue
            bound = roi_bound_tv(delta, 1.0, k)
            n_cut = optimal_cutoff_tv(delta, 1.0, k).n_cut
            for f, g in hats:
                for seed in range(5):
                    rec = tsvd_reconstruct(sys_, add_noise(g, delta, seed, step=op.step).g, n_cut)
                    worst = max(worst, weighted_norm((rec.f - f)[mask], op.step) / bound)
                    rows += 1
    assert rows == valid_rows
    assert worst <= 1.0, worst


class TestFullIntervalBound:
    def test_golden_value(self):
        k = paper_constants()
        C = k.c_tv * (1.0 / k.alpha + 2.0) * np.sqrt(k.alpha + 1.5)
        D = np.log(k.A * k.c_tv / (2.0 * k.alpha))
        expect = 1.0 * C / np.sqrt(np.log(1.0 / 1e-12) + D)
        assert full_interval_bound(1e-12, 1.0, k) == pytest.approx(expect, rel=1e-12)

    def test_logarithmic_halving_law(self):
        # squaring delta doubles the log, shrinking the bound toward 1/sqrt(2)
        k = paper_constants()
        delta = 1e-30
        ratio = full_interval_bound(delta ** 2, 1.0, k) / full_interval_bound(
            delta, 1.0, k)
        assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.02)

    def test_decreasing_in_delta(self):
        k = paper_constants()
        vals = [full_interval_bound(d, 1.0, k) for d in (1e-12, 1e-9, 1e-6)]
        assert vals[0] < vals[1] < vals[2]

    def test_validity(self):
        k = paper_constants()
        assert full_interval_validity(1e-12, 1.0, k)
        assert not full_interval_validity(1.0, 1.0, k)
        with pytest.raises(BoundNotApplicableError):
            full_interval_bound(1.0, 1.0, k)

    def test_dominates_restricted_tv_bound_at_small_delta(self):
        # logarithmic modulus is weaker than the Hoelder one
        k = paper_constants()
        for exp in range(-12, -5):
            delta = 10.0 ** exp
            if tv_validity(delta, 1.0, k) and full_interval_validity(delta, 1.0, k):
                assert full_interval_bound(delta, 1.0, k) >= roi_bound_tv(
                    delta, 1.0, k)


class TestVariationPriorArguments:
    # kappa = 0 raised ZeroDivisionError, kappa = -1 a bare math domain error
    # in tv_validity and True in full_interval_validity, delta = -1 gave
    # True in both, and full_interval_validity(1e-6, inf) was True while
    # full_interval_bound returned nan; roi_bound_tv checks through tv_validity
    @pytest.mark.parametrize("check", [tv_validity, full_interval_validity, roi_bound_tv])
    @pytest.mark.parametrize("delta, kappa", [
        (1e-6, 0.0), (1e-6, -1.0), (1e-6, float("inf")), (1e-6, float("nan")),
        (-1.0, 1.0), (-1e-300, 1.0), (float("inf"), 1.0), (float("nan"), 1.0)],
        ids=["kappa0", "kappa_negative", "kappa_inf", "kappa_nan",
             "delta_negative", "delta_tiny_negative", "delta_inf", "delta_nan"])
    def test_refused(self, check, delta, kappa):
        with pytest.raises(ValueError, match=("delta" if kappa == 1.0 else "kappa")
                           + r" must be a finite real in \(0\.0, inf\)"):
            check(delta, kappa, paper_constants())

    def test_zero_delta_refused(self):
        # every bound-side function takes delta in (0, inf): tv_validity and
        # full_interval_validity said True at 0, and roi_bound_tv returned 0
        k = paper_constants()
        for check in (tv_validity, roi_bound_tv, full_interval_validity,
                      full_interval_bound, l2_validity, roi_bound_l2):
            with pytest.raises(ValueError, match=r"delta must be a finite real in \(0\.0"):
                check(0.0, 1.0, k)


def test_bounds_csv(tmp_path):
    k = paper_constants()
    path = tmp_path / "bounds.csv"
    deltas = [1e-2, 1e-6, 1e-9]    # first row invalid for the tv bound
    write_bounds_csv(path, deltas, k, E=1.0, kappa=1.0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("delta,bound_pair,bound_tsvd,bound_tikhonov,"
                        "bound_tv,bound_full,valid_l2,valid_tv,valid_full")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[7] == "false" and "nan" in first[4]
    last = lines[3].split(",")
    assert last[6] == "true" and last[7] == "true"
    assert float(last[1]) > 0
