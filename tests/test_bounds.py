import mpmath
import numpy as np
import pytest

import goldens as G
from conftest import PAPER_GEOM, SMALL_PRESET_GEOM, UNIT_GEOM
from truncated_hilbert import (AsymptoticConstants, SampledGrid,
                               calibrate_constants, full_interval_bound,
                               full_interval_validity, l2_validity,
                               roi_bound_l2, roi_bound_tv, tv_validity, v_mu,
                               w_mu, write_bounds_csv)
from truncated_hilbert.errors import BoundNotApplicableError, SpectralError
from truncated_hilbert.geometry import alpha
from truncated_hilbert.spectral import SingularSystem


def paper_constants(c_tv=1.0):
    return AsymptoticConstants(
        A=G.PAPER_CALIBRATED_A, alpha=G.PAPER_ALPHA, n0=G.PAPER_N0,
        n_mu=G.PAPER_N_MU_100, b_mu=G.PAPER_B_MU_100,
        beta_mu=G.PAPER_BETA[100.0], v_mu=G.PAPER_V_MU_100,
        w_mu=G.PAPER_W_MU_100, c_tv=c_tv)


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


class TestConstantsType:
    def test_invariants_enforced(self):
        with pytest.raises(SpectralError):
            paper_constants(c_tv=-1.0)
        with pytest.raises(SpectralError):
            AsymptoticConstants(A=2.5, alpha=5.0, n0=1, n_mu=2, b_mu=0.4,
                                beta_mu=1.0, v_mu=0.1, w_mu=0.1, c_tv=1.0)
        with pytest.raises(SpectralError):
            AsymptoticConstants(A=1.5, alpha=1.0, n0=1, n_mu=2, b_mu=0.4,
                                beta_mu=2.0, v_mu=0.1, w_mu=0.1, c_tv=1.0)
        with pytest.raises(SpectralError):
            AsymptoticConstants(A=1.5, alpha=5.0, n0=2, n_mu=2, b_mu=0.4,
                                beta_mu=1.0, v_mu=0.1, w_mu=0.1, c_tv=1.0)


class TestCalibration:
    def test_paper_geometry_golden(self, paper_sys):
        k = calibrate_constants(paper_sys, PAPER_GEOM, 100.0)
        assert k.A == pytest.approx(G.PAPER_CALIBRATED_A, rel=1e-6)
        assert k.n0 == G.PAPER_N0
        assert k.n_mu == G.PAPER_N_MU_100
        assert k.b_mu == pytest.approx(G.PAPER_B_MU_100, rel=1e-12)
        assert k.v_mu == pytest.approx(G.PAPER_V_MU_100, rel=1e-6)
        assert k.w_mu == pytest.approx(G.PAPER_W_MU_100, rel=1e-6)

    def test_synthetic_exact_model_with_explicit_amplitude(self):
        # spectrum exactly 2 e^(-alpha n) and ROI-free columns: N_0 = 1
        geom = UNIT_GEOM
        a = alpha(geom)
        count = 10
        sig = np.concatenate([[0.9], 2.0 * np.exp(-a * np.arange(1, count))])
        grid = SampledGrid(start=-0.05, step=0.1, count=12)
        ys = grid.points
        u = np.zeros((12, count))
        outside = np.where(ys > geom.a3)[0]
        for j in range(count):
            u[outside[j % outside.size], j] = 1.0 / np.sqrt(grid.step)
        synth = SingularSystem(sigmas=sig, u=u, v=np.zeros((5, count)),
                               object_grid=grid,
                               data_grid=SampledGrid(-1.0, 0.5, 5),
                               step=grid.step, geom=geom)
        k = calibrate_constants(synth, geom, 0.05, amplitude=1.9)
        assert k.n0 == 1
        assert k.n_mu == 2
        assert k.b_mu == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_amplitude_too_large_fails(self, paper_sys):
        with pytest.raises(SpectralError):
            calibrate_constants(paper_sys, PAPER_GEOM, 100.0, amplitude=1.95)

    def test_n_mu_nonincreasing_in_mu(self, paper_sys):
        k_small = calibrate_constants(paper_sys, PAPER_GEOM, 20.0)
        k_large = calibrate_constants(paper_sys, PAPER_GEOM, 100.0)
        assert k_large.n_mu <= k_small.n_mu

    def test_small_preset_calibrates(self, small_preset_sys):
        k = calibrate_constants(small_preset_sys, SMALL_PRESET_GEOM, 10.0)
        assert k.alpha == pytest.approx(G.PAPER_ALPHA, rel=1e-9)
        assert k.n_mu > k.n0


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


class TestTvBound:
    def test_validity_threshold_strict(self):
        k = paper_constants()
        thresh = k.A * k.w_mu * np.exp(-k.alpha * k.n_mu)
        assert tv_validity(0.0, 1.0, k)
        assert tv_validity(0.99 * thresh, 1.0, k)
        assert not tv_validity(thresh, 1.0, k)     # strict inequality
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
