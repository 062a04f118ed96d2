import numpy as np
import pytest
from scipy.integrate import quad

import goldens as G
from conftest import PAPER_GEOM, UNIT_GEOM
from truncated_hilbert import (alpha, beta_mu_exact, k_minus, k_plus,
                               log_roi_norm_model, log_sigma_model,
                               near_one_model_valid, near_one_rate,
                               roi_norm_model, sigma_model_neg,
                               sigma_model_pos, tail_index_map, u_wkb, w3,
                               wkb_epsilon, wkb_profile,
                               wkb_roi_norm_quadrature)
from truncated_hilbert.errors import DomainError


class TestSigmaModels:
    def test_pos_formula(self):
        a = alpha(UNIT_GEOM)
        assert sigma_model_pos(UNIT_GEOM, 0) == pytest.approx(2.0, rel=1e-12)
        assert sigma_model_pos(UNIT_GEOM, 3) == pytest.approx(
            2.0 * np.exp(-3 * a), rel=1e-10)

    def test_log_form(self):
        # the expression figure2 wrote inline, and the model its exponential
        a = alpha(PAPER_GEOM)
        for n in (0, 1, 9, 40):
            assert log_sigma_model(PAPER_GEOM, n) == np.log(2.0) - a * n
            assert sigma_model_pos(PAPER_GEOM, n) == np.exp(log_sigma_model(PAPER_GEOM, n))
        with pytest.raises(DomainError):
            log_sigma_model(PAPER_GEOM, -1)

    def test_pos_ratio_exact(self):
        a = alpha(UNIT_GEOM)
        r = sigma_model_pos(UNIT_GEOM, 5) / sigma_model_pos(UNIT_GEOM, 4)
        assert r == pytest.approx(np.exp(-a), rel=1e-12)

    def test_neg_monotone_to_one(self):
        # indices kept small enough that 1 - sigma stays representable
        vals = [sigma_model_neg(PAPER_GEOM, k) for k in (1, 2, 3, 5, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0
        assert vals[-1] > 1.0 - 1e-10

    def test_neg_validity_flag(self):
        assert near_one_model_valid(PAPER_GEOM)
        assert near_one_model_valid(UNIT_GEOM)

    def test_model_matches_tail(self, paper_sys):
        # log deviations of the computed tail from the model stay small
        pairs = tail_index_map(paper_sys, 9)
        devs = [np.log(paper_sys.sigmas[k] / sigma_model_pos(PAPER_GEOM, n))
                for n, k in pairs]
        assert np.sqrt(np.mean(np.square(devs))) <= 0.15


class TestRoiNormModel:
    def test_formula(self):
        beta = beta_mu_exact(UNIT_GEOM, 0.05)
        assert roi_norm_model(UNIT_GEOM, 0.05, 4) == pytest.approx(
            np.exp(-4 * beta) / np.sqrt(4 * np.pi), rel=1e-10)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            roi_norm_model(UNIT_GEOM, 0.05, 0)
        with pytest.raises(DomainError):
            log_roi_norm_model(UNIT_GEOM, 0.05, 0)

    def test_log_form(self):
        # the expression figure2 wrote inline, and the model its exponential
        for mu in (5.0, 20.0, 100.0):
            beta = beta_mu_exact(PAPER_GEOM, mu)
            for n in (1, 9, 40):
                log_model = log_roi_norm_model(PAPER_GEOM, mu, n)
                assert log_model == -beta * n - 0.5 * np.log(n * np.pi)
                assert roi_norm_model(PAPER_GEOM, mu, n) == np.exp(log_model)

    def test_monotone_in_mu(self):
        for n in (1, 5):
            assert roi_norm_model(UNIT_GEOM, 0.02, n) > roi_norm_model(
                UNIT_GEOM, 0.1, n)

    def test_paper_tail_log_rms(self, paper_sys):
        from truncated_hilbert import roi_norm
        pairs = tail_index_map(paper_sys, 9)
        devs = [np.log(roi_norm(paper_sys, k, 20.0)
                       / roi_norm_model(PAPER_GEOM, 20.0, n))
                for n, k in pairs]
        assert np.sqrt(np.mean(np.square(devs))) <= 0.25


class TestWkbProfile:
    def test_epsilon(self):
        assert wkb_epsilon(UNIT_GEOM, 3) == pytest.approx(
            k_minus(UNIT_GEOM) / (3 * np.pi), rel=1e-12)
        with pytest.raises(DomainError):
            wkb_epsilon(UNIT_GEOM, 0)

    def test_domain_error_outside_inset(self):
        prof = wkb_profile(UNIT_GEOM, 5)
        lo, hi = prof.validity_interval
        with pytest.raises(DomainError):
            prof(lo - 1e-6)
        with pytest.raises(DomainError):
            prof(hi + 1e-6)
        assert np.isfinite(prof(0.5 * (lo + hi)))

    def test_sign_alternation(self):
        x = 0.25
        a = u_wkb(UNIT_GEOM, 5, x)
        b = u_wkb(UNIT_GEOM, 6, x)
        assert a * b < 0

    def test_exponential_factor_near_a3(self):
        # w3 -> 0 toward a3, so the profile magnitude tracks P^(-1/4)
        prof = wkb_profile(PAPER_GEOM, 5)
        lo, hi = prof.validity_interval
        x = hi - 1e-3 * (hi - lo)
        from truncated_hilbert import poly_P
        expected = np.sqrt(2.0 / k_minus(PAPER_GEOM)) * poly_P(PAPER_GEOM, x) ** -0.25
        ratio = abs(prof(x)) / expected
        w3_here = w3(PAPER_GEOM, x)
        assert ratio == pytest.approx(np.exp(-w3_here / prof.epsilon), rel=1e-10)
        # right against a3 (inside the excluded margin) the factor tends to 1
        x_close = PAPER_GEOM.a3 - 1e-4
        envelope = np.sqrt(2.0 / k_minus(PAPER_GEOM)) \
            * poly_P(PAPER_GEOM, x_close) ** -0.25
        assert abs(prof.evaluate_raw(x_close)) / envelope > 0.99

    def test_phase_ties_roi_rate_to_w3(self):
        # (pi/K-) w3(a3 - mu) equals the exact ROI decay rate
        for mu in (0.05, 0.2):
            lhs = np.pi / k_minus(UNIT_GEOM) * w3(UNIT_GEOM, UNIT_GEOM.a3 - mu)
            assert lhs == pytest.approx(beta_mu_exact(UNIT_GEOM, mu), abs=1e-10)

    def test_profile_integral_matches_roi_model(self):
        # the squared-profile mass over the ROI reproduces the model norm
        for n in range(1, 10):
            got = wkb_roi_norm_quadrature(PAPER_GEOM, 100.0, n)
            want = roi_norm_model(PAPER_GEOM, 100.0, n)
            assert abs(got - want) / want <= 0.2

    @pytest.mark.parametrize("geom, mu", [(PAPER_GEOM, 100.0), (UNIT_GEOM, 0.05)])
    def test_profile_mass_matches_closed_form(self, geom, mu):
        # independent adaptive quadrature of the squared profile over the ROI;
        # x = a2 + h s^2 removes the (x - a2)^(-1/2) singularity of P^(-1/2)
        h = geom.a3 - mu - geom.a2
        for n in range(1, 10):
            prof = wkb_profile(geom, n)

            def f(s):
                return 2.0 * h * s * prof.evaluate_raw(geom.a2 + h * s * s) ** 2 \
                    if s > 0 else 0.0

            mass, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
            got = wkb_roi_norm_quadrature(geom, mu, n)
            assert abs(got - np.sqrt(mass)) <= 1e-10 * np.sqrt(mass)

    def test_correlation_with_computed_vectors(self, paper_sys):
        pairs = tail_index_map(paper_sys, 9)
        ys = paper_sys.object_grid.points
        n, k = pairs[4]   # n = 5
        prof = wkb_profile(PAPER_GEOM, n)
        lo, hi = prof.validity_interval
        mask = (ys > lo) & (ys < hi)
        vals = np.abs([prof(float(x)) for x in ys[mask]])
        ucol = np.abs(paper_sys.u[mask, k])
        corr = float(ucol @ vals / (np.linalg.norm(ucol) * np.linalg.norm(vals)))
        assert corr >= 0.99
