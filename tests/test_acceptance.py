"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete; the large decomposition is shared with the rest
of the suite through session fixtures.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import goldens as G
from conftest import PAPER_GEOM, SMALL_PRESET_GEOM, TINY_GEOM
from truncated_hilbert import (Geometry, alpha, apply_forward, beta_mu_approx,
                               beta_mu_exact, build_operator,
                               calibrate_constants, check_monotone,
                               compute_svd, fit_roi_decay, fit_tail_decay,
                               holder_exponent, make_phantom,
                               near_one_tail_fit, near_one_rate,
                               optimal_cutoff_l2, roi_bound_l2, roi_mask,
                               sigma_counts, tail_index_map,
                               tikhonov_reconstruct, tsvd_reconstruct,
                               add_noise, weighted_norm, wkb_profile)


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d}: FAIL  {label}")
        raise
    print(f"[acceptance] criterion {num:2d}: PASS  {label}")


def test_criterion_01_spectrum_counts():
    with criterion(1, "spectrum counts below 0.97 / 0.01 within +-1, under 3 min"):
        t0 = time.time()
        op = build_operator(PAPER_GEOM, step=1.0, shift=0.5)
        sys_ = compute_svd(op, rank_tol=1e-21, method="cauchy")
        elapsed = time.time() - t0
        below_097, below_001 = sigma_counts(sys_)
        assert abs(below_097 - 10) <= 1, f"count<0.97 = {below_097}"
        assert abs(below_001 - 9) <= 1, f"count<0.01 = {below_001}"
        assert elapsed < 180.0, f"took {elapsed:.0f}s"


def test_criterion_02_tail_decay_law(paper_sys):
    with criterion(2, "tail rate within 5% of alpha, amplitude within 2x of 2"):
        fit = fit_tail_decay(paper_sys, 9)
        a = alpha(PAPER_GEOM)
        assert abs(fit.rate - a) / a <= 0.05, f"rate {fit.rate} vs {a}"
        assert 1.0 <= fit.amplitude <= 4.0, f"amplitude {fit.amplitude}"


def test_criterion_03_roi_norm_law(paper_sys):
    with criterion(3, "ROI-norm decay rates within 10% of beta_mu for mu=5,20,100"):
        for mu in (5.0, 20.0, 100.0):
            fit = fit_roi_decay(paper_sys, mu)
            beta = beta_mu_exact(PAPER_GEOM, mu)
            dev = abs(fit.rate - beta) / beta
            assert dev <= 0.10, f"mu={mu}: rate {fit.rate} vs beta {beta} ({dev:.1%})"


def test_criterion_04_near_one_law(paper_sys):
    with criterion(4, "near-one rate within 15% of 2 pi K-/K+"):
        fit = near_one_tail_fit(paper_sys, head_len=5)
        target = near_one_rate(PAPER_GEOM)
        dev = abs(fit.rate - target) / target
        assert dev <= 0.15, f"rate {fit.rate} vs {target} ({dev:.1%})"


def test_criterion_05_monotonicity(paper_sys):
    with criterion(5, "last nine vectors monotone on the overlap, a head vector not"):
        for n, k in tail_index_map(paper_sys, 9):
            assert check_monotone(paper_sys, k), f"tail vector n={n} not monotone"
        head_flags = [check_monotone(paper_sys, k)
                      for k in (100, paper_sys.count - 40)]
        assert not all(head_flags), "no oscillatory head vector detected"


def test_criterion_06_wkb_cross_check(paper_sys):
    with criterion(6, "profile correlation >= 0.99 for n = 5..9"):
        ys = paper_sys.object_grid.points
        for n, k in tail_index_map(paper_sys, 9)[4:]:
            prof = wkb_profile(PAPER_GEOM, n)
            lo, hi = prof.validity_interval
            mask = (ys > lo) & (ys < hi)
            vals = np.abs([prof(float(x)) for x in ys[mask]])
            ucol = np.abs(paper_sys.u[mask, k])
            corr = float(ucol @ vals
                         / (np.linalg.norm(ucol) * np.linalg.norm(vals)))
            assert corr >= 0.99, f"n={n}: correlation {corr:.6f}"


def test_criterion_07_forward_oracle():
    with criterion(7, "indicator transform matches the log oracle; halving helps"):
        c, d = 40.0, 70.0

        def max_err(step):
            op = build_operator(SMALL_PRESET_GEOM, step=step)
            f = make_phantom("indicator", SMALL_PRESET_GEOM, op.object_grid,
                             c=c, d=d)
            h = apply_forward(op, f)
            xs = op.data_grid.points
            keep = (np.abs(xs - c) > 1.0) & (np.abs(xs - d) > 1.0)
            oracle = np.log(np.abs((d - xs[keep]) / (c - xs[keep]))) / np.pi
            return float(np.abs(h[keep] - oracle).max())

        e1 = max_err(1.0)
        assert e1 <= 3.0 * 1.0, f"step-1 error {e1}"
        e_half = max_err(0.5)
        assert e_half < e1, f"no improvement: {e_half} vs {e1}"


def test_criterion_08_regularizer_correctness(tiny_op, tiny_sys):
    with criterion(8, "Tikhonov matches normal equations; noiseless TSVD is a projection"):
        rng = np.random.default_rng(12)
        g = rng.standard_normal(tiny_op.shape[0])
        M = tiny_op.matrix
        for eta in (1e-2, 1e-6):
            spec = tikhonov_reconstruct(tiny_sys, g, eta).f
            direct = np.linalg.solve(M.T @ M + eta * np.eye(M.shape[1]), M.T @ g)
            rel = np.linalg.norm(spec - direct) / np.linalg.norm(direct)
            assert rel <= 1e-8, f"eta={eta}: relative gap {rel}"
        f_true = make_phantom("hat", TINY_GEOM, tiny_op.object_grid,
                              center=4.5, half_width=1.5, peak=1.0)
        g_ex = apply_forward(tiny_op, f_true)
        rec = tsvd_reconstruct(tiny_sys, g_ex, n_cut=tiny_sys.count)
        proj = tiny_sys.u @ (tiny_sys.step * (tiny_sys.u.T @ f_true))
        assert np.abs(rec.f - proj).max() <= 1e-10


def test_criterion_09_bound_dominance_and_rate(paper_op, paper_sys):
    with criterion(9, "measured ROI errors below the two-solution bound; bound rate = beta/alpha"):
        mu, E, seed = 100.0, 500.0, 20240
        consts = calibrate_constants(paper_sys, PAPER_GEOM, mu)
        f_true = make_phantom("bump", PAPER_GEOM, paper_op.object_grid,
                              center=900.0, width=250.0, amplitude=1.0)
        assert weighted_norm(f_true, paper_op.step) <= E
        g_ex = apply_forward(paper_op, f_true)
        mask = roi_mask(PAPER_GEOM, paper_op.object_grid, mu)
        for delta in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            noisy = add_noise(g_ex, delta, seed, step=paper_op.step)
            cut = optimal_cutoff_l2(delta, E, consts)
            assert cut.valid, f"cutoff invalid at delta={delta}"
            bound = roi_bound_l2(delta, E, consts, "pair")
            for rec in (tsvd_reconstruct(paper_sys, noisy.g, cut.n_cut),
                        tikhonov_reconstruct(paper_sys, noisy.g,
                                             delta ** 2 / E ** 2)):
                err = weighted_norm((rec.f - f_true)[mask], paper_op.step)
                assert err <= bound, (f"delta={delta} {rec.method}: "
                                      f"{err} > bound {bound}")
        d1, d2 = 1e-7, 1e-8
        slope = (np.log(roi_bound_l2(d1, E, consts, "pair"))
                 - np.log(roi_bound_l2(d2, E, consts, "pair"))) \
            / (np.log(d1) - np.log(d2))
        target = consts.beta_mu / consts.alpha
        assert abs(slope - target) / target <= 0.01, f"slope {slope} vs {target}"


def test_criterion_10_exponent_surface():
    with criterion(10, "exponent surface in (0,1), ordered in mu, golden spot"):
        for a3 in np.linspace(0.05, 0.95, 19):
            geom = Geometry(-1.0, 0.0, float(a3), 1.0)
            vals = [holder_exponent(geom, frac * a3) for frac in (0.25, 0.10, 0.01)]
            assert all(0.0 < v < 1.0 for v in vals), f"a3={a3}: {vals}"
            assert vals[0] > vals[1] > vals[2], f"a3={a3}: ordering {vals}"
        spot = holder_exponent(Geometry(-1.0, 0.0, 0.5, 1.0), 0.05)
        assert spot == pytest.approx(G.UNIT_HOLDER_A3_05_MU_005, abs=1e-9)


def test_criterion_11_constants_infrastructure():
    with criterion(11, "affine invariance, beta -> alpha limit, O(mu) approximation"):
        u = Geometry(-1.0, 0.0, 0.5, 1.0)
        base = alpha(u)
        for s, t in ((3.0, -2.0), (0.25, 5.0), (117.5, 13.0)):
            g2 = Geometry(*(s * np.array(u.points) + t))
            assert alpha(g2) == pytest.approx(base, rel=1e-10)
        mu_edge = u.overlap_width - 1e-9
        assert abs(beta_mu_exact(u, mu_edge) - base) < 2e-4
        prev = None
        for mu in (4e-3, 2e-3, 1e-3, 5e-4):
            ex = beta_mu_exact(u, mu)
            rel = abs(beta_mu_approx(u, mu) - ex) / ex
            assert rel <= 0.2 * mu, f"mu={mu}: relative error {rel}"
            if prev is not None:
                assert rel <= 0.75 * prev, "error not shrinking linearly"
            prev = rel
