import numpy as np
import pytest

import goldens as G
from conftest import PAPER_GEOM, SMALL_PRESET_GEOM, TINY_GEOM
from truncated_hilbert import (Geometry, build_operator,
                               calibrate_constants, check_monotone,
                               compute_svd, export_spectrum_csv,
                               fit_exponential, fit_roi_decay, fit_tail_decay,
                               near_one_rate, near_one_tail_fit, roi_mask,
                               roi_norm, sigma_counts, tail_index_map,
                               weighted_norm)
from truncated_hilbert.errors import SpectralError
from truncated_hilbert.spectral import SingularSystem, check_reconstruction


class TestComputeSvd:
    def test_tiny_matches_normal_equations_oracle(self, tiny_op, tiny_sys):
        # eigenvalues of M^T M are the squared singular values
        evals = np.linalg.eigvalsh(tiny_op.matrix.T @ tiny_op.matrix)[::-1]
        np.testing.assert_allclose(tiny_sys.sigmas, np.sqrt(np.maximum(evals, 0)),
                                   rtol=1e-10)

    def test_backends_agree(self, tiny_op, tiny_sys):
        lap = compute_svd(tiny_op, method="lapack")
        np.testing.assert_allclose(tiny_sys.sigmas, lap.sigmas, atol=1e-13)

    def test_backends_agree_at_scale(self, paper_op, paper_sys):
        ref = np.linalg.svd(paper_op.matrix, compute_uv=False)
        # wherever the conventional solver is meaningful; its own absolute
        # accuracy (~eps * sigma_max) limits the agreement at the bottom
        valid = ref > 1e-11 * ref[0]
        m = int(valid.sum())
        diff = np.abs(paper_sys.sigmas[:m] - ref[:m])
        assert np.all(diff <= 1e-7 * ref[:m] + 1e-15 * ref[0])

    @pytest.mark.parametrize("row", [0, 45, 47, 48, -1])
    def test_reconstruction_check_reads_every_data_row(self, small_preset_op,
                                                       small_preset_sys, row):
        # 91 data rows by 86 object samples: row blocks of 48 and 43, each
        # at least 4096 kernel entries; a system is checked the way
        # SingularSystem.of checks it
        op, sys_ = small_preset_op, small_preset_sys
        s = sys_.sigmas * op.step
        check_reconstruction(op, sys_.v, s, sys_.u)
        v = sys_.v.copy()
        v[row] *= 1 + 1e-6
        with pytest.raises(SpectralError):
            check_reconstruction(op, v, s, sys_.u)

    def test_reconstruction_check_in_one_block(self):
        # 17 x 16 samples fit in one block; one sigma off by 1e-8 shows
        op = build_operator(Geometry(0, 6, 16, 21), step=1.0, shift=0.5)
        sys_ = compute_svd(op)
        s = sys_.sigmas * op.step
        check_reconstruction(op, sys_.v, s, sys_.u)
        for k in (0, sys_.tail.start - 1):
            bad = s.copy()
            bad[k] *= 1 + 1e-8
            with pytest.raises(SpectralError, match="reconstruction error"):
                check_reconstruction(op, sys_.v, bad, sys_.u)

    @pytest.mark.parametrize("rank_tol", [0.0, -1e-21])
    def test_nonpositive_rank_tol_refused(self, tiny_op, rank_tol):
        with pytest.raises(SpectralError):
            compute_svd(tiny_op, rank_tol=rank_tol)

    def test_rank_tol_above_sigma_max_refused(self, tiny_op):
        # an empty system reconstructs nothing: SingularSystem.of refuses it
        with pytest.raises(SpectralError, match="reconstruction error"):
            compute_svd(tiny_op, rank_tol=1.5)

    def test_truncation_the_check_sees_refused(self, small_preset_op):
        # 1e-3 drops values the 1e-10 reconstruction check can see; the
        # check runs on the truncated system, so it is refused
        with pytest.raises(SpectralError, match="reconstruction error"):
            compute_svd(small_preset_op, rank_tol=1e-3)

    def test_unknown_method(self, tiny_op):
        with pytest.raises(SpectralError):
            compute_svd(tiny_op, method="qr")

    @pytest.mark.parametrize("method", [["x"], {"cauchy": 1}])
    def test_non_string_method(self, tiny_op, method):
        # refused like an unknown name, not by a TypeError from the lookup
        with pytest.raises(SpectralError):
            compute_svd(tiny_op, method=method)

    def test_weighted_orthonormality(self, tiny_op):
        op = build_operator(TINY_GEOM, step=0.5, shift=0.5)
        sys_ = compute_svd(op)
        gram_u = op.step * (sys_.u.T @ sys_.u)
        gram_v = op.step * (sys_.v.T @ sys_.v)
        np.testing.assert_allclose(gram_u, np.eye(sys_.count), atol=1e-10)
        np.testing.assert_allclose(gram_v, np.eye(sys_.count), atol=1e-10)

    def test_residuals(self, tiny_op, tiny_sys):
        for k in range(tiny_sys.count):
            res = weighted_norm(tiny_op.matrix @ tiny_sys.u[:, k]
                                - tiny_sys.sigmas[k] * tiny_sys.v[:, k], tiny_op.step)
            assert res <= 1e-10

    def test_sign_convention(self, tiny_sys):
        ys = tiny_sys.object_grid.points
        inside = (ys > TINY_GEOM.a2) & (ys < TINY_GEOM.a3)
        first = int(np.argmax(inside))
        assert np.all(tiny_sys.u[first, :] >= 0)

    def test_descending_order(self, paper_sys):
        assert np.all(np.diff(paper_sys.sigmas) <= 0)

    @pytest.mark.parametrize("name", ["sigmas", "u", "v"])
    def test_owned_arrays_read_only(self, tiny_sys, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tiny_sys, name)[0] = 0.0

    @pytest.mark.parametrize("fixture, retained, cluster", [
        ("paper_sys", 911, 894), ("small_preset_sys", 71, 53)], ids=["paper", "small"])
    def test_cluster_at_one(self, request, fixture, retained, cluster):
        # the one rule the README states: the retained triples before the
        # tail that the system does not resolve from 1, |1 - sigma| <= residual
        sys_ = request.getfixturevalue(fixture)
        start = sys_.tail.start
        assert sys_.count == retained
        assert start - np.count_nonzero(sys_.resolved < start) == cluster
        assert np.count_nonzero(np.abs(1.0 - sys_.sigmas[:start]) <= sys_.residual) == cluster


class TestPaperSpectrum:
    def test_retained_count(self, paper_sys):
        assert paper_sys.count == G.PAPER_RETAINED

    def test_counts_below_thresholds(self, paper_sys):
        below_097, below_001 = sigma_counts(paper_sys)
        assert abs(below_097 - 10) <= 1
        assert abs(below_001 - 9) <= 1

    def test_tail_sigma_regression(self, paper_sys):
        pairs = tail_index_map(paper_sys, 9)
        for (n, k), ref in zip(pairs, G.PAPER_TAIL_SIGMAS):
            assert paper_sys.sigmas[k] == pytest.approx(ref, rel=1e-6)

    def test_sigma_max_close_to_one(self, paper_sys):
        assert paper_sys.sigmas[0] <= 1.05
        assert paper_sys.sigmas[0] > 0.999

    def test_residuals_at_scale(self, paper_op, paper_sys):
        res = np.linalg.norm(
            paper_op.matrix @ paper_sys.u - paper_sys.v * paper_sys.sigmas[None, :],
            axis=0) * np.sqrt(paper_op.step)
        assert res.max() <= 1e-10

    def test_orthonormality_at_scale(self, paper_sys):
        k = paper_sys.count
        gram = paper_sys.step * (paper_sys.u.T @ paper_sys.u)
        assert np.abs(gram - np.eye(k)).max() <= 1e-10


class TestTailIndexMap:
    def test_anchor(self, paper_sys):
        pairs = tail_index_map(paper_sys, 9)
        assert pairs[0] == (1, paper_sys.count - 9)
        assert pairs[-1] == (9, paper_sys.count - 1)

    def test_single(self, paper_sys):
        pairs = tail_index_map(paper_sys, 1)
        assert pairs == [(1, paper_sys.count - 1)]

    def test_order_reversing(self, paper_sys):
        pairs = tail_index_map(paper_sys, 9)
        sig = [paper_sys.sigmas[k] for _, k in pairs]
        assert all(a > b for a, b in zip(sig, sig[1:]))

    def test_too_long(self, tiny_sys):
        with pytest.raises(SpectralError):
            tail_index_map(tiny_sys, tiny_sys.count + 1)


# alpha 4.02: 2 e^(-9 alpha) is still above the 1e-21 truncation, so 12
# values lie below the transition and the last nine start three too low
WIDE_GEOM = Geometry(0.0, 60.0, 120.0, 180.0)


@pytest.fixture(scope="module")
def wide_sys():
    return compute_svd(build_operator(WIDE_GEOM, step=1.0))


class TestLocatedTail:
    def test_suffix_on_the_presets(self, paper_sys, small_preset_sys):
        half = compute_svd(build_operator(SMALL_PRESET_GEOM, step=0.5))
        for sys_ in (paper_sys, small_preset_sys, half):
            assert sys_.tail == range(sys_.count - 9, sys_.count)

    def test_starts_just_below_the_transition(self, wide_sys):
        tail, sig = wide_sys.tail, wide_sys.sigmas
        assert (wide_sys.count, tail) == (74, range(62, 71))
        assert sig[tail.start - 2] > 0.9 and 0.1 < sig[tail.start - 1] < 0.9
        assert sig[tail.start] < 0.1

    def test_calibrated_amplitude(self, wide_sys):
        # the last nine values gave A = 5e-6; the located tail 1.20
        assert calibrate_constants(wide_sys, WIDE_GEOM, 5.0).A >= 1.0

    def test_near_one_rate(self, wide_sys):
        # the window anchored above the last nine read 2.32 against 4.91
        target = near_one_rate(WIDE_GEOM)
        assert abs(near_one_tail_fit(wide_sys).rate - target) / target < 0.05

    def test_empty_tail_refused(self):
        # 4 values, the smallest of them the transition value
        geom = Geometry(0.0, 1.0, 3.0, 4.0)
        sys_ = compute_svd(build_operator(geom, step=1.0))
        assert (sys_.count, len(sys_.tail)) == (4, 0)
        for fit in (lambda: fit_tail_decay(sys_), lambda: fit_roi_decay(sys_, 0.5),
                    lambda: calibrate_constants(sys_, geom, 0.5)):
            with pytest.raises(SpectralError, match="at least 2 values below the "
                                                    "transition, got 0"):
                fit()


class TestFitExponential:
    def test_exact_model(self):
        ns = np.arange(1, 10)
        fit = fit_exponential(zip(ns, 3.0 * np.exp(-2.0 * ns)))
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.rate == pytest.approx(2.0, rel=1e-12)
        assert fit.residual < 1e-12

    def test_two_points_interpolate(self):
        fit = fit_exponential([(1, 0.5), (2, 0.1)])
        assert fit.residual < 1e-12

    def test_validation(self):
        with pytest.raises(SpectralError):
            fit_exponential([(1, 1.0)])
        with pytest.raises(SpectralError):
            fit_exponential([(1, 1.0), (2, -0.5)])


class TestRoiNorm:
    def test_unit_vector_restriction_below_one(self, paper_sys):
        # widest mu that still leaves a grid point inside the ROI
        mu = PAPER_GEOM.overlap_width - 1.0
        for k in (0, paper_sys.count - 1):
            assert roi_norm(paper_sys, k, mu) <= 1.0 + 1e-10

    def test_empty_roi_raises(self, paper_sys):
        with pytest.raises(SpectralError):
            roi_norm(paper_sys, 0, PAPER_GEOM.overlap_width - 1e-6)

    def test_vector_supported_outside_roi(self, paper_sys):
        ys = paper_sys.object_grid.points
        mask = roi_mask(PAPER_GEOM, paper_sys.object_grid, 100.0)
        # synthetic system whose single column lives right of a3
        u = np.zeros((ys.size, 1))
        u[ys > PAPER_GEOM.a3, 0] = 1.0
        u /= np.sqrt(paper_sys.step) * np.linalg.norm(u)
        synth = SingularSystem(sigmas=np.array([0.5]), u=u,
                               v=np.zeros((paper_sys.v.shape[0], 1)),
                               op=paper_sys.op, residual=0.0)
        assert roi_norm(synth, 0, 100.0) == 0.0
        assert mask.sum() > 0

    def test_monotone_in_mu(self, paper_sys):
        k = paper_sys.count - 3
        vals = [roi_norm(paper_sys, k, mu) for mu in (5.0, 20.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_fit_roi_decay_rates(self, paper_sys):
        for mu, beta in G.PAPER_BETA.items():
            fit = fit_roi_decay(paper_sys, mu)
            assert abs(fit.rate - beta) / beta < 0.10


def _near_one_system(sig):
    op = build_operator(TINY_GEOM)
    m, n = op.shape
    return SingularSystem(sigmas=sig, u=np.zeros((n, sig.size)), v=np.zeros((m, sig.size)),
                          op=op, residual=0.0)


class TestNearOneFit:
    # 5 values from the law at |n| = 5..1, the transition value, the 9-value tail
    SPECTRUM = np.concatenate([1.0 - 2.0 * np.exp(-4.0 * np.arange(5, 0, -1)), [0.5],
                               2.0 * np.exp(-5.0 * np.arange(1, 10))])

    def test_synthetic_exact(self):
        fit = near_one_tail_fit(_near_one_system(self.SPECTRUM))
        # exact up to the bits lost storing sigma = 1 - 4e-9 in doubles
        assert fit.amplitude == pytest.approx(2.0, rel=1e-6)
        assert fit.rate == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("count", [1, 5, 9, 14])
    def test_small_system_rejected(self, count):
        # the last count values: below 10 the largest of them is the transition
        sig = self.SPECTRUM[15 - count:]
        above = max(0, count - 10)
        with pytest.raises(SpectralError,
                           match=f"needs 5 values above the transition, got {above}"):
            near_one_tail_fit(_near_one_system(sig))

    def test_paper_rate(self, paper_sys):
        fit = near_one_tail_fit(paper_sys)
        assert abs(fit.rate - G.PAPER_NEAR_ONE_RATE) / G.PAPER_NEAR_ONE_RATE < 0.15

    def test_sigma_at_one_rejected(self):
        sig = self.SPECTRUM.copy()
        sig[0] = 1.0
        with pytest.raises(SpectralError, match="too close to the accumulation point"):
            near_one_tail_fit(_near_one_system(sig))


class TestMonotone:
    def test_tail_vectors_monotone(self, paper_sys):
        for _, k in tail_index_map(paper_sys, 9):
            assert check_monotone(paper_sys, k)

    def test_head_vector_oscillates(self, paper_sys):
        assert not check_monotone(paper_sys, paper_sys.count - 40)
        assert not check_monotone(paper_sys, 100)

    def test_constant_vector_fails(self, paper_sys):
        nobj = paper_sys.u.shape[0]
        u = np.full((nobj, 1), 1.0 / np.sqrt(nobj))
        synth = SingularSystem(sigmas=np.array([0.5]), u=u,
                               v=np.zeros((paper_sys.v.shape[0], 1)),
                               op=paper_sys.op, residual=0.0)
        assert not check_monotone(synth, 0)

    def test_strict_mode_breaks_only_at_noise_level(self, paper_sys):
        # over every sample, without the noise floor of check_monotone, only
        # the deepest vectors may fail, on samples whose relative size is
        # below double-precision assembly noise
        ys = paper_sys.object_grid.points
        inside = (ys > PAPER_GEOM.a2) & (ys < PAPER_GEOM.a3)
        for _, k in tail_index_map(paper_sys, 9)[:7]:
            seg = paper_sys.u[inside, k]
            seg = seg if seg[np.abs(seg).argmax()] > 0 else -seg
            assert np.all(np.diff(seg) > 0)


def test_export_spectrum_csv(tmp_path, tiny_sys):
    path = tmp_path / "spectrum.csv"
    export_spectrum_csv(tiny_sys, path, mu_list=[1.0, 2.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n_discrete,n_asymptotic,sigma,roi_norm_mu1,roi_norm_mu2"
    assert len(lines) == 1 + tiny_sys.count
    last = lines[-1].split(",")
    assert last[0] == str(tiny_sys.count)
    # the one value below the transition value 0.527 is the whole tail
    assert [line.split(",")[1] for line in lines[1:]] == [""] * 6 + ["1"]
    assert float(last[2]) == pytest.approx(tiny_sys.sigmas[-1], rel=1e-15)
