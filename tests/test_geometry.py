import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import goldens as G
from conftest import PAPER_GEOM, SMALL_PRESET_GEOM, UNIT_GEOM
from truncated_hilbert import (Geometry, alpha, beta_mu_approx, beta_mu_exact,
                               check_roi, holder_exponent, k_minus, k_plus,
                               near_one_rate, poly_P, w3)
from truncated_hilbert import geometry
from truncated_hilbert.errors import GeometryError
from truncated_hilbert.geometry import _rf


def shifted(geom, t):
    return Geometry(geom.a1 + t, geom.a2 + t, geom.a3 + t, geom.a4 + t)


def scaled(geom, s):
    return Geometry(s * geom.a1, s * geom.a2, s * geom.a3, s * geom.a4)


class TestGeometryType:
    def test_ordering_enforced(self):
        with pytest.raises(GeometryError):
            Geometry(0.0, 450.0, 450.0, 1725.0)
        with pytest.raises(GeometryError):
            Geometry(1.0, 0.0, 0.5, 2.0)
        with pytest.raises(GeometryError):
            Geometry(0.0, 1.0, 2.0, np.nan)

    def test_roi_param(self):
        with pytest.raises(GeometryError):
            check_roi(UNIT_GEOM, 0.0)
        with pytest.raises(GeometryError):
            check_roi(UNIT_GEOM, -1.0)
        assert check_roi(UNIT_GEOM, 0.1) == 0.1

    def test_roi_strict_upper_limit(self):
        with pytest.raises(GeometryError):
            check_roi(UNIT_GEOM, UNIT_GEOM.overlap_width)
        with pytest.raises(GeometryError):
            check_roi(UNIT_GEOM, 0.8)


class TestPolyP:
    def test_root(self):
        assert poly_P(PAPER_GEOM, 450.0) == 0.0

    def test_direct_product_golden(self):
        assert poly_P(UNIT_GEOM, 0.25) == pytest.approx(G.UNIT_POLY_P_025, abs=1e-16)

    def test_sign_pattern(self):
        assert poly_P(UNIT_GEOM, -0.5) < 0          # inside (a1, a2)
        assert poly_P(UNIT_GEOM, 0.25) > 0          # inside (a2, a3)
        for root in UNIT_GEOM.points:
            assert poly_P(UNIT_GEOM, root) == 0.0

    def test_float_path_matches_array_path(self):
        xs = np.linspace(-2.0, 2.0, 101)
        for geom in (UNIT_GEOM, PAPER_GEOM, Geometry(0, 6, 16, 21)):
            for x, want in zip(xs * geom.a4, poly_P(geom, xs * geom.a4)):
                got = poly_P(geom, float(x))
                assert type(got) is float and got == want

    def test_numpy_scalar_matches_array_path(self):
        xs = np.linspace(-2.0, 2.0, 101) * PAPER_GEOM.a4
        for x, want in zip(xs, poly_P(PAPER_GEOM, xs)):
            assert poly_P(PAPER_GEOM, x) == want   # x an np.float64


class TestKIntegrals:
    def test_unit_goldens(self):
        assert k_minus(UNIT_GEOM) == pytest.approx(G.UNIT_K_MINUS, abs=2e-10)
        assert k_plus(UNIT_GEOM) == pytest.approx(G.UNIT_K_PLUS, abs=2e-10)

    def test_paper_goldens(self):
        assert k_minus(PAPER_GEOM) == pytest.approx(G.PAPER_K_MINUS, rel=1e-9)
        assert k_plus(PAPER_GEOM) == pytest.approx(G.PAPER_K_PLUS, rel=1e-9)

    def test_translation_invariance(self):
        for t in (3.7, -12.25):
            assert k_minus(shifted(UNIT_GEOM, t)) == pytest.approx(
                k_minus(UNIT_GEOM), abs=1e-12)

    def test_scaling(self):
        for s in (2.0, 7.5, 1e-200, 1e200):
            assert k_minus(scaled(UNIT_GEOM, s)) == pytest.approx(
                k_minus(UNIT_GEOM) / s, rel=1e-10)
            assert k_plus(scaled(UNIT_GEOM, s)) == pytest.approx(
                k_plus(UNIT_GEOM) / s, rel=1e-10)


class TestAlpha:
    def test_unit_golden(self):
        assert alpha(UNIT_GEOM) == pytest.approx(G.UNIT_ALPHA, rel=1e-10)

    def test_paper_golden(self):
        assert alpha(PAPER_GEOM) == pytest.approx(G.PAPER_ALPHA, rel=1e-9)

    def test_affine_invariance(self):
        base = alpha(UNIT_GEOM)
        assert alpha(shifted(scaled(UNIT_GEOM, 3.0), -2.0)) == pytest.approx(
            base, rel=1e-10)
        assert alpha(scaled(shifted(UNIT_GEOM, 5.0), 0.25)) == pytest.approx(
            base, rel=1e-10)

    def test_near_one_rate_golden(self):
        assert near_one_rate(PAPER_GEOM) == pytest.approx(
            G.PAPER_NEAR_ONE_RATE, rel=1e-9)


class TestW3:
    def test_at_a3_is_zero(self):
        assert w3(UNIT_GEOM, UNIT_GEOM.a3) == 0.0

    def test_near_a2_approaches_k_plus(self):
        val = w3(UNIT_GEOM, UNIT_GEOM.a2 + 1e-9)
        assert abs(val - k_plus(UNIT_GEOM)) < 2e-4
        assert val < k_plus(UNIT_GEOM)

    def test_golden(self):
        assert w3(UNIT_GEOM, 0.45) == pytest.approx(G.UNIT_W3_045, abs=2e-10)

    def test_domain(self):
        with pytest.raises(GeometryError):
            w3(UNIT_GEOM, UNIT_GEOM.a2)
        with pytest.raises(GeometryError):
            w3(UNIT_GEOM, UNIT_GEOM.a3 + 0.1)

    def test_strictly_decreasing(self):
        xs = [0.05, 0.15, 0.3, 0.45]
        vals = [w3(UNIT_GEOM, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBetaMu:
    def test_unit_golden(self):
        assert beta_mu_exact(UNIT_GEOM, 0.05) == pytest.approx(
            G.UNIT_BETA_005, abs=2e-10)

    def test_paper_goldens(self):
        for mu, ref in G.PAPER_BETA.items():
            assert beta_mu_exact(PAPER_GEOM, mu) == pytest.approx(ref, rel=1e-9)

    def test_cross_check_against_w3(self):
        # beta_mu is (pi/K-) w3(a3 - mu), evaluated from mu itself
        mu = 0.05
        via_w3 = np.pi / k_minus(UNIT_GEOM) * w3(UNIT_GEOM, UNIT_GEOM.a3 - mu)
        assert beta_mu_exact(UNIT_GEOM, mu) == pytest.approx(via_w3, abs=1e-10)

    def test_monotone_in_mu(self):
        assert beta_mu_exact(UNIT_GEOM, 0.1) > beta_mu_exact(UNIT_GEOM, 0.05)
        assert beta_mu_exact(UNIT_GEOM, 0.1) == pytest.approx(
            G.UNIT_BETA_01, abs=2e-10)

    def test_limit_mu_to_overlap_width(self):
        # integral turns into K+ as mu approaches a3 - a2
        mu = UNIT_GEOM.overlap_width - 1e-9
        assert abs(beta_mu_exact(UNIT_GEOM, mu) - alpha(UNIT_GEOM)) < 2e-4

    def test_below_alpha(self):
        for mu in (0.01, 0.05, 0.2, 0.4):
            b = beta_mu_exact(UNIT_GEOM, mu)
            assert 0.0 < b < alpha(UNIT_GEOM)

    def test_mu_validation(self):
        with pytest.raises(GeometryError):
            beta_mu_exact(UNIT_GEOM, 0.5)
        with pytest.raises(GeometryError):
            beta_mu_exact(UNIT_GEOM, -0.1)

    def test_bad_mu_raises_on_every_call(self):
        # the value is cached; the check of mu is not
        for mu in (0.5, -0.1, float("nan")):
            for _ in range(3):
                with pytest.raises(GeometryError):
                    beta_mu_exact(UNIT_GEOM, mu)

    def test_one_cache_entry_per_float_mu(self):
        g = Geometry(0, 6, 16, 21)
        geometry._beta_mu.cache_clear()
        vals = [beta_mu_exact(g, mu) for mu in (5, 5.0, np.float64(5))]
        assert len({v.hex() for v in map(float, vals)}) == 1
        info = geometry._beta_mu.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestBetaMuApprox:
    def test_at_zero(self):
        assert beta_mu_approx(UNIT_GEOM, 0.0) == 0.0

    def test_sqrt_scaling(self):
        one = beta_mu_approx(UNIT_GEOM, 1e-4)
        four = beta_mu_approx(UNIT_GEOM, 4e-4)
        assert four == pytest.approx(2.0 * one, rel=1e-12)

    def test_relative_error_order_mu(self):
        for mu in (1e-4, 1e-3):
            ex = beta_mu_exact(UNIT_GEOM, mu)
            ap = beta_mu_approx(UNIT_GEOM, mu)
            assert abs(ap - ex) / ex <= 0.2 * mu

    def test_error_halves_with_mu(self):
        def rel_err(mu):
            ex = beta_mu_exact(UNIT_GEOM, mu)
            return abs(beta_mu_approx(UNIT_GEOM, mu) - ex) / ex

        e1, e2 = rel_err(1e-3), rel_err(5e-4)
        assert 0.35 <= e2 / e1 <= 0.65


class TestHolderExponent:
    def test_in_unit_interval(self):
        for mu in (0.01, 0.1, 0.3):
            assert 0.0 < holder_exponent(UNIT_GEOM, mu) < 1.0

    def test_golden_spot(self):
        geom = Geometry(-1.0, 0.0, 0.5, 1.0)
        assert holder_exponent(geom, 0.1 * 0.5) == pytest.approx(
            G.UNIT_HOLDER_A3_05_MU_005, abs=1e-9)

    def test_limit_to_one(self):
        mu = UNIT_GEOM.overlap_width - 1e-9
        assert holder_exponent(UNIT_GEOM, mu) == pytest.approx(1.0, abs=1e-4)

    def test_ordering_in_mu(self):
        a3 = 0.5
        geom = Geometry(-1.0, 0.0, a3, 1.0)
        vals = [holder_exponent(geom, frac * a3) for frac in (0.25, 0.1, 0.01)]
        assert vals[0] > vals[1] > vals[2]

    def test_affine_invariance(self):
        base = holder_exponent(UNIT_GEOM, 0.05)
        for s in (4.0, 1e-200, 1e200):
            g2 = scaled(shifted(UNIT_GEOM, 1.5), s)
            assert holder_exponent(g2, 0.05 * s) == pytest.approx(base, rel=1e-10)


# breakpoints from slow to fast decay (alpha 0.87 .. 16.6), with thin
# overlaps, thin outer segments and the package's own presets
ORACLE_GEOMETRIES = [
    (0.0, 60.0, 61.0, 120.0),
    (0.0, 100.0, 100.01, 200.0),
    (0.0, 1.0, 139.0, 140.0),
    (0.0, 1e-3, 1.0, 1.001),
    (3.0, 5.0, 100.0, 101.0),
    UNIT_GEOM.points,
    PAPER_GEOM.points,
    SMALL_PRESET_GEOM.points,
]


W3_OFFSETS = (1e-12, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12)
MU_FRACTIONS = (1e-6, 0.01, 0.1, 0.5, 0.99)


def mpmath_constants(geom, xs, mus):
    """K-, K+, w3(xs) and beta_mu(mus) by 40-digit tanh-sinh quadrature.

    x = m + r sin(theta) over (a1, a2) and over the overlap (a2, a3) turns
    both inverse-square-root endpoint factors into r cos(theta), which
    cancels against dx, so the integrands 1/sqrt((a3-x)(a4-x)) and
    1/sqrt((x-a1)(a4-x)) are analytic on the closed angle intervals.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        a1, a2, a3, a4 = (mp.mpf(v) for v in geom.points)
        m1, r1 = (a1 + a2) / 2, (a2 - a1) / 2
        m2, r2 = (a2 + a3) / 2, (a3 - a2) / 2

        def g_minus(th):
            x = m1 + r1 * mp.sin(th)
            return 1 / mp.sqrt((a3 - x) * (a4 - x))

        def g_plus(th):
            t = m2 + r2 * mp.sin(th)
            return 1 / mp.sqrt((t - a1) * (a4 - t))

        def w3_ref(x):
            return mp.quad(g_plus, [mp.asin((mp.mpf(x) - m2) / r2), mp.pi / 2])

        km = mp.quad(g_minus, [-mp.pi / 2, mp.pi / 2])
        kp = w3_ref(a2)
        return ({"K-": km, "K+": kp, "alpha": mp.pi * kp / km},
                [w3_ref(x) for x in xs],
                [mp.pi / km * w3_ref(a3 - mp.mpf(mu)) for mu in mus])


@pytest.mark.parametrize("pts", ORACLE_GEOMETRIES)
def test_constants_against_mpmath(pts):
    geom = Geometry(*pts)
    xs = [geom.a2 + f * geom.overlap_width for f in W3_OFFSETS]
    mus = [f * geom.overlap_width for f in MU_FRACTIONS]
    k_ref, w3_ref, beta_ref = mpmath_constants(geom, xs, mus)
    checks = [(name, fn(geom), k_ref[name]) for name, fn in
              (("K-", k_minus), ("K+", k_plus), ("alpha", alpha))]
    checks += [(f"w3({x!r})", w3(geom, x), ref) for x, ref in zip(xs, w3_ref)]
    checks += [(f"beta_mu({mu!r})", beta_mu_exact(geom, mu), ref)
               for mu, ref in zip(mus, beta_ref)]
    # measured worst case 6.7e-16
    bad = {name: float(abs(got / ref - 1)) for name, got, ref in checks
           if not abs(got / ref - 1) <= 2e-15}
    assert bad == {}


class TestCarlsonRF:
    """The duplication R_F against 40-digit mpmath (worst 6.5e-16 seen over 5000 draws)."""

    @staticmethod
    def rel_errors(args, scale=1.0):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            return [float(abs(mp.mpf(_rf(*v)) * mp.sqrt(scale)
                              / mp.elliprf(*(mp.mpf(t) / scale for t in v)) - 1))
                    for v in args]

    def test_random_arguments_against_mpmath(self):
        rng = np.random.default_rng(3)
        args = 10.0 ** rng.uniform(-150.0, 150.0, size=(1000, 3))
        args[::3, 0] = 0.0                     # the zero first argument of K(m)
        assert max(self.rel_errors(args.tolist())) <= 1e-15

    def test_equal_arguments(self):
        for x in (1e-300, 1e-150, 0.3, 1.0, 7.0, 1e150, 1e300):
            assert _rf(x, x, x) == pytest.approx(1.0 / np.sqrt(x), rel=1e-15)

    def test_homogeneity_of_degree_minus_half(self):
        rng = np.random.default_rng(4)
        base = 10.0 ** rng.uniform(-20.0, 20.0, size=(60, 3))
        base[::4, 0] = 0.0
        for lam in (1e-120, 3.7e-9, 0.1, 2.5e11, 1e140):
            # sqrt(lam) R_F(lam x, lam y, lam z) against mpmath's R_F(x, y, z)
            assert max(self.rel_errors((lam * base).tolist(), scale=lam)) <= 1e-15
        # a power of 4 scales every step exactly
        for x, y, z in base[:20]:
            assert _rf(4.0 ** 40 * x, 4.0 ** 40 * y, 4.0 ** 40 * z) == _rf(x, y, z) / 2.0 ** 40


def extreme_reference(geom):
    """K-, K+, alpha, the near-one rate and beta at mu = r/2 in 40-digit arithmetic.

    K+ = c K(m) = c R_F(0, 1 - m, 1) and K- = c K(1 - m) = c R_F(0, m, 1),
    with m and 1 - m formed from exact breakpoint differences, so neither
    is a difference and no ratio leaves mpmath's exponent range.  beta is
    the Carlson form of _phase, evaluated in the same arithmetic, and
    beta_mu_approx at mu = r/2 its closed form (2 pi/K-) sqrt(mu / -P'(a3)).
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        a1, a2, a3, a4 = (mp.mpf(v) for v in geom.points)
        r, P, Q = a3 - a2, a2 - a1, a4 - a3
        den = (r + P) * (r + Q)
        c = 2 / mp.sqrt(den)
        km = c * mp.elliprf(0, r * (r + P + Q) / den, 1)
        kp = c * mp.elliprf(0, P * Q / den, 1)
        p, q, half = P / r, Q / r, mp.mpf(0.5)
        w = 2 / r * mp.sqrt(half) * mp.elliprf((1 + p) * (q + half), (p + half) * q,
                                               (1 + p) * q * half)
        approx = 2 * mp.pi / km * mp.sqrt(r / 2 / ((r + P) * r * Q))
        return {"K-": km, "K+": kp, "alpha": mp.pi * kp / km,
                "near_one_rate": 2 * mp.pi * km / kp, "beta_mu": mp.pi / km * w,
                "beta_mu_approx": approx}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
def test_constants_at_extreme_segment_ratios(log_p, log_q):
    # the smaller ratio sits next to the breakpoint at 0, so it is exact
    p, q = 10.0 ** log_p, 10.0 ** log_q
    pts = (-p, 0.0, 1.0, 1.0 + q) if p <= q else (-1.0 - p, -1.0, 0.0, q)
    assume(pts[0] < pts[1] < pts[2] < pts[3])
    geom = Geometry(*pts)
    fns = {"K-": k_minus, "K+": k_plus, "alpha": alpha, "near_one_rate": near_one_rate,
           "beta_mu": lambda g: beta_mu_exact(g, g.overlap_width / 2),
           "beta_mu_approx": lambda g: beta_mu_approx(g, g.overlap_width / 2)}
    ref = extreme_reference(geom)
    for name, fn in fns.items():
        try:
            got = fn(geom)
        except GeometryError:
            continue
        assert np.isfinite(got), name
        assert abs(got / ref[name] - 1) <= 2e-15, name


@pytest.mark.parametrize("pts", [
    (-1e300, 0.0, 1e-300, 1e300),            # p and q overflow
    (-1.0, 0.0, 5e-324, 1.0),                # subnormal overlap
    (-1e-300, 0.0, 1.0, 1.0 + 2.0 ** -52),   # 1 - m below the normal range
    (-5e-324, 0.0, 2.3e-308, 4.6e-308),      # K+ overflows
])
def test_unrepresentable_ratios_raise(pts):
    geom = Geometry(*pts)
    for fn in (k_minus, k_plus, alpha, near_one_rate):
        with pytest.raises(GeometryError):
            fn(geom)


def test_rates_at_the_smallest_overlap():
    # K+ and K- are near 1e308 here, so pi K+ and 2 pi K- overflowed and
    # both rates were inf; the rates are those of (0, 1, 2, 3)
    tiny, unit = Geometry(0.0, 2.5e-308, 5e-308, 7.5e-308), Geometry(0.0, 1.0, 2.0, 3.0)
    for fn in (alpha, near_one_rate):
        assert fn(tiny) == pytest.approx(fn(unit), rel=2e-15)


def _constants_or_none(pts, mu):
    """Each public interval constant of Geometry(*pts), or None where GeometryError refuses it.

    The suite turns warnings into errors, so a warning fails the caller.
    """
    try:
        geom = Geometry(*pts)
    except GeometryError:
        return None
    fns = {"K-": lambda: k_minus(geom), "K+": lambda: k_plus(geom),
           "alpha": lambda: alpha(geom), "near_one_rate": lambda: near_one_rate(geom),
           "beta_mu_exact": lambda: beta_mu_exact(geom, mu),
           "beta_mu_approx": lambda: beta_mu_approx(geom, mu),
           "holder_exponent": lambda: holder_exponent(geom, mu),
           "w3": lambda: w3(geom, (geom.a2 + geom.a3) / 2)}
    out = {}
    for name, fn in fns.items():
        try:
            out[name] = fn()
        except GeometryError:
            out[name] = None
            continue
        assert isinstance(out[name], float) and np.isfinite(out[name]), (name, pts, mu)
    return out


def _ratio_geometry(logs):
    p, q = 10.0 ** logs[0], 10.0 ** logs[1]
    return (-p, 0.0, 1.0, 1.0 + q) if p <= q else (-1.0 - p, -1.0, 0.0, q)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.sampled_from([PAPER_GEOM.points, SMALL_PRESET_GEOM.points]),
                 st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
                 .map(_ratio_geometry)),
       st.sampled_from([1e-300, 1e-12, 0.01, 0.5, 0.99]), st.integers(-1000, 1000))
# the phase at 2^k times these is below the normal range, or its factor
# c sqrt(e) is while the phase is not
@example(PAPER_GEOM.points, 1e-12, 994)
@example((-2.0, -1.0, 0.0, 0.01), 1e-300, 525)
def test_power_of_two_scaling_probe(pts, mu_fraction, k):
    """Every constant is a finite double or refused, at any scale 2^k.

    Scaling the breakpoints and mu by 2^k is exact where the scaled values
    are normal doubles, so where both geometries return, the scale-free
    constants agree bit for bit and K-, K+ scale by exactly 2^-k.
    """
    mu = mu_fraction * (pts[2] - pts[1])
    base = _constants_or_none(pts, mu)
    scaled = _constants_or_none(tuple(v * 2.0 ** k for v in pts), mu * 2.0 ** k)
    exact = all(v == 0.0 or sys.float_info.min <= abs(v * 2.0 ** k) < np.inf
                for v in (*pts, mu))
    if base is None or scaled is None or not exact:
        return
    for name in ("alpha", "near_one_rate", "beta_mu_exact", "beta_mu_approx",
                 "holder_exponent", "K-", "K+"):
        if base[name] is None or scaled[name] is None:
            continue
        want = base[name] * 2.0 ** -k if name in ("K-", "K+") else base[name]
        assert scaled[name] == want, (name, pts, mu, k)
