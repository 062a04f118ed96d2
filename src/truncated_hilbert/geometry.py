"""Interval geometry and the analytic constants that control the spectrum.

Four breakpoints a1 < a2 < a3 < a4 fix the data interval (a1, a3) and the
object support (a2, a4), overlapping on (a2, a3).  The quartic

    P(x) = (x - a1)(x - a2)(x - a3)(x - a4)

is negative on (a1, a2) and positive on (a2, a3).  Two singular integrals,

    K- = int_{a1}^{a2} dx / sqrt(-P(x)),    K+ = int_{a2}^{a3} dx / sqrt(P(x)),

drive every decay rate in the package: alpha = pi K+ / K- for the small
singular values, 2 pi K- / K+ for the accumulation at one, and

    beta_mu = (pi / K-) int_{a3-mu}^{a3} dt / sqrt(P(t))

for the attenuation of singular functions on the region of interest
(a2, a3 - mu).  beta_mu / alpha is the Hoelder power of every stability
estimate downstream.

P is a quartic, so all three are elliptic integrals of the first kind.
In Legendre form, with the cross-ratio parameter and scale

    m = (a3 - a2)(a4 - a1) / ((a3 - a1)(a4 - a2)),
    c = 2 / sqrt((a3 - a1)(a4 - a2)),

K+ = c K(m) and K- = c K(1 - m).  They are evaluated in Carlson's
symmetric form R_F (_rf below, by duplication), whose arguments are sums
and products of positive breakpoint differences.  Neither m nor 1 - m is
ever formed by subtraction, so the values keep close to full double
precision however thin the overlap or the outer segments, endpoint
singularities included.  The R_F arguments are scaled by a power of 4
(_rf_of_products), which is exact, so segment ratios from 1e-300 to
1e300 stay in range; a geometry whose ratios or arguments leave the
normal double range raises GeometryError.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class Geometry:
    """Breakpoints a1 < a2 < a3 < a4 (strictly increasing)."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        pts = (self.a1, self.a2, self.a3, self.a4)
        if not all(np.isfinite(pts)):
            raise GeometryError(f"non-finite breakpoints {pts}")
        if not (self.a1 < self.a2 < self.a3 < self.a4):
            raise GeometryError(f"breakpoints must satisfy a1 < a2 < a3 < a4, got {pts}")

    @property
    def points(self):
        return (self.a1, self.a2, self.a3, self.a4)

    @property
    def overlap_width(self):
        return self.a3 - self.a2


def check_roi(geom: Geometry, mu) -> float:
    """Validate 0 < mu < a3 - a2 and return mu as a float.

    Strict: values at or beyond the overlap width are rejected rather than
    clamped, since every estimate using mu is stated for fixed mu inside
    the overlap.
    """
    m = float(mu)
    if not (0.0 < m < geom.overlap_width):
        raise GeometryError(
            f"mu={m} outside (0, {geom.overlap_width}) for geometry {geom.points}")
    return m


def poly_P(geom: Geometry, x):
    """The quartic P(x) = (x-a1)(x-a2)(x-a3)(x-a4) at a float or a float array.

    One expression serves both, so a Python float gives a Python float
    equal bit for bit to the array entry at the same x.
    """
    return (x - geom.a1) * (x - geom.a2) * (x - geom.a3) * (x - geom.a4)


def poly_P_prime_a3(geom: Geometry) -> float:
    """P'(a3) = (a3-a1)(a3-a2)(a3-a4); negative for valid geometries."""
    return (geom.a3 - geom.a1) * (geom.a3 - geom.a2) * (geom.a3 - geom.a4)


def _overlap_units(geom: Geometry):
    """Overlap width r = a3 - a2 and the outer segments p, q in units of r.

    p = (a2 - a1)/r and q = (a4 - a3)/r.  The constants scale as 1/r, so
    working in overlap units keeps the products of differences below
    inside the floating-point range at any scale of the breakpoints.
    """
    a1, a2, a3, a4 = map(float, geom.points)
    r = a3 - a2
    p, q = (a2 - a1) / r, (a4 - a3) / r
    if not (sys.float_info.min <= r < math.inf and 0.0 < p < math.inf and 0.0 < q < math.inf):
        raise GeometryError(f"overlap {r:g} or segment ratios {p:g}, {q:g} of {geom.points} "
                            "leave the double range")
    return r, p, q


# duplication stops once the arguments agree to (3 eps)^(1/6) of their mean,
# where the truncated series below is accurate to about eps
_RF_SPREAD = (3.0 * 2.0 ** -52) ** (1.0 / 6.0)


def _rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    For x, y, z >= 0, at most one of them zero.  Duplication theorem until
    the three arguments nearly agree, then the series of DLMF 19.36.1 to
    fifth order (Carlson, Numer. Algorithms 10, 1995, Algorithm 1).  The
    duplication steps only add and multiply nonnegative numbers; the
    differences from the mean enter only the small series corrections.
    """
    a0 = (x + y + z) / 3.0
    spread = max(abs(a0 - x), abs(a0 - y), abs(a0 - z)) / _RF_SPREAD
    xm, ym, zm, am = x, y, z, a0
    scale = 1.0                                # 4^m after m duplications
    while spread >= am:
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * (sy + sz) + sy * sz
        xm = (xm + lam) / 4.0
        ym = (ym + lam) / 4.0
        zm = (zm + lam) / 4.0
        am = (am + lam) / 4.0
        spread /= 4.0
        scale *= 4.0
    dx = (a0 - x) / scale / am
    dy = (a0 - y) / scale / am
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return ((1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0)
            / math.sqrt(am))


# products inside this range go to _rf as they are; scaling them would
# change no bit, and skipping it keeps the frequent w3 calls cheap
_RF_PLAIN_LO, _RF_PLAIN_HI = 2.0 ** -500, 2.0 ** 500


def _rf_of_products(x: tuple, y: tuple, z: tuple) -> float:
    """_rf of three arguments, each given as a tuple of nonnegative factors.

    Products outside [2^-500, 2^500] are formed on frexp mantissas, so
    none overflows or underflows on the way, and all three are scaled
    by the one power of 4 that brings the largest into [1/2, 2).  R_F is
    homogeneous of degree -1/2, so the scaling is exact in binary:
    wherever the plain products and their R_F are normal doubles, it
    returns _rf of them bit for bit.  Raises GeometryError when a
    nonzero product is not finite or falls below the normal range after
    scaling, i.e. when the arguments span more than about 2^1021 and
    would lose precision.
    """
    xp, yp, zp = math.prod(x), math.prod(y), math.prod(z)
    if _RF_PLAIN_LO <= min(xp, yp, zp) and max(xp, yp, zp) <= _RF_PLAIN_HI:
        return _rf(xp, yp, zp)
    parts = []
    for factors in (x, y, z):
        m, e = 1.0, 0
        for f in factors:
            fm, fe = math.frexp(f)
            m *= fm
            e += fe
        fm, fe = math.frexp(m)
        parts.append((fm, e + fe))
    k = max(e for m, e in parts if m) // 2
    vals = [math.ldexp(m, e - 2 * k) for m, e in parts]
    if any(m and not sys.float_info.min <= v < math.inf for (m, _), v in zip(parts, vals)):
        raise GeometryError("elliptic-integral arguments span more than the double range")
    return math.ldexp(_rf(*vals), -k)


@functools.lru_cache(maxsize=256)
def _k_pair(geom: Geometry):
    """(K-, K+) = (2/r) (R_F(0, 1 + p + q, d), R_F(0, p q, d)), d = (1+p)(1+q).

    These are c K(1 - m) and c K(m) of the module docstring, by
    K(m) = R_F(0, 1 - m, 1) and the homogeneity of R_F of degree -1/2.
    """
    r, p, q = _overlap_units(geom)
    d = (1.0 + p, 1.0 + q)
    ks = (2.0 / r * _rf_of_products((0.0,), (1.0 + p + q,), d),
          2.0 / r * _rf_of_products((0.0,), (p, q), d))
    if not all(sys.float_info.min <= k < math.inf for k in ks):
        raise GeometryError(f"K-, K+ = {ks} of {geom.points} leave the normal double range")
    return ks


def k_minus(geom: Geometry) -> float:
    """K- = int_{a1}^{a2} dx/sqrt(-P(x))."""
    return _k_pair(geom)[0]


def k_plus(geom: Geometry) -> float:
    """K+ = int_{a2}^{a3} dx/sqrt(P(x))."""
    return _k_pair(geom)[1]


def alpha(geom: Geometry) -> float:
    """Decay rate pi K+ / K- of the small singular values."""
    km, kp = _k_pair(geom)
    return np.pi * kp / km


def near_one_rate(geom: Geometry) -> float:
    """Rate 2 pi K- / K+ at which 1 - sigma decays on the large-sigma branch."""
    km, kp = _k_pair(geom)
    return 2.0 * np.pi * km / kp


def _phase(geom: Geometry, below: float, above: float) -> float:
    """int_x^{a3} dt/sqrt(P(t)) at x = a2 + below = a3 - above.

    Carlson's reduction of an integral of 1/sqrt(quartic) (DLMF 19.29.4)
    with the upper limit at the root a3, in overlap units b = below/r and
    e = above/r:

        (2/r) sqrt(e) R_F((1+p)(q+e), (p+b) q, (1+p) q b).

    The caller passes both distances of x to the overlap ends, so every
    argument is a product of sums of positive terms and nothing cancels,
    however close x is to either end.
    """
    r, p, q = _overlap_units(geom)
    b, e = float(below) / r, float(above) / r
    w = 2.0 / r * math.sqrt(e) * _rf_of_products((1.0 + p, q + e), (p + b, q), (1.0 + p, q, b))
    if not w < math.inf:
        raise GeometryError(f"phase integral of {geom.points} overflows")
    return w


# 1024 entries hold the ~900 overlap nodes of the paper grid; a sweep of
# new geometries only misses, so a larger cache only grows the process
@functools.lru_cache(maxsize=1024)
def w3(geom: Geometry, x: float) -> float:
    """Phase integral w3(x) = int_x^{a3} dt/sqrt(P(t)) for a2 < x <= a3.

    w3(a3) = 0 and w3(x) -> K+ as x -> a2.
    """
    if not (geom.a2 < x <= geom.a3):
        raise GeometryError(f"w3 requires a2 < x <= a3, got x={x}")
    return _phase(geom, x - geom.a2, geom.a3 - x)


def beta_mu_exact(geom: Geometry, mu) -> float:
    """beta_mu = (pi/K-) w3(a3 - mu) = (pi/K-) int_{a3-mu}^{a3} dt/sqrt(P(t)).

    Evaluated from mu itself rather than from the rounded a3 - mu, so small
    mu keep full relative accuracy.  mu is checked on every call; the value
    is cached per geometry and float mu.
    """
    return _beta_mu(geom, check_roi(geom, mu))


# holder_exponent and the ROI-norm models read each of a caller's few mu
# many times per geometry
@functools.lru_cache(maxsize=256)
def _beta_mu(geom: Geometry, m: float) -> float:
    return np.pi / k_minus(geom) * _phase(geom, geom.overlap_width - m, m)


def beta_mu_approx(geom: Geometry, mu) -> float:
    """Leading small-mu form (2 pi / K-) sqrt(mu) / sqrt(-P'(a3)).

    Relative error against beta_mu_exact is O(mu).
    """
    m = float(mu)
    if m < 0:
        raise GeometryError(f"mu must be nonnegative, got {m}")
    dp = poly_P_prime_a3(geom)
    km = k_minus(geom)
    return 2.0 * np.pi / km * np.sqrt(m) / np.sqrt(-dp)


def holder_exponent(geom: Geometry, mu) -> float:
    """Stability power beta_mu / alpha, strictly between 0 and 1."""
    return beta_mu_exact(geom, mu) / alpha(geom)
