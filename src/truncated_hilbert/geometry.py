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
In overlap units, r = a3 - a2, p = (a2 - a1)/r and q = (a4 - a3)/r, their
Legendre form has the cross-ratio parameter and scale

    m = (1 + p + q) / ((1 + p)(1 + q)),    1 - m = (p / (1 + p)) (q / (1 + q)),
    c = 2 / (r sqrt(1 + p) sqrt(1 + q)) = 2 / sqrt((a3 - a1)(a4 - a2)),

and K+ = c K(m) = c R_F(0, 1 - m, 1), K- = c K(1 - m) = c R_F(0, m, 1), in
Carlson's symmetric form R_F (_rf below, by duplication).  The phase
integral behind beta_mu reduces the same way (_phase).  Every R_F
argument is so normalised into (0, 1] and built from sums and ratios of
positive terms: neither m nor 1 - m is ever formed by subtraction, and no
product of breakpoint differences is formed at all.  The values keep
close to full double precision however thin the overlap or the outer
segments, endpoint singularities included, and segment ratios from
1e-300 to 1e300 stay in range.  An R_F argument below the normal double
range, or a constant outside it, raises GeometryError.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, real


@dataclass(frozen=True)
class Geometry:
    """Breakpoints a1 < a2 < a3 < a4 (strictly increasing finite reals)."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        lo = -math.inf
        for name in ("a1", "a2", "a3", "a4"):
            lo = real(name, getattr(self, name), lo, error=GeometryError)

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
    the overlap.  GeometryError for anything else errors.real refuses,
    a string or a bool included.
    """
    return real("mu", mu, 0, geom.overlap_width, error=GeometryError)


def poly_P(geom: Geometry, x):
    """The quartic P(x) = (x-a1)(x-a2)(x-a3)(x-a4) at a float or a float array.

    One expression serves both, so a Python float gives a Python float
    equal bit for bit to the array entry at the same x.
    """
    return (x - geom.a1) * (x - geom.a2) * (x - geom.a3) * (x - geom.a4)


def _overlap_units(geom: Geometry):
    """Overlap width r = a3 - a2, the outer segments p, q in units of r, and c.

    p = (a2 - a1)/r, q = (a4 - a3)/r and c = 2/(r sqrt(1+p) sqrt(1+q)),
    the scale of the module docstring.  The constants scale as 1/r, so
    everything else they read is a ratio of sums of p, q and 1, inside
    the floating-point range at any scale of the breakpoints.  Raises
    GeometryError unless r is a normal double and p, q are finite and
    positive.
    """
    a1, a2, a3, a4 = map(float, geom.points)
    r = a3 - a2
    p, q = (a2 - a1) / r, (a4 - a3) / r
    c = 2.0 / r / math.sqrt(1.0 + p) / math.sqrt(1.0 + q)
    if not (sys.float_info.min <= r < math.inf and 0.0 < p < math.inf and 0.0 < q < math.inf):
        raise GeometryError(f"overlap {r:g} or segment ratios {p:g}, {q:g} of {geom.points} "
                            "leave the double range")
    return r, p, q, c


# duplication stops once the arguments agree to (3 eps)^(1/6) of their mean,
# where the truncated series below is accurate to about eps
_RF_SPREAD = (3.0 * 2.0 ** -52) ** (1.0 / 6.0)


def _rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    Each argument 0 or a normal double, at most one of them 0;
    GeometryError otherwise, since a subnormal argument has lost digits
    and two zeros make R_F diverge.  Duplication theorem until the three
    arguments nearly agree, then the series of DLMF 19.36.1 to fifth order
    (Carlson, Numer. Algorithms 10, 1995, Algorithm 1).  The duplication
    steps only add and multiply nonnegative numbers; the differences from
    the mean enter only the small series corrections.
    """
    lo, mid, hi = sorted((x, y, z))
    if not ((lo == 0.0 or sys.float_info.min <= lo) and sys.float_info.min <= mid
            and hi < math.inf):
        raise GeometryError(f"R_F arguments {x!r}, {y!r}, {z!r} leave the normal double range")
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


@functools.lru_cache(maxsize=256)
def _k_pair(geom: Geometry):
    """(K-, K+) = c (R_F(m, 1, 0), R_F(1 - m, 1, 0)).

    R_F is symmetric, so these are the c K(1 - m) and c K(m) of the
    module docstring.
    """
    _, p, q, c = _overlap_units(geom)
    ks = (c * _rf((1.0 + p + q) / (1.0 + p) / (1.0 + q), 1.0, 0.0),
          c * _rf(p / (1.0 + p) * (q / (1.0 + q)), 1.0, 0.0))
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
    return np.pi * (kp / km)   # a ratio first: pi K+ may overflow where alpha does not


def near_one_rate(geom: Geometry) -> float:
    """Rate 2 pi K- / K+ at which 1 - sigma decays on the large-sigma branch."""
    km, kp = _k_pair(geom)
    return 2.0 * np.pi * (km / kp)


def _phase(geom: Geometry, below: float, above: float) -> float:
    """int_x^{a3} dt/sqrt(P(t)) at x = a2 + below = a3 - above.

    Carlson's reduction of an integral of 1/sqrt(quartic) (DLMF 19.29.4)
    with the upper limit at the root a3, in overlap units b = below/r and
    e = above/r, normalised like K- and K+ with s = q/(1+q):

        c sqrt(e) R_F((q+e)/(1+q), s (p+b)/(1+p), s b).

    The caller passes both distances of x to the overlap ends, so every
    argument is a ratio of sums of positive terms and nothing cancels,
    however close x is to either end.
    """
    r, p, q, c = _overlap_units(geom)
    b, e = float(below) / r, float(above) / r
    s = q / (1.0 + q)
    w = c * (math.sqrt(e) * _rf((q + e) / (1.0 + q), (p + b) / (1.0 + p) * s, b * s))
    if not (sys.float_info.min <= w < math.inf or e == 0.0):
        raise GeometryError(f"phase integral {w!r} of {geom.points} leaves the normal double range")
    return w


# 1024 entries hold the ~900 overlap nodes of the paper grid; a sweep of
# new geometries only misses, so a larger cache only grows the process
@functools.lru_cache(maxsize=1024, typed=True)
def w3(geom: Geometry, x: float) -> float:
    """Phase integral w3(x) = int_x^{a3} dt/sqrt(P(t)) for a2 < x <= a3.

    w3(a3) = 0 and w3(x) -> K+ as x -> a2.  Entries are typed, so a
    bool misses the entry of its float and is refused.
    """
    x = real("x", x, geom.a2, math.nextafter(geom.a3, math.inf), error=GeometryError)
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
    """Leading small-mu form pi sqrt(mu/r) sqrt(1 + 1/q) / R_F(0, m, 1).

    This is (2 pi / K-) sqrt(mu / -P'(a3)), -P'(a3) = r^3 (1+p) q, in the
    overlap units of _k_pair, where R_F(0, m, 1) = K-/c, so no product of
    breakpoint differences is formed.  Relative error against
    beta_mu_exact is O(mu).  GeometryError where the value overflows.
    """
    m = real("mu", mu, 0, closed=True, error=GeometryError)
    r, _, q, c = _overlap_units(geom)
    value = np.pi * math.sqrt(m / r) * math.sqrt(1.0 + 1.0 / q) / (k_minus(geom) / c)
    if not value < math.inf:
        raise GeometryError(f"beta_mu_approx of {geom.points} at mu={m!r} overflows")
    return value


def holder_exponent(geom: Geometry, mu) -> float:
    """Stability power beta_mu / alpha, strictly between 0 and 1."""
    return beta_mu_exact(geom, mu) / alpha(geom)
