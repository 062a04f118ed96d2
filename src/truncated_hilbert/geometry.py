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

All integrands have inverse-square-root endpoint singularities; they are
removed analytically with the substitution x = m + r sin(theta) before
any numerical rule is applied.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .quadrature import integrate

DEFAULT_TOL = 1e-10


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


@dataclass(frozen=True)
class RoiParam:
    """Width mu > 0 trimmed off the overlap at a3; ROI is (a2, a3 - mu)."""

    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise GeometryError(f"mu must be positive and finite, got {self.mu}")


def _mu_value(mu) -> float:
    return mu.mu if isinstance(mu, RoiParam) else float(mu)


def check_roi(geom: Geometry, mu) -> float:
    """Validate 0 < mu < a3 - a2 and return mu as a float.

    Strict: values at or beyond the overlap width are rejected rather than
    clamped, since every estimate using mu is stated for fixed mu inside
    the overlap.
    """
    m = _mu_value(mu)
    if not (0.0 < m < geom.overlap_width):
        raise GeometryError(
            f"mu={m} outside (0, {geom.overlap_width}) for geometry {geom.points}")
    return m


def poly_P(geom: Geometry, x):
    """The quartic P(x) = (x-a1)(x-a2)(x-a3)(x-a4); vectorized in x."""
    x = np.asarray(x, dtype=float)
    out = (x - geom.a1) * (x - geom.a2) * (x - geom.a3) * (x - geom.a4)
    return out if out.ndim else float(out)


def poly_P_prime_a3(geom: Geometry) -> float:
    """P'(a3) = (a3-a1)(a3-a2)(a3-a4); negative for valid geometries."""
    return (geom.a3 - geom.a1) * (geom.a3 - geom.a2) * (geom.a3 - geom.a4)


def _overlap_angle(geom: Geometry, x: float) -> float:
    """Overlap angle theta of x = m2 + r2 sin(theta), clipped to [-pi/2, pi/2]."""
    m2, r2 = 0.5 * (geom.a2 + geom.a3), 0.5 * (geom.a3 - geom.a2)
    return np.arcsin(min(1.0, max(-1.0, (x - m2) / r2)))


def _overlap_integrand(geom: Geometry):
    """K+ integrand in the overlap angle, 1/sqrt((t-a1)(a4-t)) at t(theta).

    With t = m2 + r2 sin(theta), (t-a2)(a3-t) = r2^2 cos^2(theta) cancels
    against dt = r2 cos(theta) d(theta), so this is dt/sqrt(P(t)) with both
    overlap singularities absorbed.
    """
    a1, a2, a3, a4 = geom.points
    m2, r2 = 0.5 * (a2 + a3), 0.5 * (a3 - a2)

    def g_plus(th):
        t = m2 + r2 * np.sin(th)
        return 1.0 / np.sqrt((t - a1) * (a4 - t))

    return g_plus


@functools.lru_cache(maxsize=256)
def _k_pair(geom: Geometry, tol: float):
    """Both singular integrals with the sin substitution on the full interval.

    On (a1, a2): -P = (x-a1)(a2-x)(a3-x)(a4-x) and the substitution
    x = m + r sin(theta) maps (x-a1)(a2-x) to r^2 cos^2(theta), leaving the
    analytic integrand 1/sqrt((a3-x)(a4-x)) d(theta).  Same construction
    on (a2, a3) for K+.
    """
    a1, a2, a3, a4 = geom.points
    m1, r1 = 0.5 * (a1 + a2), 0.5 * (a2 - a1)

    def g_minus(th):
        t = m1 + r1 * np.sin(th)
        return 1.0 / np.sqrt((a3 - t) * (a4 - t))

    km, ekm = integrate(g_minus, -np.pi / 2, np.pi / 2, tol)
    kp, ekp = integrate(_overlap_integrand(geom), -np.pi / 2, np.pi / 2, tol)
    return km, kp, ekm, ekp


def k_minus(geom: Geometry, tol: float = DEFAULT_TOL) -> float:
    """K- = int_{a1}^{a2} dx/sqrt(-P(x)), absolute error <= tol."""
    if tol <= 0:
        raise GeometryError("tol must be positive")
    return _k_pair(geom, tol)[0]


def k_plus(geom: Geometry, tol: float = DEFAULT_TOL) -> float:
    """K+ = int_{a2}^{a3} dx/sqrt(P(x)), absolute error <= tol."""
    if tol <= 0:
        raise GeometryError("tol must be positive")
    return _k_pair(geom, tol)[1]


def alpha(geom: Geometry, tol: float = DEFAULT_TOL) -> float:
    """Decay rate pi K+ / K- of the small singular values."""
    km, kp, _, _ = _k_pair(geom, tol)
    return np.pi * kp / km


def near_one_rate(geom: Geometry, tol: float = DEFAULT_TOL) -> float:
    """Rate 2 pi K- / K+ at which 1 - sigma decays on the large-sigma branch."""
    km, kp, _, _ = _k_pair(geom, tol)
    return 2.0 * np.pi * km / kp


@functools.lru_cache(maxsize=65536)
def w3(geom: Geometry, x: float, tol: float = DEFAULT_TOL) -> float:
    """Phase integral w3(x) = int_x^{a3} dt/sqrt(P(t)) for a2 < x <= a3.

    Computed as a partial integral of the K+ integrand in the transformed
    angle variable, so the singularity at a3 (and at a2 as x -> a2+) is
    absorbed exactly; w3(a2) = K+ and w3(a3) = 0 by construction.
    """
    if not (geom.a2 < x <= geom.a3):
        raise GeometryError(f"w3 requires a2 < x <= a3, got x={x}")
    val, _ = integrate(_overlap_integrand(geom), _overlap_angle(geom, x),
                       np.pi / 2, tol)
    return val


def beta_mu_exact(geom: Geometry, mu, tol: float = DEFAULT_TOL) -> float:
    """beta_mu = (pi/K-) int_{a3-mu}^{a3} dt/sqrt(P(t)), exact by quadrature.

    Deliberately decomposed differently than w3 so the two can cross-check
    each other: the interval (a3-mu, a3) is split at its midpoint; the
    half touching a3 gets a local sin substitution anchored at a3 (one-
    sided singularity), while the inner half is integrated in the global
    overlap angle, which stays regular even when a3-mu approaches a2.
    """
    m = check_roi(geom, mu)
    a1, a2, a3, a4 = geom.points
    km = k_minus(geom, tol)

    # inner half (a3-mu, a3-mu/2) in the overlap angle variable
    i_inner, _ = integrate(_overlap_integrand(geom), _overlap_angle(geom, a3 - m),
                           _overlap_angle(geom, a3 - 0.5 * m), tol)

    # outer half: t = mc + rc sin(theta) with (a3 - t) = rc (1 - sin theta)
    mc, rc = a3 - 0.25 * m, 0.25 * m

    def f_sin(th):
        s = np.sin(th)
        t = mc + rc * s
        return np.sqrt(rc) * np.sqrt(np.maximum(1.0 + s, 0.0)) / np.sqrt(
            (t - a1) * (t - a2) * (a4 - t))

    i_outer, _ = integrate(f_sin, -np.pi / 2, np.pi / 2, tol)
    return np.pi / km * (i_inner + i_outer)


def beta_mu_approx(geom: Geometry, mu, tol: float = DEFAULT_TOL) -> float:
    """Leading small-mu form (2 pi / K-) sqrt(mu) / sqrt(-P'(a3)).

    Relative error against beta_mu_exact is O(mu).
    """
    m = _mu_value(mu)
    if m < 0:
        raise GeometryError(f"mu must be nonnegative, got {m}")
    dp = poly_P_prime_a3(geom)
    km = k_minus(geom, tol)
    return 2.0 * np.pi / km * np.sqrt(m) / np.sqrt(-dp)


def holder_exponent(geom: Geometry, mu, tol: float = DEFAULT_TOL) -> float:
    """Stability power beta_mu / alpha, strictly between 0 and 1."""
    return beta_mu_exact(geom, mu, tol) / alpha(geom, tol)
