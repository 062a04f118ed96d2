"""Closed-form asymptotic laws for the singular system.

Predictive models cross-checked against the computed decomposition:

* sigma_model_pos:  sigma_n ~ 2 exp(-n pi K+/K-) on the decaying tail;
* sigma_model_neg:  sigma_{-n} ~ 1 - 2 exp(-2 n pi K-/K+) near one;
* roi_norm_model:   |chi_mu u_n| ~ exp(-beta_mu n) / sqrt(n pi);
* u_wkb:            the turning-point-free profile of u_n on the overlap,

      u_n(x) ~ sqrt(2/K-) (-1)^(n+1) P(x)^(-1/4) exp(-w3(x)/eps),

  with eps = K-/(n pi).  The profile is valid away from the endpoints of
  the overlap; the validity inset is eps times the squared overlap width,
  which is the affine-invariant realization of an O(eps) margin (eps
  carries the dimension of an inverse length, so the margin must be
  rescaled by the squared length scale to stay a length).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (Geometry, alpha, beta_mu_exact, check_roi, k_minus,
                       near_one_rate, poly_P, w3, DEFAULT_TOL)


def sigma_model_pos(geom: Geometry, n: int, tol: float = DEFAULT_TOL) -> float:
    """Tail model 2 exp(-alpha n); meaningful for n >= 1."""
    return 2.0 * np.exp(-alpha(geom, tol) * n)


def sigma_model_neg(geom: Geometry, n_abs: int, tol: float = DEFAULT_TOL) -> float:
    """Near-one model 1 - 2 exp(-2 |n| pi K-/K+)."""
    return 1.0 - 2.0 * np.exp(-near_one_rate(geom, tol) * n_abs)


def near_one_model_valid(geom: Geometry, tol: float = DEFAULT_TOL) -> bool:
    """Whether the near-one model already lies in (0, 1) at |n| = 1."""
    return sigma_model_neg(geom, 1, tol) > 0.0


def roi_norm_model(geom: Geometry, mu, n: int, tol: float = DEFAULT_TOL) -> float:
    """ROI-norm model exp(-beta_mu n) / sqrt(n pi) for n >= 1."""
    if n < 1:
        raise DomainError(f"model index must be >= 1, got {n}")
    beta = beta_mu_exact(geom, mu, tol)
    return np.exp(-beta * n) / np.sqrt(n * np.pi)


def wkb_epsilon(geom: Geometry, n: int, tol: float = DEFAULT_TOL) -> float:
    """Small parameter eps = K- / (n pi) of the profile at tail index n."""
    if n < 1:
        raise DomainError(f"profile index must be >= 1, got {n}")
    return k_minus(geom, tol) / (n * np.pi)


@dataclass(frozen=True)
class WkbProfile:
    """Profile of the n-th singular function on the overlap interval."""

    geom: Geometry
    n: int
    epsilon: float

    @property
    def validity_interval(self):
        inset = self.epsilon * self.geom.overlap_width ** 2
        return (self.geom.a2 + inset, self.geom.a3 - inset)

    def evaluate_raw(self, x: float, tol: float = DEFAULT_TOL) -> float:
        """Profile value without the domain guard (for integral checks)."""
        g = self.geom
        p = poly_P(g, x)
        if p <= 0:
            raise DomainError(f"profile undefined where P(x) <= 0 (x={x})")
        sign = -1.0 if self.n % 2 == 0 else 1.0
        return (np.sqrt(2.0 / k_minus(g, tol)) * sign * p ** (-0.25)
                * np.exp(-w3(g, x, tol) / self.epsilon))

    def __call__(self, x: float, tol: float = DEFAULT_TOL) -> float:
        lo, hi = self.validity_interval
        if lo >= hi:
            raise DomainError(
                f"validity interval empty for n={self.n} on {self.geom.points}")
        if not (lo < x < hi):
            raise DomainError(f"x={x} outside validity interval ({lo}, {hi})")
        return self.evaluate_raw(x, tol)


def wkb_profile(geom: Geometry, n: int, tol: float = DEFAULT_TOL) -> WkbProfile:
    return WkbProfile(geom=geom, n=n, epsilon=wkb_epsilon(geom, n, tol))


def u_wkb(geom: Geometry, n: int, x: float, tol: float = DEFAULT_TOL) -> float:
    """Profile of u_n at x, restricted to the validity interval.

    Sign alternates with n through the factor (-1)^(n+1); magnitude grows
    toward a3 like P(x)^(-1/4) while the exponential factor tends to one
    since w3(a3) = 0.
    """
    return wkb_profile(geom, n, tol)(x, tol)


@functools.lru_cache(maxsize=32)
def _phase_table(geom: Geometry, n_nodes: int = 131073):
    """Dense table of w3 over the overlap, for vectorized profile integrals.

    Cumulative trapezoid of the angle-space integrand; accuracy ~1e-9,
    ample for the consistency checks this feeds.
    """
    a1, a2, a3, a4 = geom.points
    m2, r2 = 0.5 * (a2 + a3), 0.5 * (a3 - a2)
    th = np.linspace(-np.pi / 2, np.pi / 2, n_nodes)
    t = m2 + r2 * np.sin(th)
    g = 1.0 / np.sqrt(np.maximum((t - a1) * (a4 - t), 1e-300))
    seg = 0.5 * (g[1:] + g[:-1]) * np.diff(th)
    upto = np.concatenate([[0.0], np.cumsum(seg)])   # integral from -pi/2 to theta
    total = upto[-1]
    return th, total - upto                          # w3 as a function of theta


def _w3_vectorized(geom: Geometry, xs: np.ndarray) -> np.ndarray:
    th_grid, w3_grid = _phase_table(geom)
    m2, r2 = 0.5 * (geom.a2 + geom.a3), 0.5 * (geom.a3 - geom.a2)
    th = np.arcsin(np.clip((xs - m2) / r2, -1.0, 1.0))
    return np.interp(th, th_grid, w3_grid)


def wkb_roi_norm_quadrature(geom: Geometry, mu, n: int,
                            tol: float = DEFAULT_TOL) -> float:
    """Step-free norm of the profile over (a2, a3 - mu) by quadrature.

    Used to tie the profile to the ROI-norm model at the few-percent
    level.  The squared profile has an (x - a2)^(-1/2) singularity where
    the quartic vanishes; the substitution x = a2 + h s^2, h = a3 - mu - a2,
    on s in [0, 1] removes it: the Jacobian 2 h s cancels the sqrt(h) s of
    sqrt(x - a2), leaving an integrand smooth up to s = 0.
    """
    from .quadrature import integrate

    m = check_roi(geom, mu)
    eps = wkb_epsilon(geom, n, tol)
    km = k_minus(geom, tol)
    h = geom.a3 - m - geom.a2

    def f(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        xs = geom.a2 + h * s * s
        rest = (xs - geom.a1) * (geom.a3 - xs) * (geom.a4 - xs)   # P / (x - a2)
        w = _w3_vectorized(geom, xs)
        return (4.0 * np.sqrt(h) / km) / np.sqrt(rest) * np.exp(-2.0 * w / eps)

    val, _ = integrate(f, 0.0, 1.0, max(tol, 1e-9))
    return float(np.sqrt(val))
