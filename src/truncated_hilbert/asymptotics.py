"""Closed-form asymptotic laws for the singular system.

Predictive models cross-checked against the computed decomposition (the
first and third are the exponentials of log_sigma_model and
log_roi_norm_model, the log forms figure2 writes):

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

The squared profile is an exact derivative.  Since dw3/dx = -P^(-1/2),

      u_n(x)^2 dx = (2/K-) P^(-1/2) exp(-2 w3/eps) dx
                  = (eps/K-) d/dx exp(-2 w3(x)/eps),

and eps/K- = 1/(n pi).  With w3(a3 - mu) = K- beta_mu / pi and
w3(a2) = K+ = K- alpha / pi, the profile mass on the ROI (a2, a3 - mu) is

      |chi_mu u_n|^2 = (exp(-2 n beta_mu) - exp(-2 n alpha)) / (n pi),

so roi_norm_model is its leading term: the remaining factor
sqrt(1 - exp(-2 n (alpha - beta_mu))) differs from one by about 2e-4 at
n = 1, 1e-7 at n = 2 and less beyond (paper geometry, mu = 100).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, real
from .geometry import (Geometry, alpha, beta_mu_exact, k_minus, near_one_rate,
                       poly_P, w3)


def log_sigma_model(geom: Geometry, n: int) -> float:
    """Log of the tail model, log 2 - alpha n, for integers n >= 0 (meaningful from 1)."""
    n = real("n", n, 0, closed=True, integer=True, error=DomainError)
    return np.log(2.0) - alpha(geom) * n


def sigma_model_pos(geom: Geometry, n: int) -> float:
    """Tail model 2 exp(-alpha n); meaningful for n >= 1, defined for integers n >= 0."""
    return np.exp(log_sigma_model(geom, n))


def sigma_model_neg(geom: Geometry, n_abs: int) -> float:
    """Near-one model 1 - 2 exp(-2 |n| pi K-/K+) for integers |n| >= 1."""
    n_abs = real("n_abs", n_abs, 1, closed=True, integer=True, error=DomainError)
    return 1.0 - 2.0 * np.exp(-near_one_rate(geom) * n_abs)


def near_one_model_valid(geom: Geometry) -> bool:
    """Whether the near-one model already lies in (0, 1) at |n| = 1."""
    return sigma_model_neg(geom, 1) > 0.0


def log_roi_norm_model(geom: Geometry, mu, n: int) -> float:
    """Log of the ROI-norm model, -beta_mu n - log(n pi)/2, for integers n >= 1."""
    n = real("n", n, 1, closed=True, integer=True, error=DomainError)
    return -beta_mu_exact(geom, mu) * n - 0.5 * np.log(n * np.pi)


def roi_norm_model(geom: Geometry, mu, n: int) -> float:
    """ROI-norm model exp(-beta_mu n) / sqrt(n pi) for integers n >= 1."""
    return np.exp(log_roi_norm_model(geom, mu, n))


def wkb_epsilon(geom: Geometry, n: int) -> float:
    """Small parameter eps = K- / (n pi) of the profile at tail index n >= 1.

    DomainError where eps underflows to 0: n pi past the double range.
    """
    n = real("n", n, 1, closed=True, integer=True, error=DomainError)
    return real("eps = K-/(n pi)", k_minus(geom) / (n * np.pi), 0, error=DomainError)


@dataclass(frozen=True)
class WkbProfile:
    """Profile of the n-th singular function on the overlap interval."""

    geom: Geometry
    n: int
    epsilon: float

    @cached_property
    def validity_interval(self):
        inset = self.epsilon * self.geom.overlap_width ** 2
        return (self.geom.a2 + inset, self.geom.a3 - inset)

    @cached_property
    def _amplitude(self) -> float:
        """The signed amplitude sqrt(2/K-) (-1)^(n+1)."""
        sign = -1.0 if self.n % 2 == 0 else 1.0
        return np.sqrt(2.0 / k_minus(self.geom)) * sign

    def evaluate_raw(self, x: float) -> float:
        """Profile value without the domain guard (for integral checks)."""
        p = poly_P(self.geom, x)
        if p <= 0:
            raise DomainError(f"profile undefined where P(x) <= 0 (x={x})")
        return self._amplitude * p ** (-0.25) * np.exp(-w3(self.geom, x) / self.epsilon)

    def __call__(self, x: float) -> float:
        lo, hi = self.validity_interval
        if lo >= hi:
            raise DomainError(
                f"validity interval empty for n={self.n} on {self.geom.points}")
        return self.evaluate_raw(real("x", x, lo, hi, error=DomainError))


def wkb_profile(geom: Geometry, n: int) -> WkbProfile:
    return WkbProfile(geom=geom, n=n, epsilon=wkb_epsilon(geom, n))


def u_wkb(geom: Geometry, n: int, x: float) -> float:
    """Profile of u_n at x, restricted to the validity interval.

    Sign alternates with n through the factor (-1)^(n+1); magnitude grows
    toward a3 like P(x)^(-1/4) while the exponential factor tends to one
    since w3(a3) = 0.
    """
    return wkb_profile(geom, n)(x)


def wkb_roi_norm_quadrature(geom: Geometry, mu, n: int) -> float:
    """Norm of the profile over the ROI (a2, a3 - mu), in closed form.

    The squared profile is (1/(n pi)) d/dx exp(-2 n pi w3(x)/K-) (module
    docstring), so the norm is exp(-n beta_mu) sqrt((1 - exp(-2 n (alpha
    - beta_mu))) / (n pi)); roi_norm_model is the leading factor.
    """
    gap = alpha(geom) - beta_mu_exact(geom, mu)
    return float(roi_norm_model(geom, mu, n) * np.sqrt(-np.expm1(-2.0 * n * gap)))
