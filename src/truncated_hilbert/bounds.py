"""Worst-case stability bounds for the restricted reconstruction problem.

All bounds share one constants bundle, built from the five values
calibrate_constants measures on a computed singular system:

* A, alpha      lower envelope sigma_n >= A exp(-alpha n) on every tail
                index, so N_0 = 1;
* beta_mu, N_mu upper envelope |chi_mu u_n| <= B_mu exp(-beta_mu n) for
                n >= N_mu;
* c_tv          tail bound |<f, u_n>| <= c_tv |f|_TV / n.

The bundle derives the rest: B_mu = 1/sqrt(N_mu pi), and V_mu, W_mu,
the closed-form combinations entering the quasi-optimal cutoff under the
norm prior and the variation prior.  calibrate_constants measures A and
c_tv from the tail and accepts no other value for either.

The two-solution bound under the norm prior |f| <= E is

    2 delta e^(alpha N_mu)/A
      + 2 E B_mu (delta/(A V_mu E))^(beta/alpha)
          * alpha / ((alpha-beta) sqrt(e^(2 beta) - 1)),

valid once the quasi-optimal index log(E A V_mu/delta)/alpha of
regularization.optimal_cutoff_l2 exceeds N_mu; the truncated-SVD and
Tikhonov estimates share its structure with coefficients 1 and
(1+sqrt(2)) in place of 2.  Under a variation prior |f|_TV <= kappa
(solutions vanishing at the support ends) the restricted bound is
Hoelder as well, while on the full support only a logarithmic modulus
survives:

    kappa C [log(kappa/delta) + D]^(-1/2),
    C = c (1/alpha + 2) sqrt(alpha + 3/2),   D = log(A c / (2 alpha)).
"""

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import BoundNotApplicableError, SpectralError
from .geometry import Geometry, alpha as geom_alpha, beta_mu_exact, check_roi
from .regularization import optimal_cutoff_l2
from .report import write_csv
from .spectral import SingularSystem, roi_norm, tail_for_fit

_CALIBRATION_MARGIN = 0.98   # A sits this factor below its measurement, c_tv above
_LOG_MAX = math.log(sys.float_info.max)   # exp of anything below is finite


@dataclass(frozen=True)
class AsymptoticConstants:
    """The five calibrated constants feeding every bound, and B_mu, V_mu, W_mu."""

    A: float
    alpha: float
    beta_mu: float
    n_mu: int
    c_tv: float
    b_mu: float = field(init=False)
    v_mu: float = field(init=False)
    w_mu: float = field(init=False)
    n0: ClassVar[int] = 1

    def __post_init__(self):
        if not (0.0 < self.A < 2.0):
            raise SpectralError(f"A must lie in (0, 2), got {self.A}")
        if not (self.alpha > self.beta_mu > 0.0):
            raise SpectralError(f"need alpha > beta_mu > 0, got {self.alpha}, {self.beta_mu}")
        if not self.n_mu > self.n0:
            raise SpectralError(f"need N_mu > N_0 = {self.n0}, got N_mu={self.n_mu}")
        if not self.c_tv > 0:
            raise SpectralError(f"c_tv must be positive, got {self.c_tv}")
        object.__setattr__(self, "b_mu", 1.0 / np.sqrt(self.n_mu * np.pi))
        object.__setattr__(self, "v_mu", v_mu(self.alpha, self.beta_mu))
        object.__setattr__(self, "w_mu", w_mu(self.alpha, self.beta_mu, self.c_tv, self.n_mu))


def v_mu(alpha: float, beta_mu: float) -> float:
    """Constant (beta/(alpha-beta)) sqrt((1-e^(-2(alpha-beta)))/(e^(2 beta)-1))."""
    if not alpha > beta_mu > 0:
        raise BoundNotApplicableError(
            f"v_mu needs alpha > beta_mu > 0, got {alpha}, {beta_mu}")
    gap = alpha - beta_mu
    return beta_mu / gap * np.sqrt(-np.expm1(-2.0 * gap) / np.expm1(2.0 * beta_mu))


def w_mu(alpha: float, beta_mu: float, c_tv: float, n_mu: int) -> float:
    """Constant (beta/(alpha-beta)) sqrt(1-e^(-2(alpha-beta))) c/(N_mu (e^beta - 1))."""
    if not alpha > beta_mu > 0:
        raise BoundNotApplicableError(
            f"w_mu needs alpha > beta_mu > 0, got {alpha}, {beta_mu}")
    if c_tv <= 0 or n_mu < 1:
        raise BoundNotApplicableError("w_mu needs c_tv > 0 and N_mu >= 1")
    gap = alpha - beta_mu
    return (beta_mu / gap * np.sqrt(-np.expm1(-2.0 * gap))
            * c_tv / (n_mu * (np.expm1(beta_mu))))


def calibrate_constants(sys: SingularSystem, geom: Geometry, mu,
                        c_tv: None = None,
                        amplitude: None = None) -> AsymptoticConstants:
    """Measure the envelope constants on the computed tail.

    A sits a margin below the smallest empirical prefactor
    sigma_n e^(alpha n) over the tail, so the envelope holds on every
    computed index and N_0 = 1.  N_mu is the smallest index above N_0
    from which the ROI envelope with B_mu = 1/sqrt(N_mu pi) holds on all
    computed indices (a self-consistent scan, since B_mu depends on the
    candidate).  c_tv sits the margin above the largest
    c_n = n (max U_n - min U_n)/2 over the tail, U_n = step cumsum(u_n)
    taken with its value 0 before the first sample.  For f vanishing at
    both ends, summation by parts gives <f, u_n> = -sum (jumps of f) U_n;
    the jumps sum to 0, so n |<f, u_n>| <= c_n |f|_TV, sharply.
    c_tv and amplitude accept None only, the value ExperimentConfig's
    ClassVars of those names hold; anything else raises ValueError, as
    does a geom other than sys.geom, whose constants would not fit the tail.
    """
    if c_tv is not None or amplitude is not None:
        raise ValueError("c_tv and A are measured from the tail, not passed")
    if geom != sys.geom:
        raise ValueError(f"geometry {geom.points} is not the system's {sys.geom.points}")
    m = check_roi(geom, mu)
    a = geom_alpha(geom)
    beta = beta_mu_exact(geom, m)
    tail = tail_for_fit(sys)
    ks = np.arange(tail.start, tail.stop)
    ns = ks - tail.start + 1
    A = float(min(_CALIBRATION_MARGIN * (sys.sigmas[ks] * np.exp(a * ns)).min(), 1.99))
    U = sys.step * np.cumsum(sys.u[:, ks], axis=0)
    spread = np.maximum(U.max(axis=0), 0.0) - np.minimum(U.min(axis=0), 0.0)
    c_tv = float((ns * spread).max() / 2.0 / _CALIBRATION_MARGIN)

    rn = np.array([roi_norm(sys, k, m) for k in ks])
    n_mu = None
    for cand in ns[1:]:
        b_cand = 1.0 / np.sqrt(cand * np.pi)
        mask = ns >= cand
        if np.all(rn[mask] <= b_cand * np.exp(-beta * ns[mask])):
            n_mu = int(cand)
            break
    if n_mu is None:
        raise SpectralError(
            "no self-consistent N_mu within the computed tail; "
            "use a larger matrix or a larger mu")

    return AsymptoticConstants(A=A, alpha=a, beta_mu=beta, n_mu=n_mu, c_tv=c_tv)


def l2_validity(delta: float, E: float, k: AsymptoticConstants) -> bool:
    """Whether the unrounded quasi-optimal index exceeds N_mu (optimal_cutoff_l2)."""
    return optimal_cutoff_l2(delta, E, k).valid


def roi_bound_l2(delta: float, E: float, k: AsymptoticConstants,
                 flavor: str = "pair") -> float:
    """Restricted-interval error bound under the norm prior.

    flavor "pair" bounds the distance between any two admissible
    solutions; "tsvd" the truncated estimate at the quasi-optimal cutoff
    (exactly half the pair bound); "tikhonov" the filtered estimate at
    eta = delta^2/E^2 ((1+sqrt 2) times "tsvd").
    """
    scales = {"pair": 2.0, "tsvd": 1.0, "tikhonov": 1.0 + np.sqrt(2.0)}
    if flavor not in scales:
        raise ValueError(f"unknown flavor {flavor!r}")
    cut = optimal_cutoff_l2(delta, E, k)
    if not cut.valid:
        raise BoundNotApplicableError(
            f"bound not applicable at delta={delta:g}: quasi-optimal index "
            f"{cut.n_real:.3f} <= N_mu={k.n_mu}")
    head = delta * np.exp(k.alpha * k.n_mu) / k.A
    gap = k.alpha - k.beta_mu
    tail = (E * k.b_mu * (delta / (k.A * k.v_mu * E)) ** (k.beta_mu / k.alpha)
            * k.alpha / (gap * np.sqrt(np.expm1(2.0 * k.beta_mu))))
    return scales[flavor] * (head + tail)


def _log_tv_bound(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """Natural log of the roi_bound_tv value; -inf at delta = 0.

    Formed in logs because e^(alpha N_mu), kappa^((alpha-beta)/alpha) and
    1/expm1(beta_mu) can each leave the double range where the bound does
    not; for tiny beta_mu the tail grows like kappa/beta_mu while the
    smallness condition of tv_validity still holds.
    """
    gap = k.alpha - k.beta_mu
    log_delta = math.log(delta) if delta > 0 else -math.inf
    log_head = math.log(2.0 / k.A) + log_delta + k.alpha * k.n_mu
    log_tail = (math.log(2.0 * k.b_mu / k.n_mu) + math.log(k.c_tv)
                + gap / k.alpha * math.log(kappa)
                + k.beta_mu / k.alpha * (log_delta - math.log(k.A) - math.log(k.w_mu))
                + math.log(k.alpha / gap) - math.log(math.expm1(k.beta_mu)))
    return float(np.logaddexp(log_head, log_tail))


def _noise_ratio(delta: float, kappa: float) -> float:
    """delta/kappa; ValueError unless delta is finite and >= 0, kappa finite and > 0."""
    if not (0 <= delta < math.inf and 0 < kappa < math.inf):
        raise ValueError(f"need a finite delta >= 0 and kappa > 0, got {delta}, {kappa}")
    return delta / kappa


def tv_validity(delta: float, kappa: float, k: AsymptoticConstants) -> bool:
    """Strict smallness condition delta/kappa < A W_mu e^(-alpha N_mu).

    Also requires the bound of roi_bound_tv to be a finite double, so that
    whenever this holds roi_bound_tv returns a number.  Raises ValueError
    unless delta is finite and >= 0 and kappa finite and > 0.
    """
    return bool(_noise_ratio(delta, kappa) < k.A * k.w_mu * np.exp(-k.alpha * k.n_mu)
                and _log_tv_bound(delta, kappa, k) < _LOG_MAX)


def roi_bound_tv(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """Restricted-interval bound under the variation prior |f|_TV <= kappa.

    The bound at delta = 0 is 0.  Raises ValueError, through tv_validity,
    unless delta is finite and >= 0 and kappa finite and > 0.
    """
    if not tv_validity(delta, kappa, k):
        raise BoundNotApplicableError(
            f"variation bound not applicable at delta/kappa={delta / kappa:g}: needs "
            f"delta/kappa < {k.A * k.w_mu * np.exp(-k.alpha * k.n_mu):g} and a finite bound")
    return math.exp(_log_tv_bound(delta, kappa, k))


def full_interval_validity(delta: float, kappa: float, k: AsymptoticConstants) -> bool:
    """Sufficient condition delta/kappa < (A c/(2 alpha)) e^(-(alpha+3/2) N_0).

    Raises ValueError unless delta is finite and >= 0 and kappa finite and > 0.
    """
    thresh = k.A * k.c_tv / (2.0 * k.alpha) * np.exp(-(k.alpha + 1.5) * k.n0)
    return bool(_noise_ratio(delta, kappa) < thresh)


def full_interval_bound(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """Logarithmic bound kappa C [log(kappa/delta) + D]^(-1/2) on the full support.

    C and D are the explicit values produced by optimizing the split index
    under the variation prior: C = c (1/alpha + 2) sqrt(alpha + 3/2) and
    D = log(A c/(2 alpha)); the validity condition, strict, keeps the
    bracket above alpha + 3/2.
    """
    if delta <= 0 or kappa <= 0:
        raise ValueError("delta and kappa must be positive")
    if not full_interval_validity(delta, kappa, k):
        raise BoundNotApplicableError(
            f"full-interval bound not applicable at delta/kappa={delta / kappa:g}")
    C = k.c_tv * (1.0 / k.alpha + 2.0) * np.sqrt(k.alpha + 1.5)
    D = np.log(k.A * k.c_tv / (2.0 * k.alpha))
    return kappa * C / np.sqrt(np.log(kappa / delta) + D)


def write_bounds_csv(path, deltas, k: AsymptoticConstants, E: float,
                     kappa: float) -> None:
    """Sweep report over delta; inapplicable bounds become nan + false flag."""
    rows = []
    for delta in deltas:
        ok_l2 = l2_validity(delta, E, k)
        ok_tv = tv_validity(delta, kappa, k)
        ok_full = full_interval_validity(delta, kappa, k)
        l2 = [roi_bound_l2(delta, E, k, flavor) if ok_l2 else np.nan
              for flavor in ("pair", "tsvd", "tikhonov")]
        tv = roi_bound_tv(delta, kappa, k) if ok_tv else np.nan
        full = full_interval_bound(delta, kappa, k) if ok_full else np.nan
        rows.append([delta, *l2, tv, full, ok_l2, ok_tv, ok_full])
    write_csv(path, ["delta", "bound_pair", "bound_tsvd", "bound_tikhonov",
                     "bound_tv", "bound_full", "valid_l2", "valid_tv", "valid_full"],
              rows)
