"""Worst-case stability bounds for the restricted reconstruction problem.

All bounds share the constants bundle calibrated against a computed
singular system:

* A, alpha      lower envelope sigma_n >= A exp(-alpha n) for n >= N_0;
* B_mu, beta_mu upper envelope |chi_mu u_n| <= B_mu exp(-beta_mu n) for
                n >= N_mu, with B_mu = 1/sqrt(N_mu pi);
* V_mu, W_mu    closed-form combinations entering the quasi-optimal
                cutoff under the norm prior and the variation prior.

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

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BoundNotApplicableError, SpectralError
from .geometry import Geometry, alpha as geom_alpha, beta_mu_exact, check_roi
from .regularization import optimal_cutoff_l2
from .spectral import SingularSystem, roi_norm, tail_index_map

_AUTO_AMPLITUDE_MARGIN = 0.98


@dataclass(frozen=True)
class AsymptoticConstants:
    """Calibrated constants feeding every bound."""

    A: float
    alpha: float
    n0: int
    n_mu: int
    b_mu: float
    beta_mu: float
    v_mu: float
    w_mu: float
    c_tv: float

    def __post_init__(self):
        if not (0.0 < self.A < 2.0):
            raise SpectralError(f"A must lie in (0, 2), got {self.A}")
        if not (self.alpha > self.beta_mu > 0.0):
            raise SpectralError(
                f"need alpha > beta_mu > 0, got alpha={self.alpha}, beta_mu={self.beta_mu}")
        if self.n0 < 0 or self.n_mu <= self.n0:
            raise SpectralError(f"need N_mu > N_0 >= 0, got N_0={self.n0}, N_mu={self.n_mu}")
        if self.b_mu <= 0 or self.v_mu <= 0 or self.w_mu <= 0 or self.c_tv <= 0:
            raise SpectralError("B_mu, V_mu, W_mu and c_tv must be positive")


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
                        c_tv: float = 1.0,
                        amplitude: float | None = None) -> AsymptoticConstants:
    """Fit the envelope constants against the computed tail.

    amplitude None picks A automatically a margin below the smallest
    empirical prefactor sigma_n e^(alpha n) over the tail, so the envelope
    provably holds on every computed index; an explicit amplitude is
    honored and calibration fails loudly when no index satisfies it.
    N_mu is the smallest index above N_0 from which the ROI envelope with
    B_mu = 1/sqrt(N_mu pi) holds on all computed indices (a self-
    consistent scan, since B_mu depends on the candidate).
    """
    m = check_roi(geom, mu)
    if c_tv <= 0:
        raise SpectralError(f"c_tv must be positive, got {c_tv}")
    a = geom_alpha(geom)
    beta = beta_mu_exact(geom, m)
    pairs = tail_index_map(sys)
    ns = np.array([n for n, _ in pairs])
    sig = np.array([sys.sigmas[k] for _, k in pairs])
    prefactors = sig * np.exp(a * ns)

    if amplitude is None:
        A = float(min(_AUTO_AMPLITUDE_MARGIN * prefactors.min(), 1.99))
        if A <= 0:
            raise SpectralError("auto amplitude calibration failed: "
                                "vanishing tail prefactors")
    else:
        A = float(amplitude)

    n0 = None
    for cand in ns:
        if np.all(prefactors[ns >= cand] >= A):
            n0 = int(cand)
            break
    if n0 is None:
        raise SpectralError(
            f"no tail index satisfies sigma_n >= {A} e^(-alpha n); "
            "lower the amplitude or enlarge the computed tail")

    rn = np.array([roi_norm(sys, k, m) for _, k in pairs])
    n_mu = None
    for cand in ns:
        if cand <= n0:
            continue
        b_cand = 1.0 / np.sqrt(cand * np.pi)
        mask = ns >= cand
        if np.all(rn[mask] <= b_cand * np.exp(-beta * ns[mask])):
            n_mu = int(cand)
            break
    if n_mu is None:
        raise SpectralError(
            "no self-consistent N_mu within the computed tail; "
            "use a larger matrix or a larger mu")

    b = 1.0 / np.sqrt(n_mu * np.pi)
    return AsymptoticConstants(A=A, alpha=a, n0=n0, n_mu=n_mu, b_mu=b,
                               beta_mu=beta, v_mu=v_mu(a, beta),
                               w_mu=w_mu(a, beta, c_tv, n_mu), c_tv=c_tv)


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


def tv_validity(delta: float, kappa: float, k: AsymptoticConstants) -> bool:
    """Strict smallness condition delta/kappa < A W_mu e^(-alpha N_mu)."""
    return bool(delta / kappa < k.A * k.w_mu * np.exp(-k.alpha * k.n_mu))


def roi_bound_tv(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """Restricted-interval bound under the variation prior |f|_TV <= kappa."""
    if delta <= 0 or kappa <= 0:
        raise ValueError("delta and kappa must be positive")
    if not tv_validity(delta, kappa, k):
        raise BoundNotApplicableError(
            f"variation bound not applicable: delta/kappa={delta / kappa:g} "
            f">= {k.A * k.w_mu * np.exp(-k.alpha * k.n_mu):g}")
    gap = k.alpha - k.beta_mu
    head = 2.0 * delta / k.A * np.exp(k.alpha * k.n_mu)
    tail = (2.0 * k.c_tv / k.n_mu * k.b_mu
            * kappa ** (gap / k.alpha)
            * (delta / (k.A * k.w_mu)) ** (k.beta_mu / k.alpha)
            * k.alpha / (gap * np.expm1(k.beta_mu)))
    return head + tail


def full_interval_validity(delta: float, kappa: float, k: AsymptoticConstants) -> bool:
    """Sufficient condition delta/kappa < (A c/(2 alpha)) e^(-(alpha+3/2) N_0)."""
    thresh = k.A * k.c_tv / (2.0 * k.alpha) * np.exp(-(k.alpha + 1.5) * k.n0)
    return bool(delta / kappa < thresh)


def full_interval_bound(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """Logarithmic bound kappa C [log(kappa/delta) + D]^(-1/2) on the full support.

    C and D are the explicit values produced by optimizing the split index
    under the variation prior: C = c (1/alpha + 2) sqrt(alpha + 3/2) and
    D = log(A c/(2 alpha)); the validity condition keeps the bracket
    positive.
    """
    if delta <= 0 or kappa <= 0:
        raise ValueError("delta and kappa must be positive")
    if not full_interval_validity(delta, kappa, k):
        raise BoundNotApplicableError(
            f"full-interval bound not applicable at delta/kappa={delta / kappa:g}")
    C = k.c_tv * (1.0 / k.alpha + 2.0) * np.sqrt(k.alpha + 1.5)
    D = np.log(k.A * k.c_tv / (2.0 * k.alpha))
    bracket = np.log(kappa / delta) + D
    if bracket <= 0:
        raise BoundNotApplicableError("logarithm bracket not positive")
    return kappa * C / np.sqrt(bracket)


def write_bounds_csv(path, deltas, k: AsymptoticConstants, E: float,
                     kappa: float) -> None:
    """Sweep report over delta; inapplicable bounds become nan + false flag."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delta", "bound_pair", "bound_tsvd", "bound_tikhonov",
                    "bound_tv", "bound_full", "valid_l2", "valid_tv", "valid_full"])
        for delta in deltas:
            ok_l2 = l2_validity(delta, E, k)
            ok_tv = tv_validity(delta, kappa, k)
            ok_full = full_interval_validity(delta, kappa, k)
            pair = roi_bound_l2(delta, E, k, "pair") if ok_l2 else np.nan
            tsvd = roi_bound_l2(delta, E, k, "tsvd") if ok_l2 else np.nan
            tikh = roi_bound_l2(delta, E, k, "tikhonov") if ok_l2 else np.nan
            tv = roi_bound_tv(delta, kappa, k) if ok_tv else np.nan
            full = full_interval_bound(delta, kappa, k) if ok_full else np.nan
            w.writerow([f"{delta:.17e}"]
                       + [f"{val:.17e}" for val in (pair, tsvd, tikh, tv, full)]
                       + [str(ok_l2).lower(), str(ok_tv).lower(), str(ok_full).lower()])
