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
norm prior and the variation prior, with their logs, which the cutoffs
and bounds read.  calibrate_constants measures A and
c_tv from the tail and accepts no other value for either.

Both restricted-interval bounds are Hoelder and share one form.  At the
quasi-optimal index n* = log(X A C_mu/delta)/alpha of regularization
(optimal_cutoff_l2, optimal_cutoff_tv) the bound is

    s [ delta e^(alpha N_mu)/A + X K e^(-beta_mu n*) ],

where X e^(-beta_mu n*) = X^((alpha-beta)/alpha) (delta/(A C_mu))^(beta/alpha).
Under the norm prior |f| <= E: X = E, C_mu = V_mu and
K = B_mu alpha / ((alpha-beta) sqrt(e^(2 beta) - 1)), with s = 2 for
any two admissible solutions, 1 for the truncated-SVD estimate and
1 + sqrt(2) for the Tikhonov one.  Under a variation prior
|f|_TV <= kappa (solutions vanishing at the support ends): X = kappa,
C_mu = W_mu, K = B_mu c_tv alpha / (N_mu (alpha-beta)(e^beta - 1)) and
s = 2.  On the full support only a logarithmic modulus survives:

    kappa C [log(kappa/delta) + D]^(-1/2),
    C = c (1/alpha + 2) sqrt(alpha + 3/2),   D = log(A c / (2 alpha)).

This module alone decides validity, by one rule for all three bounds: a
bound is valid where its regime's condition holds (a finite n* > N_mu
for either Hoelder bound, delta/kappa below the threshold of
full_interval_validity for the logarithmic one) and the bound is a
finite double.  Every bound and every regime is formed in logs, so the
one finiteness test is on the logged bound, and no intermediate such as
kappa/delta needs to be finite.  Each bound raises
BoundNotApplicableError exactly where its validity function says False.
Every function here takes delta in (0, inf).
"""

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import BoundNotApplicableError, SpectralError, real
from .geometry import Geometry, alpha as geom_alpha, beta_mu_exact, check_roi
from .regularization import _quasi_optimal_index
from .report import write_csv
from .spectral import SingularSystem, roi_norm, tail_for_fit

_CALIBRATION_MARGIN = 0.98   # A sits this factor below its measurement, c_tv above
# the factors of the norm-prior bound: any two admissible solutions, the
# truncated estimate, the Tikhonov estimate
_L2_SCALES = {"pair": 2.0, "tsvd": 1.0, "tikhonov": 1.0 + math.sqrt(2.0)}
# e^x for x below this is finite times any bound's factor, roi_bound_tv's 2 too
_LOG_MAX = math.log(sys.float_info.max / _L2_SCALES["tikhonov"])
# the argument ranges of v_mu and w_mu: beta_mu a normal double, N_mu an
# index exact in a double
_BETA_MIN, _N_MU_MAX = sys.float_info.min, 2 ** 53


@dataclass(frozen=True)
class AsymptoticConstants:
    """The five calibrated constants feeding every bound, and B_mu, V_mu, W_mu.

    log_v_mu and log_w_mu are the logs the cutoffs and bounds read; they
    stay finite where V_mu or W_mu underflows to 0.
    """

    A: float
    alpha: float
    beta_mu: float
    n_mu: int
    c_tv: float
    b_mu: float = field(init=False)
    v_mu: float = field(init=False)
    w_mu: float = field(init=False)
    log_v_mu: float = field(init=False)
    log_w_mu: float = field(init=False)
    n0: ClassVar[int] = 1

    def __post_init__(self):
        real("A", self.A, 0, 2, error=SpectralError)
        alpha, beta = _rates(self.alpha, self.beta_mu, SpectralError)
        n_mu = real("n_mu", self.n_mu, self.n0, _N_MU_MAX, integer=True, error=SpectralError)
        v, w, log_v, log_w = _v_w(alpha, beta, real("c_tv", self.c_tv, 0, error=SpectralError),
                                  n_mu, SpectralError)
        # the rates as Python floats, which overflow to inf without a warning
        for name, value in (("alpha", alpha), ("beta_mu", beta),
                            ("b_mu", 1.0 / np.sqrt(n_mu * np.pi)), ("v_mu", v), ("w_mu", w),
                            ("log_v_mu", log_v), ("log_w_mu", log_w)):
            object.__setattr__(self, name, value)


def _rates(alpha, beta_mu, error=BoundNotApplicableError) -> tuple[float, float]:
    """alpha a finite real and beta_mu one in [DBL_MIN, alpha), as floats; else error."""
    alpha = real("alpha", alpha, error=error)
    return alpha, real("beta_mu", beta_mu, _BETA_MIN, alpha, closed=True, error=error)


def _v_w(alpha: float, beta_mu: float, c_tv: float = 1.0, n_mu: int = 1,
         error=BoundNotApplicableError) -> tuple[float, float, float, float]:
    """V_mu, W_mu, log V_mu and log W_mu for checked arguments, from shared factors.

    With gap = alpha - beta_mu, V_mu = head beta/sqrt(1 - e^(-2 beta))
    e^(-beta) and W_mu = head beta/(1 - e^(-beta)) (c_tv/N_mu) e^(-beta),
    head = sqrt(1 - e^(-2 gap))/gap.  head lies in [1/DBL_MAX, 2^538] and
    the beta quotients in [2^-512, beta + 1], so every log is finite and
    the product V_mu never overflows; it keeps a few ulps above 1e-298,
    where e^(-beta) is a normal double, and reads 0 past beta = 745.
    W_mu is e^(log W_mu), 0 where it underflows; error where it overflows.
    """
    gap = alpha - beta_mu
    head = math.sqrt(-math.expm1(-2.0 * gap)) / gap
    ratio = beta_mu / math.sqrt(-math.expm1(-2.0 * beta_mu))
    log_head = math.log(head) - beta_mu
    log_w = (log_head + math.log(beta_mu / -math.expm1(-beta_mu)) + math.log(c_tv)
             - math.log(n_mu))
    try:
        w = math.exp(log_w)
    except OverflowError:
        raise error(f"W_mu = e^{log_w:.6g} leaves the double range") from None
    return head * ratio * math.exp(-beta_mu), w, log_head + math.log(ratio), log_w


def v_mu(alpha: float, beta_mu: float) -> float:
    """Constant (beta/(alpha-beta)) sqrt((1-e^(-2(alpha-beta)))/(e^(2 beta)-1)).

    A finite double >= 0 for every alpha and beta_mu it accepts, and 0
    where V_mu underflows.  Raises BoundNotApplicableError unless alpha
    is a finite real and beta_mu one in [DBL_MIN, alpha).
    """
    return _v_w(*_rates(alpha, beta_mu))[0]


def w_mu(alpha: float, beta_mu: float, c_tv: float, n_mu: int) -> float:
    """Constant (beta/(alpha-beta)) sqrt(1-e^(-2(alpha-beta))) c/(N_mu (e^beta - 1)).

    A finite double >= 0, and 0 where W_mu underflows: e^(log W_mu).
    Raises BoundNotApplicableError for arguments out of v_mu's range,
    c_tv not a finite real > 0, N_mu not an integer in [1, 2^53), and
    where W_mu itself overflows.
    """
    alpha, beta_mu = _rates(alpha, beta_mu)
    c_tv = real("c_tv", c_tv, 0, error=BoundNotApplicableError)
    n_mu = real("n_mu", n_mu, 1, _N_MU_MAX, closed=True, integer=True,
                error=BoundNotApplicableError)
    return _v_w(alpha, beta_mu, c_tv, n_mu)[1]


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


def _hoelder(delta: float, prior: str, size: float, log_c_mu: float,
             k: AsymptoticConstants) -> tuple[float, float]:
    """Index n* and log(delta e^(alpha N_mu)/A + size K e^(-beta_mu n*)).

    The one form of both Hoelder bounds, before their factor: prior "E",
    size = E and log_c_mu = log V_mu under the norm prior, prior "kappa",
    size = kappa and log_c_mu = log W_mu under the variation prior.
    Raises ValueError unless delta and size are finite reals > 0.
    n* = log(size A c_mu / delta)/alpha is regularization's quasi-optimal
    index, and the gain K = c_mu b_mu alpha / (beta_mu sqrt(1 - e^(-2 gap))),
    gap = alpha - beta_mu, equals b_mu alpha / (gap sqrt(e^(2 beta_mu) - 1))
    and b_mu c_tv alpha / (N_mu gap (e^beta_mu - 1)) in turn.  Formed in
    logs, because e^(alpha N_mu), size and K can each leave the double
    range where the bound does not.  The log is nan unless n* > N_mu and
    n* is finite: an infinite n* would drop the second term.
    """
    delta, size = real("delta", delta, 0), real(prior, size, 0)
    n_real = _quasi_optimal_index(delta, size, log_c_mu, k)
    if not k.n_mu < n_real < math.inf:
        return n_real, math.nan
    log_gain = (log_c_mu + math.log(k.b_mu) + math.log(k.alpha) - math.log(k.beta_mu)
                - 0.5 * math.log(-math.expm1(-2.0 * (k.alpha - k.beta_mu))))
    return n_real, float(np.logaddexp(math.log(delta) + k.alpha * k.n_mu - math.log(k.A),
                                      math.log(size) + log_gain - k.beta_mu * n_real))


def _bound(scale: float, delta: float, n_real: float, log_b: float,
           k: AsymptoticConstants) -> float:
    """scale e^log_b at a _hoelder result; BoundNotApplicableError where not valid."""
    if not log_b < _LOG_MAX:
        if not n_real > k.n_mu:
            why = f"quasi-optimal index {n_real:.3f} <= N_mu={k.n_mu}"
        elif n_real == math.inf:
            why = "the quasi-optimal index leaves the double range"
        else:
            why = "the bound leaves the double range"
        raise BoundNotApplicableError(f"bound not applicable at delta={delta:g}: {why}")
    return scale * math.exp(log_b)


def l2_validity(delta: float, E: float, k: AsymptoticConstants) -> bool:
    """Whether the quasi-optimal index is finite and above N_mu, and roi_bound_l2 finite.

    Raises ValueError unless delta and E are finite reals > 0.
    """
    return _hoelder(delta, "E", E, k.log_v_mu, k)[1] < _LOG_MAX


def roi_bound_l2(delta: float, E: float, k: AsymptoticConstants,
                 flavor: str = "pair") -> float:
    """Restricted-interval error bound under the norm prior.

    flavor "pair" bounds the distance between any two admissible
    solutions; "tsvd" the truncated estimate at the quasi-optimal cutoff
    (exactly half the pair bound); "tikhonov" the filtered estimate at
    eta = delta^2/E^2 ((1+sqrt 2) times "tsvd").  Raises ValueError, as
    l2_validity does, and BoundNotApplicableError where it does not hold.
    """
    if flavor not in _L2_SCALES:
        raise ValueError(f"unknown flavor {flavor!r}")
    return _bound(_L2_SCALES[flavor], delta, *_hoelder(delta, "E", E, k.log_v_mu, k), k)


def tv_validity(delta: float, kappa: float, k: AsymptoticConstants) -> bool:
    """Whether the quasi-optimal index is finite and above N_mu, and roi_bound_tv finite.

    The index is regularization.optimal_cutoff_tv's, log(kappa A W_mu /
    delta)/alpha, so the first half is the strict smallness condition
    delta/kappa < A W_mu e^(-alpha N_mu).  Raises ValueError unless delta
    and kappa are finite reals > 0.
    """
    return _hoelder(delta, "kappa", kappa, k.log_w_mu, k)[1] < _LOG_MAX


def roi_bound_tv(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """Restricted-interval bound under the variation prior |f|_TV <= kappa.

    Raises ValueError, as tv_validity does, and BoundNotApplicableError
    where tv_validity does not hold.
    """
    return _bound(2.0, delta, *_hoelder(delta, "kappa", kappa, k.log_w_mu, k), k)


def _full_interval(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """log kappa + log C - log(log(kappa/delta) + D)/2 in its regime, else nan.

    The regime is log delta - log kappa < D - (alpha + 3/2) N_0, which
    keeps the bracket above alpha + 3/2.  Raises ValueError unless delta
    and kappa are finite reals > 0.
    """
    delta, kappa = real("delta", delta, 0), real("kappa", kappa, 0)
    log_ratio = math.log(kappa) - math.log(delta)
    d = math.log(k.A) + math.log(k.c_tv) - math.log(2.0 * k.alpha)
    if not log_ratio > (k.alpha + 1.5) * k.n0 - d:
        return math.nan
    log_c = math.log(k.c_tv) + math.log(1.0 / k.alpha + 2.0) + 0.5 * math.log(k.alpha + 1.5)
    return math.log(kappa) + log_c - 0.5 * math.log(log_ratio + d)


def full_interval_validity(delta: float, kappa: float, k: AsymptoticConstants) -> bool:
    """Whether delta/kappa < (A c/(2 alpha)) e^(-(alpha+3/2) N_0) and the bound is finite.

    Both decided in logs.  Raises ValueError unless delta and kappa are
    finite reals > 0.
    """
    return _full_interval(delta, kappa, k) < _LOG_MAX


def full_interval_bound(delta: float, kappa: float, k: AsymptoticConstants) -> float:
    """Logarithmic bound kappa C [log(kappa/delta) + D]^(-1/2) on the full support.

    C and D are the explicit values produced by optimizing the split index
    under the variation prior: C = c (1/alpha + 2) sqrt(alpha + 3/2) and
    D = log(A c/(2 alpha)); the validity condition, strict, keeps the
    bracket above alpha + 3/2.  Raises ValueError, as
    full_interval_validity does, and BoundNotApplicableError where it
    does not hold.
    """
    log_b = _full_interval(delta, kappa, k)
    if not log_b < _LOG_MAX:
        raise BoundNotApplicableError(f"full-interval bound not applicable at "
                                      f"delta={delta:g}, kappa={kappa:g}")
    return math.exp(log_b)


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
