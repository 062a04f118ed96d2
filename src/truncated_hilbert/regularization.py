"""Regularized inversion: truncated-SVD and Tikhonov estimates, noise, phantoms.

Both estimators are spectral filters psi of one singular system, sum_k
psi(sigma_k) c_k u_k with the coefficients c = step * (v.T @ g), and both
equal a = psi(1) within the system's residual on the triples it does not
resolve from 1: 894 of the 911 on the paper grid.  So each estimate is
SingularSystem.spectral_filter, a H^T g + u_S ((psi(sigma_S) - a sigma_S)
c_S) over the resolved triples S alone, H^T g the FFT adjoint; a = 1 for
TSVD and 1/(1 + eta) for Tikhonov.  The system remembers H^T g and c_S of
the last data vector, so estimates of one vector apply the adjoint once.
The truncated estimate inverts every retained component above the tail
plus tail components up to a cutoff index; the quasi-optimal cutoff for
noise level delta is

    N(delta) = round( log(X A C_mu / delta) / alpha ),

with X = E and C_mu = V_mu under the norm prior |f| <= E
(optimal_cutoff_l2), and X = kappa and C_mu = W_mu under the variation
prior |f|_TV <= kappa (optimal_cutoff_tv).  This module is the one place
that evaluates the index: both Hoelder bounds in bounds, and their
validity, read the same unrounded index.
The Tikhonov estimate applies the spectral filter sigma/(sigma^2 + eta),
equivalent to the normal-equations solve on the retained span; the
default parameter is tikhonov_eta(delta, E) = delta^2 / E^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, real
from .geometry import Geometry
from .operator import SampledGrid, weighted_norm
from .report import write_csv, write_json
from .spectral import SingularSystem


@dataclass(frozen=True)
class NoisyData:
    """Data vector g, at the step-weighted distance delta add_noise was given."""

    g: np.ndarray


@dataclass(frozen=True)
class ReconstructionResult:
    """Estimated object vector plus the regularization metadata."""

    f: np.ndarray
    method: str                      # "tsvd" or "tikhonov"
    cutoff_n: int | None = None
    eta: float | None = None


def add_noise(g_ex: np.ndarray, delta: float, seed: int, step: float = 1.0) -> NoisyData:
    """Perturb g_ex by a seeded Gaussian vector rescaled to weighted norm delta.

    Raises ValueError unless delta is a finite real >= 0, seed an integer
    >= 0 and step a finite real > 0, as errors.real decides, and where an
    entry of the noisy data would leave the double range.
    """
    delta = real("delta", delta, 0, closed=True)
    seed = real("seed", seed, 0, closed=True, integer=True)
    step = real("step", step, 0)
    g_ex = np.asarray(g_ex, dtype=float)
    if delta == 0.0:
        return NoisyData(g=g_ex.copy())
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g_ex.size)
    return NoisyData(g=_in_range("the noisy data",
                                 lambda: g_ex + noise * (delta / weighted_norm(noise, step))))


def _in_range(name: str, compute) -> np.ndarray:
    """compute(), or ValueError where an entry of it leaves the double range."""
    with np.errstate(over="ignore", invalid="ignore"):   # inf - inf is nan: refused too
        v = compute()
    if not np.isfinite(v).all():
        raise ValueError(f"{name} leaves the double range")
    return v


@dataclass(frozen=True)
class CutoffChoice:
    """Quasi-optimal truncation index, rounded and clamped, and unrounded.

    Whether its bound's regime holds is bounds.l2_validity or tv_validity.
    """

    n_cut: int
    n_real: float


def _quasi_optimal_index(delta: float, size: float, log_c_mu: float, consts) -> float:
    """Unrounded index log(size A c_mu / delta) / alpha, for checked arguments.

    size is the prior's bound (E or kappa) and log_c_mu the log of its
    constant (AsymptoticConstants.log_v_mu or log_w_mu); delta and size
    are finite and > 0.  A sum of logs: the product size A c_mu / delta
    overflows or underflows at extreme finite arguments, and c_mu itself
    underflows to 0 past beta_mu = 745; the log of each factor does not.
    The quotient by alpha is +-inf where the index leaves the double
    range, as it can for an alpha near 1e-307.
    """
    return (math.log(size) + math.log(consts.A) + log_c_mu - math.log(delta)) / consts.alpha


def _cutoff(delta: float, size: float, log_c_mu: float, consts) -> CutoffChoice:
    n_real = _quasi_optimal_index(delta, size, log_c_mu, consts)
    if n_real == math.inf:
        raise ValueError(f"the quasi-optimal index at delta={delta:g} leaves the double range")
    return CutoffChoice(n_cut=int(round(max(n_real, 0.0))), n_real=n_real)


def optimal_cutoff_l2(delta: float, E: float, consts) -> CutoffChoice:
    """Cutoff round(log(E A V_mu / delta) / alpha), clamped to >= 0.

    Raises ValueError unless delta and E are finite reals > 0, and where
    the unrounded index leaves the double range.
    """
    return _cutoff(real("delta", delta, 0), real("E", E, 0), consts.log_v_mu, consts)


def optimal_cutoff_tv(delta: float, kappa: float, consts) -> CutoffChoice:
    """Cutoff round(log(kappa A W_mu / delta) / alpha), clamped to >= 0.

    The variation-prior counterpart of optimal_cutoff_l2.  Raises
    ValueError unless delta and kappa are finite reals > 0, and where the
    unrounded index leaves the double range.
    """
    return _cutoff(real("delta", delta, 0), real("kappa", kappa, 0), consts.log_w_mu, consts)


def tsvd_reconstruct(sys: SingularSystem, g: np.ndarray, n_cut: int) -> ReconstructionResult:
    """Truncated expansion sum <g, v_k>/sigma_k u_k.

    Includes every retained component above the tail (the discrete
    stand-in for the stably invertible branch, and the transition value)
    plus tail components with asymptotic index n <= n_cut; values below
    the tail are never included.  Only included coefficients are divided
    by their sigma, so a discarded value near 1e-21 cannot overflow.
    Raises ValueError unless n_cut is an integer >= 0 (a bool is not),
    and where an entry of the estimate would leave the double range.
    """
    n_cut = real("n_cut", n_cut, 0, closed=True, integer=True)
    # tail index n sits at position tail.start + n - 1; every position
    # before tail.start is kept, so the filter is 1 at sigma = 1
    keep = sys.tail.start + min(n_cut, len(sys.tail))
    ks = sys.resolved
    s = sys.sigmas[ks]
    psi = np.divide(1.0, s, out=np.zeros(ks.size), where=ks < keep)
    f = _in_range("the estimate", lambda: sys.spectral_filter(g, psi, 1.0))
    return ReconstructionResult(f=f, method="tsvd", cutoff_n=n_cut)


def tikhonov_eta(delta: float, E) -> float:
    """The Tikhonov parameter delta^2 / E^2 of noise level delta under |f| <= E.

    Raises ValueError unless delta and E are finite reals > 0 and
    delta^2 / E^2 is a positive finite double.
    """
    delta, E = real("delta", delta, 0), real("E", E, 0)
    try:
        eta = delta ** 2 / E ** 2
    except (OverflowError, ZeroDivisionError):   # a square overflows, or E^2 underflows to 0
        eta = math.nan
    if not 0.0 < eta < math.inf:
        raise ValueError(f"delta={delta:g} with E={E:g} gives the Tikhonov parameter "
                         f"delta^2/E^2 = {eta:g}, not a positive double")
    return eta


def tikhonov_reconstruct(sys: SingularSystem, g: np.ndarray, eta: float) -> ReconstructionResult:
    """Spectral-filter minimizer of |Hf - g|^2 + eta |f|^2 on the retained span.

    Raises ValueError unless eta is a finite positive real (a bool is
    not, nor an int past the double range), and where an entry of the
    estimate would leave the double range; the result records eta as a
    Python float.
    """
    eta = real("eta", eta, 0)
    s = sys.sigmas[sys.resolved]
    f = _in_range("the estimate",
                  lambda: sys.spectral_filter(g, s / (s ** 2 + eta), 1.0 / (1.0 + eta)))
    return ReconstructionResult(f=f, method="tikhonov", eta=eta)


# phantom kind -> (required, optional) parameters; the two required ones
# fix the support: (c, d) itself, or center -+ (half-)width
_PHANTOM_KINDS = {
    "bump": (("center", "width"), ("amplitude",)),
    "indicator": (("c", "d"), ()),
    "hat": (("center", "half_width"), ("peak",)),
}


def default_phantom(geom: Geometry) -> dict:
    """Phantom spec of a config that names none.

    A unit bump at (a2 + a3)/2 of half-width 0.2 (a4 - a2); on a short
    overlap its support can leave (a2, a4), which make_phantom refuses.
    """
    return {"kind": "bump", "center": 0.5 * (geom.a2 + geom.a3),
            "width": 0.2 * (geom.a4 - geom.a2), "amplitude": 1.0}


def phantom_from_spec(spec: dict | None, geom: Geometry, grid: SampledGrid) -> np.ndarray:
    """Sample a config's phantom: spec's kind and parameters, or default_phantom for None."""
    spec = default_phantom(geom) if spec is None else spec
    return make_phantom(spec["kind"], geom, grid,
                        **{k: v for k, v in spec.items() if k != "kind"})


def make_phantom(kind: str, geom: Geometry, grid: SampledGrid, /,
                 **params) -> np.ndarray:
    """Sample a test object on the object grid.

    kinds:
      bump      smooth compactly supported exp(1 - 1/(1 - t^2)) profile,
                params center, width (half-width), optional amplitude;
      indicator characteristic function of (c, d);
      hat       piecewise-linear peak, zero at center +- half_width
                (optional peak, default 1); sampled, its total variation
                is 2 max |f| <= 2 |peak|, equal only with the centre on a
                sample.
    Raises GeometryError for an unknown kind, a missing or unknown
    parameter, a parameter that is not a finite real (errors.real), or a
    support outside the open object interval (a2, a4).
    The hat and bump vanish at their support ends, so objects built from
    them vanish at a2 and a4 as the variation-based estimates require.
    """
    if not isinstance(kind, str) or kind not in _PHANTOM_KINDS:
        raise GeometryError(f"unknown phantom kind {kind!r}")
    required, optional = _PHANTOM_KINDS[kind]
    missing = [k for k in required if k not in params]
    if missing:
        raise GeometryError(f"{kind} phantom needs {missing}")
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise GeometryError(f"{kind} phantom does not use {unknown}")
    a, b = (real(k, params[k], error=GeometryError) for k in required)
    scale = (real(optional[0], params.get(optional[0], 1.0), error=GeometryError)
             if optional else 1.0)
    lo, hi = (a, b) if kind == "indicator" else (a - b, a + b)
    if not (geom.a2 < lo < hi < geom.a4):
        raise GeometryError(f"{kind} support ({lo}, {hi}) is not an interval "
                            f"inside ({geom.a2}, {geom.a4})")
    ys = grid.points
    if kind == "indicator":
        return ((ys > lo) & (ys < hi)).astype(float)
    # distance in half-widths; it overflows to inf only far outside a very
    # narrow support, where both profiles are 0
    with np.errstate(over="ignore"):
        t = np.abs(ys - a) / b
    if kind == "hat":
        return scale * np.maximum(0.0, 1.0 - t)
    out = np.zeros_like(ys)
    core = t < 1.0
    out[core] = scale * np.exp(1.0 - 1.0 / (1.0 - t[core] ** 2))
    return out


def export_reconstruction(path_csv, grid: SampledGrid, f_true: np.ndarray,
                          f_rec: np.ndarray, meta: dict) -> None:
    """Per-run CSV y,f_true,f_recon plus a JSON sidecar with the metadata."""
    write_csv(path_csv, ["y", "f_true", "f_recon"], zip(grid.points, f_true, f_rec))
    write_json(str(path_csv) + ".json", meta)
