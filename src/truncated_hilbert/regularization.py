"""Regularized inversion: truncated-SVD and Tikhonov estimates, noise, phantoms.

Both estimators expand the data in the computed singular basis.  The
truncated estimate inverts every retained non-tail component plus tail
components up to a cutoff index; the quasi-optimal cutoff for noise level
delta under the norm prior |f| <= E is

    N(delta) = round( log(E A V_mu / delta) / alpha ),

and optimal_cutoff_l2 is the one place that evaluates it: the bound
validity of bounds.l2_validity reads the same unrounded index.
The Tikhonov estimate applies the spectral filter sigma/(sigma^2 + eta),
equivalent to the normal-equations solve on the retained span; the
default parameter is eta = delta^2 / E^2.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import Geometry
from .operator import SampledGrid, weighted_norm
from .spectral import SingularSystem, tail_index_map


@dataclass(frozen=True)
class NoisyData:
    """Data vector with its exact step-weighted distance to the clean data."""

    g: np.ndarray
    delta: float
    seed: int


@dataclass(frozen=True)
class ReconstructionResult:
    """Estimated object vector plus the regularization metadata."""

    f: np.ndarray
    method: str                      # "tsvd" or "tikhonov"
    cutoff_n: int | None = None
    eta: float | None = None


def add_noise(g_ex: np.ndarray, delta: float, seed: int, step: float = 1.0) -> NoisyData:
    """Perturb g_ex by a seeded Gaussian vector rescaled to weighted norm delta."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    g_ex = np.asarray(g_ex, dtype=float)
    if delta == 0.0:
        return NoisyData(g=g_ex.copy(), delta=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g_ex.size)
    noise *= delta / weighted_norm(noise, step)
    return NoisyData(g=g_ex + noise, delta=delta, seed=seed)


@dataclass(frozen=True)
class CutoffChoice:
    """Quasi-optimal truncation index and whether the bound regime holds."""

    n_cut: int
    n_real: float
    valid: bool


def optimal_cutoff_l2(delta: float, E: float, consts) -> CutoffChoice:
    """Cutoff round(log(E A V_mu / delta) / alpha), clamped to >= 0.

    `valid` reports whether the unrounded index exceeds N_mu, i.e. whether
    the noise level is small enough for the accompanying error bound.
    """
    if delta <= 0 or E <= 0:
        raise ValueError("delta and E must be positive")
    n_real = np.log(E * consts.A * consts.v_mu / delta) / consts.alpha
    n_cut = max(0, int(round(n_real)))
    return CutoffChoice(n_cut=n_cut, n_real=float(n_real),
                        valid=bool(n_real > consts.n_mu))


def _coefficients(sys: SingularSystem, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (sys.v.shape[0],):
        raise ValueError(f"expected data vector of length {sys.v.shape[0]}, "
                         f"got shape {g.shape}")
    return sys.step * (sys.v.T @ g)


def tsvd_reconstruct(sys: SingularSystem, g: np.ndarray, n_cut: int) -> ReconstructionResult:
    """Truncated expansion sum <g, v_k>/sigma_k u_k.

    Includes every retained non-tail component (the discrete stand-in for
    the stably invertible branch) plus tail components with asymptotic
    index n <= n_cut.  Only included coefficients are divided by their
    sigma, so a discarded tail value near 1e-21 cannot overflow.
    """
    if n_cut < 0:
        raise ValueError(f"n_cut must be >= 0, got {n_cut}")
    coeffs = _coefficients(sys, g)
    include = np.ones(sys.count, dtype=bool)
    for n, k in tail_index_map(sys):
        include[k] = n <= n_cut
    weights = np.zeros(sys.count)
    weights[include] = coeffs[include] / sys.sigmas[include]
    f = sys.u @ weights
    return ReconstructionResult(f=f, method="tsvd", cutoff_n=n_cut)


def tikhonov_reconstruct(sys: SingularSystem, g: np.ndarray, eta: float) -> ReconstructionResult:
    """Spectral-filter minimizer of |Hf - g|^2 + eta |f|^2 on the retained span."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    coeffs = _coefficients(sys, g)
    weights = coeffs * sys.sigmas / (sys.sigmas ** 2 + eta)
    f = sys.u @ weights
    return ReconstructionResult(f=f, method="tikhonov", eta=eta)


def phantom_support(kind: str, geom: Geometry, params: dict):
    """Support (lo, hi) of a phantom; GeometryError unless a2 < lo < hi < a4."""
    if kind == "indicator":
        lo, hi = float(params["c"]), float(params["d"])
    elif kind in ("bump", "hat"):
        c = float(params["center"])
        w = float(params["width" if kind == "bump" else "half_width"])
        lo, hi = c - w, c + w
    else:
        raise GeometryError(f"unknown phantom kind {kind!r}")
    if not (geom.a2 < lo < hi < geom.a4):
        raise GeometryError(f"{kind} support ({lo}, {hi}) is not an interval "
                            f"inside ({geom.a2}, {geom.a4})")
    return lo, hi


def make_phantom(kind: str, geom: Geometry, grid: SampledGrid, **params) -> np.ndarray:
    """Sample a test object on the object grid.

    kinds:
      bump      smooth compactly supported exp(1 - 1/(1 - t^2)) profile,
                params center, width (half-width), amplitude;
      indicator characteristic function of (c, d);
      hat       piecewise-linear peak, zero at center +- half_width, with
                total variation exactly 2*peak.
    Support must lie inside the open object interval (a2, a4)
    (phantom_support); the hat and bump vanish at their support ends, so
    objects built from them vanish at a2 and a4 as the variation-based
    estimates require.
    """
    lo, hi = phantom_support(kind, geom, params)
    ys = grid.points
    if kind == "bump":
        c = float(params["center"])
        w = float(params["width"])
        amp = float(params.get("amplitude", 1.0))
        t = (ys - c) / w
        out = np.zeros_like(ys)
        core = np.abs(t) < 1.0
        out[core] = amp * np.exp(1.0 - 1.0 / (1.0 - t[core] ** 2))
        return out
    if kind == "indicator":
        return ((ys > lo) & (ys < hi)).astype(float)
    c = float(params["center"])
    hw = float(params["half_width"])
    peak = float(params.get("peak", 1.0))
    return np.maximum(0.0, peak * (1.0 - np.abs(ys - c) / hw))


def export_reconstruction(path_csv, grid: SampledGrid, f_true: np.ndarray,
                          f_rec: np.ndarray, meta: dict) -> None:
    """Per-run CSV y,f_true,f_recon plus a JSON sidecar with the metadata."""
    ys = grid.points
    with open(path_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "f_true", "f_recon"])
        for yv, tv, rv in zip(ys, f_true, f_rec):
            w.writerow([f"{yv:.17e}", f"{tv:.17e}", f"{rv:.17e}"])
    sidecar = str(path_csv) + ".json"
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
