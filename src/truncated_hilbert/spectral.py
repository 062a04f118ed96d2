"""Singular system of the discrete operator: conventions, fits, ROI norms.

Conventions fixed here:

* singular values are ordered descending and truncated at rank_tol times
  the largest one;
* singular vectors are unit in the step-weighted norm, with the sign of
  each object-side vector set so that its first sample strictly inside
  (a2, a3) is positive (the data-side partner flips along with it);
* the asymptotic tail index n = 1, 2, ... counts from the tail_len-th
  smallest retained value toward the smallest, mirroring the convention
  used for the decay-law fits;
* the accumulation branch near one is indexed |n| = 1, 2, ... away from
  the transition value that separates the two branches.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .cauchy_svd import accurate_cauchy_svd
from .errors import SpectralError
from .geometry import Geometry, check_roi
from .operator import DiscreteOperator, SampledGrid

DEFAULT_TAIL_LEN = 9
# components below this fraction of a vector's peak cannot survive a
# double-precision orthogonal assembly and are excluded from shape checks
MONOTONE_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class SingularSystem:
    """Retained singular triples (sigma_k, u_k, v_k), sigma descending.

    u columns live on the object grid, v columns on the data grid; both
    are orthonormal under the step-weighted inner product.
    """

    sigmas: np.ndarray
    u: np.ndarray           # (n_object, count)
    v: np.ndarray           # (n_data, count)
    object_grid: SampledGrid
    data_grid: SampledGrid
    step: float
    geom: Geometry

    @property
    def count(self) -> int:
        return int(self.sigmas.size)

    def triple(self, k: int):
        return float(self.sigmas[k]), self.u[:, k], self.v[:, k]


@dataclass(frozen=True)
class TailFit:
    """Least-squares exponential fit y ~ amplitude * exp(-rate * n)."""

    amplitude: float
    rate: float
    residual: float
    index_anchor: int


def compute_svd(op: DiscreteOperator, rank_tol: float | None = None,
                method: str = "cauchy") -> SingularSystem:
    """Decompose the operator and enforce the package conventions.

    rank_tol is relative to the largest singular value.  method "cauchy"
    uses the structured high relative-accuracy solver (default; resolves
    the exponential tail far below the conventional double-precision
    floor), "lapack" the standard dense SVD for cross-validation.
    """
    if rank_tol is not None and rank_tol < 0:
        raise SpectralError(f"rank_tol must be nonnegative, got {rank_tol}")
    empty = SingularSystem(sigmas=np.zeros(0), u=np.zeros((op.matrix.shape[1], 0)),
                           v=np.zeros((op.matrix.shape[0], 0)),
                           object_grid=op.object_grid, data_grid=op.data_grid,
                           step=op.step, geom=op.geom)
    if not np.any(op.matrix):
        return empty
    if method == "cauchy":
        tol = 1e-21 if rank_tol is None else rank_tol
        xs = op.data_grid.points
        ys = op.object_grid.points
        floor_rel = min(1e-28, tol * 1e-7) if tol > 0 else 1e-30
        v_all, s_all, u_all = accurate_cauchy_svd(xs, ys, op.step / np.pi,
                                                  floor_rel=floor_rel)
    elif method == "lapack":
        tol = 1e-13 if rank_tol is None else rank_tol
        v_all, s_all, ut = np.linalg.svd(op.matrix, full_matrices=False)
        u_all = ut.T
    else:
        raise SpectralError(f"unknown SVD method {method!r}")

    if s_all.size == 0 or s_all[0] == 0.0:
        return empty

    keep = s_all > tol * s_all[0]
    s = s_all[keep].copy()
    u = u_all[:, keep].copy()
    v = v_all[:, keep].copy()

    # reconstruction sanity on the resolvable part of the matrix
    recon = (v_all * s_all[None, :]) @ u_all.T
    rel_err = np.linalg.norm(op.matrix - recon) / np.linalg.norm(op.matrix)
    if not rel_err < 1e-10:
        raise SpectralError(f"SVD reconstruction error {rel_err:.2e} too large")

    # weighted normalization: euclidean-unit columns scaled by 1/sqrt(step)
    scale = 1.0 / np.sqrt(op.step)
    u *= scale
    v *= scale

    # sign convention from the first object sample strictly inside (a2, a3)
    ys = op.object_grid.points
    inside = (ys > op.geom.a2) & (ys < op.geom.a3)
    if inside.any():
        first = int(np.argmax(inside))
        signs = np.sign(u[first, :])
        signs[signs == 0.0] = 1.0
        u *= signs[None, :]
        v *= signs[None, :]

    return SingularSystem(sigmas=s, u=u, v=v, object_grid=op.object_grid,
                          data_grid=op.data_grid, step=op.step, geom=op.geom)


def tail_index_map(sys: SingularSystem, tail_len: int):
    """Pairs (n, k): asymptotic index n = 1..tail_len onto the last triples.

    n = 1 is the tail_len-th smallest retained value, n = tail_len the
    smallest, so the map is strictly order-reversing in sigma.
    """
    if tail_len < 1 or tail_len > sys.count:
        raise SpectralError(f"tail_len={tail_len} outside 1..{sys.count}")
    start = sys.count - tail_len
    return [(n, start + n - 1) for n in range(1, tail_len + 1)]


def fit_exponential(points) -> TailFit:
    """Least squares of log y against n for points (n, y) with y > 0."""
    pts = [(int(n), float(y)) for n, y in points]
    if len(pts) < 2:
        raise SpectralError("need at least two points for an exponential fit")
    if any(y <= 0 for _, y in pts):
        raise SpectralError("exponential fit requires strictly positive values")
    ns = np.array([n for n, _ in pts], dtype=float)
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(ns, ly, 1)
    resid = ly - (slope * ns + intercept)
    return TailFit(amplitude=float(np.exp(intercept)), rate=float(-slope),
                   residual=float(np.sqrt(np.mean(resid ** 2))),
                   index_anchor=int(ns.min()))


def roi_mask(geom: Geometry, grid: SampledGrid, mu) -> np.ndarray:
    """Boolean mask of object points strictly inside (a2, a3 - mu)."""
    m = check_roi(geom, mu)
    ys = grid.points
    return (ys > geom.a2) & (ys < geom.a3 - m)


def roi_norm(sys: SingularSystem, triple_index: int, mu) -> float:
    """Step-weighted norm of u_k restricted to the region of interest."""
    mask = roi_mask(sys.geom, sys.object_grid, mu)
    if not mask.any():
        raise SpectralError("region of interest contains no object grid points")
    seg = sys.u[mask, triple_index]
    return float(np.sqrt(sys.step) * np.linalg.norm(seg))


def fit_tail_decay(sys: SingularSystem, tail_len: int = DEFAULT_TAIL_LEN) -> TailFit:
    """Exponential fit of the last tail_len singular values against n."""
    pairs = tail_index_map(sys, tail_len)
    return fit_exponential((n, sys.sigmas[k]) for n, k in pairs)


def fit_roi_decay(sys: SingularSystem, mu, tail_len: int = DEFAULT_TAIL_LEN) -> TailFit:
    """Exponential rate of the ROI-restricted norms over the tail.

    The model for these norms is exp(-rate*n)/sqrt(n*pi); the algebraic
    prefactor is divided out before fitting so the returned rate is the
    pure exponential decay, directly comparable to the geometric constant
    beta_mu.
    """
    pairs = tail_index_map(sys, tail_len)
    pts = [(n, roi_norm(sys, k, mu) * np.sqrt(n * np.pi)) for n, k in pairs]
    return fit_exponential(pts)


def near_one_tail_fit(sys: SingularSystem, head_len: int,
                      n1_index: int | None = None) -> TailFit:
    """Fit 1 - sigma ~ amplitude * exp(-rate * |n|) on the near-one branch.

    |n| = 1 is anchored at n1_index (descending-order position).  By
    default that is count - tail_len - 2: the value just above the single
    transition value that separates the branch accumulating at one from
    the exponentially decaying tail.  Systems too small to contain both
    branches anchor at the smallest value instead.
    """
    if head_len < 2:
        raise SpectralError("head_len must be at least 2")
    if n1_index is None:
        n1_index = sys.count - DEFAULT_TAIL_LEN - 2
        if n1_index - head_len + 1 < 0:
            n1_index = sys.count - 1
    if not (head_len - 1 <= n1_index < sys.count):
        raise SpectralError(f"head window [{n1_index - head_len + 1}, {n1_index}] "
                            f"outside spectrum of {sys.count} values")
    pts = []
    for k in range(1, head_len + 1):
        sigma = sys.sigmas[n1_index - (k - 1)]
        if sigma >= 1.0:
            raise SpectralError(f"sigma={sigma} >= 1 in near-one head; "
                                "value too close to the accumulation point")
        pts.append((k, 1.0 - sigma))
    return fit_exponential(pts)


def check_monotone(sys: SingularSystem, triple_index: int,
                   noise_floor: float = MONOTONE_NOISE_FLOOR) -> bool:
    """True iff u is strictly increasing on the object points in (a2, a3).

    The vector is sign-normalized so its largest-magnitude sample inside
    the interval is positive (for a genuinely increasing vector this is
    the same as requiring the value just above a2 to be positive, but it
    stays well defined when the left end sits at rounding-noise level).
    Samples below noise_floor times the vector's peak are excluded: their
    information content is below what any double-precision orthogonal
    assembly can represent, so strict comparisons there would measure
    rounding noise rather than shape.  Pass noise_floor=0 for the literal
    check over every sample.
    """
    ys = sys.object_grid.points
    inside = (ys > sys.geom.a2) & (ys < sys.geom.a3)
    seg = sys.u[inside, triple_index]
    if seg.size < 2:
        return False
    if seg[np.abs(seg).argmax()] < 0:
        seg = -seg
    if noise_floor > 0:
        seg = seg[np.abs(seg) >= noise_floor * np.abs(seg).max()]
        if seg.size < 2:
            return False
    return bool(np.all(np.diff(seg) > 0))


def sigma_counts(sys: SingularSystem, thresholds=(0.97, 0.01)):
    """Number of retained singular values below each threshold."""
    return tuple(int((sys.sigmas < t).sum()) for t in thresholds)


def export_spectrum_csv(sys: SingularSystem, path, mu_list,
                        tail_len: int = DEFAULT_TAIL_LEN) -> None:
    """Spectrum report: one row per retained triple, ROI norms per mu."""
    tail_len = min(tail_len, sys.count)
    n_of = {k: n for n, k in tail_index_map(sys, tail_len)} if tail_len >= 1 else {}
    mus = [float(m) for m in mu_list]
    masks = [roi_mask(sys.geom, sys.object_grid, m) for m in mus]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_discrete", "n_asymptotic", "sigma"]
                   + [f"roi_norm_mu{m:g}" for m in mus])
        for k in range(sys.count):
            row = [str(k + 1), str(n_of.get(k, "")), f"{sys.sigmas[k]:.17e}"]
            for mask in masks:
                norm = np.sqrt(sys.step) * np.linalg.norm(sys.u[mask, k])
                row.append(f"{norm:.17e}")
            w.writerow(row)
