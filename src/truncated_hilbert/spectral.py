"""Singular system of the discrete operator: conventions, fits, ROI norms.

Conventions fixed here:

* singular values are ordered descending and truncated at rank_tol times
  the largest one;
* singular vectors are unit in the step-weighted norm, with the sign of
  each object-side vector set so that its first sample strictly inside
  (a2, a3) is positive (the data-side partner flips along with it);
* the asymptotic tail is the last min(DEFAULT_TAIL_LEN, count) retained
  triples, decided by tail_index_map alone; its index n = 1, 2, ...
  counts from the largest of them toward the smallest value;
* the accumulation branch near one is indexed |n| = 1, 2, ... away from
  the transition value that separates the two branches.
"""

from dataclasses import dataclass, field

import numpy as np

from .cauchy_svd import accurate_cauchy_svd
from .errors import SpectralError
from .geometry import Geometry, check_roi
from .operator import DiscreteOperator, SampledGrid, kernel_rows, weighted_norm
from .report import write_csv

DEFAULT_TAIL_LEN = 9
# points of the near-one fit, counted down from its anchor
_NEAR_ONE_LEN = 5
# rank_tol = None: the default truncation, relative to sigma_max, per method
_DEFAULT_RANK_TOL = {"cauchy": 1e-21, "lapack": 1e-13}
# the reconstruction check holds about 2/_CHECK_BLOCKS of an m x n matrix
_CHECK_BLOCKS = 16
# components below this fraction of a vector's peak cannot survive a
# double-precision orthogonal assembly and are excluded from shape checks
MONOTONE_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class SingularSystem:
    """Retained singular triples (sigma_k, u_k, v_k), sigma descending.

    u columns live on the object grid, v columns on the data grid; both
    are orthonormal under the step-weighted inner product.  A system
    built by apply_conventions owns its sigmas, u and v and marks them
    read-only, so the projection `coefficients` remembers cannot go stale.
    """

    sigmas: np.ndarray
    u: np.ndarray           # (n_object, count)
    v: np.ndarray           # (n_data, count)
    object_grid: SampledGrid
    data_grid: SampledGrid
    step: float
    geom: Geometry
    # (bytes of the last data vector, its coefficients) in one slot, so a
    # reader never pairs one vector's key with another's coefficients
    _projection: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def count(self) -> int:
        return int(self.sigmas.size)

    def coefficients(self, g) -> np.ndarray:
        """Read-only expansion coefficients step * (v.T @ g) of a data vector.

        The last vector's coefficients are remembered, keyed by its bytes,
        so estimators applied to one data vector project it once; a vector
        changed in place is projected again.  Raises ValueError unless g
        holds one value per data sample.
        """
        g = np.asarray(g, dtype=float)
        if g.shape != (self.v.shape[0],):
            raise ValueError(f"expected data vector of length {self.v.shape[0]}, "
                             f"got shape {g.shape}")
        key = g.tobytes()
        last = self._projection
        if last is not None and last[0] == key:
            return last[1]
        coeffs = self.step * (self.v.T @ g)
        coeffs.flags.writeable = False
        object.__setattr__(self, "_projection", (key, coeffs))
        return coeffs

    def triple(self, k: int):
        return float(self.sigmas[k]), self.u[:, k], self.v[:, k]


@dataclass(frozen=True)
class TailFit:
    """Least-squares exponential fit y ~ amplitude * exp(-rate * n)."""

    amplitude: float
    rate: float
    residual: float


def compute_svd(op: DiscreteOperator, rank_tol: float | None = None,
                method: str = "cauchy") -> SingularSystem:
    """Decompose the operator and enforce the package conventions.

    rank_tol is relative to the largest singular value.  method "cauchy"
    uses the structured high relative-accuracy solver (default; resolves
    the exponential tail far below the conventional double-precision
    floor), "lapack" the standard dense SVD for cross-validation.  This is
    raw_svd followed by apply_conventions.
    """
    return apply_conventions(op, raw_svd(op, rank_tol, method), rank_tol, method)


def _resolve_rank_tol(rank_tol: float | None, method: str) -> float:
    """The truncation threshold relative to sigma_max that method applies.

    Raises SpectralError unless rank_tol is None or positive and method
    is "cauchy" or "lapack".
    """
    if rank_tol is not None and not rank_tol > 0:
        raise SpectralError(f"rank_tol must be positive, got {rank_tol}")
    if not isinstance(method, str) or method not in _DEFAULT_RANK_TOL:
        raise SpectralError(f"unknown SVD method {method!r}")
    return _DEFAULT_RANK_TOL[method] if rank_tol is None else rank_tol


def raw_svd(op: DiscreteOperator, rank_tol: float | None = None,
            method: str = "cauchy"):
    """Untruncated factorization (data_vectors, sigmas, object_vectors).

    The columns are Euclidean-orthonormal and sigmas descend; nothing of
    the package conventions is applied yet.  The structured solver stops
    its elimination at a pivot floor set by rank_tol, so the factors
    depend on it as well as on the operator and the method.
    """
    tol = _resolve_rank_tol(rank_tol, method)
    if method == "cauchy":
        return accurate_cauchy_svd(op.data_grid.points, op.object_grid.points,
                                   op.step / np.pi, floor_rel=min(1e-28, tol * 1e-7))
    v_all, s_all, ut = np.linalg.svd(op.matrix, full_matrices=False)
    return v_all, s_all, ut.T


def apply_conventions(op: DiscreteOperator, factors, rank_tol: float | None = None,
                      method: str = "cauchy") -> SingularSystem:
    """Singular system of op from a raw_svd factorization of its matrix.

    Raises SpectralError unless the factors reconstruct the matrix to a
    Frobenius error of at most 1e-10 times its norm; then truncates at
    rank_tol, normalizes in the step-weighted norm and fixes the signs.
    """
    tol = _resolve_rank_tol(rank_tol, method)
    v_all, s_all, u_all = factors

    # reconstruction sanity on the resolvable part of the matrix; squared
    # norms accumulate over row blocks of kernel and product, so neither
    # the matrix nor an m x n product is ever formed
    x, y = op.data_grid.points, op.object_grid.points
    rows = -(-x.size // _CHECK_BLOCKS)
    err2 = norm2 = 0.0
    for i in range(0, x.size, rows):
        kern = kernel_rows(x[i:i + rows], y, op.step).ravel()
        resid = ((v_all[i:i + rows] * s_all[None, :]) @ u_all.T).ravel()
        np.subtract(kern, resid, out=resid)
        err2 += resid @ resid
        norm2 += kern @ kern
    err, norm = np.sqrt(err2), np.sqrt(norm2)
    if not err <= 1e-10 * norm:
        raise SpectralError(f"SVD reconstruction error {err:.2e} too large "
                            f"for a matrix of norm {norm:.2e}")

    # compress copies once and, unlike a [:, keep] index, keeps C order
    keep = s_all > tol * s_all[0]
    s = s_all[keep]
    u = u_all.compress(keep, axis=1)
    v = v_all.compress(keep, axis=1)

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

    for arr in (s, u, v):
        arr.flags.writeable = False
    return SingularSystem(sigmas=s, u=u, v=v, object_grid=op.object_grid,
                          data_grid=op.data_grid, step=op.step, geom=op.geom)


def tail_index_map(sys: SingularSystem, tail_len: int | None = None):
    """Pairs (n, k): asymptotic index n = 1..tail_len onto the last triples.

    n = 1 is the tail_len-th smallest retained value, n = tail_len the
    smallest, so the map is strictly order-reversing in sigma.  tail_len
    None is the asymptotic tail every fit, constant and cutoff reads:
    the last min(DEFAULT_TAIL_LEN, count) triples.
    """
    if tail_len is None:
        tail_len = min(DEFAULT_TAIL_LEN, sys.count)
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
                   residual=float(np.sqrt(np.mean(resid ** 2))))


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
    return weighted_norm(sys.u[mask, triple_index], sys.step)


def fit_tail_decay(sys: SingularSystem, tail_len: int | None = None) -> TailFit:
    """Exponential fit of the last tail_len singular values (default: the tail) against n."""
    pairs = tail_index_map(sys, tail_len)
    return fit_exponential((n, sys.sigmas[k]) for n, k in pairs)


def fit_roi_decay(sys: SingularSystem, mu) -> TailFit:
    """Exponential rate of the ROI-restricted norms over the tail.

    The model for these norms is exp(-rate*n)/sqrt(n*pi); the algebraic
    prefactor is divided out before fitting so the returned rate is the
    pure exponential decay, directly comparable to the geometric constant
    beta_mu.
    """
    pairs = tail_index_map(sys)
    pts = [(n, roi_norm(sys, k, mu) * np.sqrt(n * np.pi)) for n, k in pairs]
    return fit_exponential(pts)


def near_one_tail_fit(sys: SingularSystem) -> TailFit:
    """Fit 1 - sigma ~ amplitude * exp(-rate * |n|) on the near-one branch.

    The fit runs over |n| = 1..5.  |n| = 1 is anchored two places above
    the start of the tail (descending-order position): the value just
    above the single transition value that separates the branch
    accumulating at one from the exponentially decaying tail.  Systems
    too small to contain both branches anchor at the smallest value
    instead.
    """
    n1_index = tail_index_map(sys)[0][1] - 2
    if n1_index - _NEAR_ONE_LEN + 1 < 0:
        n1_index = sys.count - 1
    if not (_NEAR_ONE_LEN - 1 <= n1_index < sys.count):
        raise SpectralError(f"head window [{n1_index - _NEAR_ONE_LEN + 1}, {n1_index}] "
                            f"outside spectrum of {sys.count} values")
    pts = []
    for k in range(1, _NEAR_ONE_LEN + 1):
        sigma = sys.sigmas[n1_index - (k - 1)]
        if sigma >= 1.0:
            raise SpectralError(f"sigma={sigma} >= 1 in near-one head; "
                                "value too close to the accumulation point")
        pts.append((k, 1.0 - sigma))
    return fit_exponential(pts)


def check_monotone(sys: SingularSystem, triple_index: int) -> bool:
    """True iff u is strictly increasing on the object points in (a2, a3).

    The vector is sign-normalized so its largest-magnitude sample inside
    the interval is positive (for a genuinely increasing vector this is
    the same as requiring the value just above a2 to be positive, but it
    stays well defined when the left end sits at rounding-noise level).
    Samples below MONOTONE_NOISE_FLOOR times the vector's peak are
    excluded: their information content is below what any
    double-precision orthogonal assembly can represent, so strict
    comparisons there would measure rounding noise rather than shape.
    """
    ys = sys.object_grid.points
    inside = (ys > sys.geom.a2) & (ys < sys.geom.a3)
    seg = sys.u[inside, triple_index]
    if seg.size < 2:
        return False
    if seg[np.abs(seg).argmax()] < 0:
        seg = -seg
    seg = seg[np.abs(seg) >= MONOTONE_NOISE_FLOOR * np.abs(seg).max()]
    if seg.size < 2:
        return False
    return bool(np.all(np.diff(seg) > 0))


def sigma_counts(sys: SingularSystem):
    """Numbers of retained singular values below 0.97 and below 0.01."""
    return tuple(int((sys.sigmas < t).sum()) for t in (0.97, 0.01))


def export_spectrum_csv(sys: SingularSystem, path, mu_list) -> None:
    """Spectrum report: one row per retained triple, ROI norms per mu."""
    n_of = {k: n for n, k in tail_index_map(sys)} if sys.count else {}
    mus = [float(m) for m in mu_list]
    masks = [roi_mask(sys.geom, sys.object_grid, m) for m in mus]
    write_csv(path, ["n_discrete", "n_asymptotic", "sigma"]
              + [f"roi_norm_mu{m:g}" for m in mus],
              [[k + 1, n_of.get(k), sys.sigmas[k]]
               + [weighted_norm(sys.u[mask, k], sys.step) for mask in masks]
               for k in range(sys.count)])
