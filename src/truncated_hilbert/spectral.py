"""Singular system of the discrete operator: conventions, fits, ROI norms.

compute_svd is the one decomposition path; SingularSystem.of is the one
check, run on every system a caller can hold, solved or loaded from a
cache: the weighted triples must reconstruct the operator's matrix.  The
conventions compute_svd fixes:

* singular values are ordered descending and truncated at rank_tol times
  the largest one;
* singular vectors are unit in the step-weighted norm, with the sign of
  each object-side vector set so that its first sample strictly inside
  (a2, a3) is positive (the data-side partner flips along with it);
* the transition value, at argmax min(sigma, 1 - sigma), separates the
  branch accumulating at one from the exponentially decaying branch;
* the asymptotic tail is SingularSystem.tail, the positions of the
  first min(DEFAULT_TAIL_LEN, values below it) values below the
  transition; its index n = position - tail.start + 1 counts from the
  transition toward the smallest value.  Every fit, constant, cutoff
  and report reads that range; a fit given an explicit tail_len reads
  the last tail_len values instead, whatever the transition;
* the accumulation branch near one is indexed |n| = 1, 2, ... upward
  from the transition value.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cauchy_svd import accurate_cauchy_svd
from .errors import SpectralError, real
from .geometry import Geometry, check_roi
from .operator import (DiscreteOperator, SampledGrid, apply_adjoint, kernel_rows,
                       weighted_norm)
from .report import mu_label, write_csv

DEFAULT_TAIL_LEN = 9
# points of the near-one fit, counted down from its anchor
_NEAR_ONE_LEN = 5
# rank_tol = None: the default truncation, relative to sigma_max, per method
_DEFAULT_RANK_TOL = {"cauchy": 1e-21, "lapack": 1e-13}
# the reconstruction check holds about 2/_CHECK_BLOCKS of an m x n matrix,
# but each row block at least _CHECK_MIN_ENTRIES kernel entries: on a small
# system the per-block numpy calls, not the arithmetic, set its cost.  The
# floor leaves the paper grid at 85 rows a block and the paper geometry at
# step 3 at 29, so their memory does not move; a system with sides 10-140
# is checked in 1-5 blocks instead of 16.
_CHECK_BLOCKS = 16
_CHECK_MIN_ENTRIES = 4096
# components below this fraction of a vector's peak cannot survive a
# double-precision orthogonal assembly and are excluded from shape checks
MONOTONE_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class SingularSystem:
    """Retained singular triples (sigma_k, u_k, v_k) of op, sigma descending.

    u columns live on the object grid, v columns on the data grid; both
    are orthonormal under the step-weighted inner product.  residual is
    the Frobenius error of the reconstruction check, in the units of
    sigma.  A system built by `of` has passed its check, owns its sigmas,
    u and v and marks them read-only, so what `spectral_filter`
    remembers cannot go stale.
    """

    sigmas: np.ndarray
    u: np.ndarray           # (n_object, count)
    v: np.ndarray           # (n_data, count)
    op: DiscreteOperator
    residual: float
    # (bytes of the last data vector, its adjoint H^T g, its coefficients
    # on the resolved triples), replaced whole, so a reader never pairs
    # one vector's key with another vector's products
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, op: DiscreteOperator, sigmas, u, v) -> "SingularSystem":
        """The system of op that takes over sigmas, u and v, made read-only.

        Raises SpectralError unless u is (n_object, k) and v is (n_data, k)
        for k = sigmas.size, and (v, sigmas * step, u) passes
        check_reconstruction, whose residual the system keeps.
        """
        m, n = op.shape
        if u.shape != (n, sigmas.size) or v.shape != (m, sigmas.size):
            raise SpectralError(f"{sigmas.size} values with u {u.shape} and "
                                f"v {v.shape} do not fit a {m} x {n} operator")
        residual = check_reconstruction(op, v, sigmas * op.step, u)
        for arr in (sigmas, u, v):
            arr.flags.writeable = False
        return cls(sigmas=sigmas, u=u, v=v, op=op, residual=residual)

    @property
    def object_grid(self) -> SampledGrid:
        return self.op.object_grid

    @property
    def step(self) -> float:
        return self.op.step

    @property
    def geom(self) -> Geometry:
        return self.op.geom

    @property
    def count(self) -> int:
        return int(self.sigmas.size)

    @cached_property
    def tail(self) -> range:
        """Positions of the asymptotic tail; its index is n = position - tail.start + 1.

        The transition value, at t = argmax min(sigma, 1 - sigma), separates
        the branch accumulating at one from the decaying branch; the tail
        is the first min(DEFAULT_TAIL_LEN, count - t - 1) values below it.
        """
        s = self.sigmas
        t = int(np.argmax(np.minimum(s, 1.0 - s)))
        return range(t + 1, t + 1 + min(DEFAULT_TAIL_LEN, self.count - t - 1))

    @cached_property
    def resolved(self) -> np.ndarray:
        """Positions S of the triples the system resolves from 1, ascending.

        The others, C, sit before the tail with |1 - sigma| <= residual:
        the reconstruction check cannot tell their values from 1.  Every
        TSVD cutoff keeps all of C.  Read-only.
        """
        k = np.arange(self.count)
        s = np.flatnonzero((k >= self.tail.start)
                           | (np.abs(1.0 - self.sigmas) > self.residual))
        s.flags.writeable = False
        return s

    @cached_property
    def _resolved_factors(self) -> tuple:
        """C-contiguous copies u[:, S] and, in np.longdouble, v[:, S].T."""
        return (self.u.take(self.resolved, axis=1),
                self.v.T[self.resolved].astype(np.longdouble))

    def spectral_filter(self, g, psi, at_one: float) -> np.ndarray:
        """Estimate sum_k psi_k c_k u_k of a data vector g, c = step * (v.T @ g).

        psi holds the filter on the resolved triples, in the order of
        `resolved`, and at_one is its value a at sigma = 1.  The estimate
        is a H^T g + u_S ((psi - a sigma_S) c_S), with H^T g from
        apply_adjoint, so it reads the filter as a sigma_k on C.  Against
        the dense sum over every retained triple it differs by three
        things: at most 2 residual |g|_w on C, for a filter within
        2 |1 - sigma| of a sigma there, as both estimators' filters are;
        at most residual |g|_w through the directions below rank_tol,
        which H^T g holds and the residual contains; and rounding.  c_S
        accumulates in np.longdouble: a tail coefficient is a sum far
        smaller than its terms, and 1/sigma amplifies its rounding.
        H^T g and c_S of the last data vector are remembered, keyed by
        its bytes, so estimates of one vector apply the adjoint once.
        Raises ValueError unless g holds one value per data sample.
        """
        g = _data_vector(g, self.v.shape[0])
        key = g.tobytes()
        if self._memo is None or self._memo[0] != key:
            coeffs = self.step * np.dot(self._resolved_factors[1], g.astype(np.longdouble))
            object.__setattr__(self, "_memo", (key, apply_adjoint(self.op, g),
                                               coeffs.astype(float)))
        _, adjoint, coeffs = self._memo
        w = (psi - at_one * self.sigmas[self.resolved]) * coeffs
        return at_one * adjoint + self._resolved_factors[0] @ w


def _data_vector(g, size: int) -> np.ndarray:
    """g as a float vector; ValueError unless it holds size values."""
    g = np.asarray(g, dtype=float)
    if g.shape != (size,):
        raise ValueError(f"expected data vector of length {size}, got shape {g.shape}")
    return g


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
    floor), "lapack" the standard dense SVD for cross-validation.  The
    factors are truncated at rank_tol, normalized in the step-weighted
    norm and sign-fixed, and the result is checked by SingularSystem.of.
    Raises SpectralError unless rank_tol is None or positive and method
    is "cauchy" or "lapack", or when the returned system fails the check,
    as a truncation coarse enough for the check to see does.
    """
    if rank_tol is not None:
        rank_tol = real("rank_tol", rank_tol, 0, error=SpectralError)
    if not isinstance(method, str) or method not in _DEFAULT_RANK_TOL:
        raise SpectralError(f"unknown SVD method {method!r}")
    tol = _DEFAULT_RANK_TOL[method] if rank_tol is None else rank_tol
    if method == "cauchy":
        # the elimination stops at a pivot floor set by the truncation, and
        # the solver writes only the retained columns back to grid order
        v, s, u = accurate_cauchy_svd(*op.nodes, 1 / np.pi, rank_tol=tol)
    else:
        v_all, s_all, u_all = np.linalg.svd(op.matrix, full_matrices=False)
        # compress copies once and, unlike a [:, keep] index, keeps C order
        keep = s_all > tol * s_all[0]
        s = s_all[keep]
        u = u_all.T.compress(keep, axis=1)
        v = v_all.compress(keep, axis=1)
        # the check in `of` then runs beside the retained factors alone
        del s_all, u_all, v_all

    # weighted normalization: euclidean-unit columns scaled by 1/sqrt(step)
    scale = 1.0 / np.sqrt(op.step)
    u *= scale
    v *= scale

    # sign convention from the first object sample strictly inside (a2, a3):
    # the object grid starts less than a step below a2
    y0 = op.object_grid.start
    first = int(not y0 > op.geom.a2)
    if first < op.shape[1] and y0 + first * op.step < op.geom.a3:
        signs = np.sign(u[first, :])
        signs[signs == 0.0] = 1.0
        u *= signs[None, :]
        v *= signs[None, :]
    return SingularSystem.of(op, s, u, v)


def check_reconstruction(op: DiscreteOperator, v, s, u) -> float:
    """The Frobenius error of v diag(s) u^T against op's matrix.

    Raises SpectralError unless it is at most 1e-10 times the matrix norm.
    Squared norms accumulate over row blocks of kernel and product, so
    neither the matrix nor an m x n product is ever formed.  The kernel
    rows are formed on op.nodes, in step units, as op.matrix is.  A system
    of op is checked as (v, sigmas * step, u): its weighted vectors
    reconstruct the matrix divided by step, as SingularSystem.of checks it.
    """
    x, y = op.nodes
    rows = max(-(-x.size // _CHECK_BLOCKS), -(-_CHECK_MIN_ENTRIES // y.size))
    err2 = norm2 = 0.0
    for i in range(0, x.size, rows):
        kern = kernel_rows(x[i:i + rows], y).ravel()
        resid = ((v[i:i + rows] * s[None, :]) @ u.T).ravel()
        np.subtract(kern, resid, out=resid)
        err2 += resid @ resid
        norm2 += kern @ kern
    err, norm = np.sqrt(err2), np.sqrt(norm2)
    if not err <= 1e-10 * norm:
        raise SpectralError(f"SVD reconstruction error {err:.2e} too large "
                            f"for a matrix of norm {norm:.2e}")
    return float(err)


def tail_index_map(sys: SingularSystem, tail_len: int):
    """Pairs (n, k): index n = 1..tail_len onto the last tail_len triples.

    n = 1 is the tail_len-th smallest retained value, n = tail_len the
    smallest, so the map is strictly order-reversing in sigma.  This is
    the explicit-length view; the asymptotic tail is SingularSystem.tail.
    """
    tail_len = real("tail_len", tail_len, 1, sys.count + 1, closed=True, integer=True,
                    error=SpectralError)
    start = sys.count - tail_len
    return [(n, start + n - 1) for n in range(1, tail_len + 1)]


def fit_exponential(points) -> TailFit:
    """Least squares of log y against n for points (n, y) with y > 0.

    SpectralError unless every n is an integer below 2^26 in magnitude
    (so n^2 is exact and the fit well posed), every y a finite real > 0,
    and the points hold two distinct n, or if the amplitude, the model
    at n = 0, leaves the double range.
    """
    pts = [(real("n", n, -2 ** 26, 2 ** 26, integer=True, error=SpectralError),
            real("y", y, 0, error=SpectralError)) for n, y in points]
    if len({n for n, _ in pts}) < 2:
        raise SpectralError("need points at two distinct n for an exponential fit")
    ns = np.array([n for n, _ in pts], dtype=float)
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(ns, ly, 1)
    resid = ly - (slope * ns + intercept)
    with np.errstate(over="ignore"):
        amplitude = float(np.exp(intercept))
    if amplitude == np.inf:
        raise SpectralError(f"fitted amplitude e^{intercept:.6g} leaves the double range")
    return TailFit(amplitude=amplitude, rate=float(-slope),
                   residual=float(np.sqrt(np.mean(resid ** 2))))


def roi_mask(geom: Geometry, grid: SampledGrid, mu) -> np.ndarray:
    """Boolean mask of object points strictly inside (a2, a3 - mu)."""
    m = check_roi(geom, mu)
    ys = grid.points
    return (ys > geom.a2) & (ys < geom.a3 - m)


def roi_norm(sys: SingularSystem, triple_index: int, mu) -> float:
    """Step-weighted norm of u_k restricted to the region of interest.

    SpectralError unless triple_index is an integer in [0, sys.count).
    """
    k = real("triple_index", triple_index, 0, sys.count, closed=True, integer=True,
             error=SpectralError)
    mask = roi_mask(sys.geom, sys.object_grid, mu)
    if not mask.any():
        raise SpectralError("region of interest contains no object grid points")
    return weighted_norm(sys.u[mask, k], sys.step)


def tail_for_fit(sys: SingularSystem) -> range:
    """The tail of sys; SpectralError unless it holds the two values a fit needs."""
    tail = sys.tail
    if len(tail) < 2:
        raise SpectralError(f"tail fits need at least 2 values below the "
                            f"transition, got {len(tail)}")
    return tail


def fit_tail_decay(sys: SingularSystem, tail_len: int | None = None) -> TailFit:
    """Exponential fit of the tail (or of the last tail_len values) against n."""
    pairs = (enumerate(tail_for_fit(sys), 1) if tail_len is None
             else tail_index_map(sys, tail_len))
    return fit_exponential((n, sys.sigmas[k]) for n, k in pairs)


def fit_roi_decay(sys: SingularSystem, mu) -> TailFit:
    """Exponential rate of the ROI-restricted norms over the tail.

    The model for these norms is exp(-rate*n)/sqrt(n*pi); the algebraic
    prefactor is divided out before fitting so the returned rate is the
    pure exponential decay, directly comparable to the geometric constant
    beta_mu.
    """
    pts = [(n, roi_norm(sys, k, mu) * np.sqrt(n * np.pi))
           for n, k in enumerate(tail_for_fit(sys), 1)]
    return fit_exponential(pts)


def near_one_tail_fit(sys: SingularSystem) -> TailFit:
    """Fit 1 - sigma ~ amplitude * exp(-rate * |n|) on the near-one branch.

    The fit runs over |n| = 1..5.  |n| = 1 is the value just above the
    transition value, which sits at tail.start - 1 and separates the
    branch accumulating at one from the exponentially decaying tail.  A
    system with fewer than 5 values above the transition raises
    SpectralError.
    """
    n1_index = sys.tail.start - 2
    if n1_index < _NEAR_ONE_LEN - 1:
        raise SpectralError(f"near-one fit needs {_NEAR_ONE_LEN} values above "
                            f"the transition, got {n1_index + 1}")
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
    SpectralError unless triple_index is an integer in [0, sys.count).
    """
    k = real("triple_index", triple_index, 0, sys.count, closed=True, integer=True,
             error=SpectralError)
    ys = sys.object_grid.points
    inside = (ys > sys.geom.a2) & (ys < sys.geom.a3)
    seg = sys.u[inside, k]
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
    tail = sys.tail
    mus = [check_roi(sys.geom, m) for m in mu_list]
    masks = [roi_mask(sys.geom, sys.object_grid, m) for m in mus]
    write_csv(path, ["n_discrete", "n_asymptotic", "sigma"]
              + [f"roi_norm_mu{mu_label(m)}" for m in mus],
              [[k + 1, k - tail.start + 1 if k in tail else None, sys.sigmas[k]]
               + [weighted_norm(sys.u[mask, k], sys.step) for mask in masks]
               for k in range(sys.count)])
