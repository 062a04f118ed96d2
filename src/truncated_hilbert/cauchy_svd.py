"""High relative-accuracy SVD for Cauchy kernel matrices.

The sampled transform matrix is Cauchy: H[i, j] = s / (y_j - x_i).  Its
singular values decay exponentially and reach ~1e-20 within a dozen steps
for overlap-dominated geometries, far below what a conventional backward-
stable SVD can resolve (absolute accuracy eps * sigma_max ~ 1e-16).  The
standard remedy is a rank-revealing decomposition computed without
additive cancellation:

1. Gaussian elimination with rook pivoting, in generator form.  Every
   Schur complement of a Cauchy matrix is Cauchy-like,
   S[i, j] = a_i b_j / (y_j - x_i), so only the O(m + n) generators are
   kept; eliminating the pivot (p, q) multiplies them by exact node ratios

       a_i *= (x_i - x_p) / (x_i - y_q),    b_j *= (y_j - y_q) / (y_j - x_p),

   so entries, pivots, and multipliers retain relative accuracy however
   small they get.  Rook pivoting alternates column and row maxima, each
   an O(m) or O(n) scan of the generators, until the entry is largest in
   both its row and its column (Foster, J. Comput. Appl. Math. 86, 1997;
   Poole and Neal, ibid. 123, 2000).  That keeps |L| <= 1 and |U| <= 1
   entrywise, hence L and U well conditioned:  H = P_r^T (L D U) P_c^T.
   Elimination stops once a pivot falls below floor_rel (by default
   PIVOT_FLOOR) times max |H|, the entry of the closest node pair.  L
   and U are views of an m x min(m, n) and a min(m, n) x n buffer; the
   node arrays are copied, so the caller's are never written.

2. Pivoted QR of the graded factor.  A column-pivoted QR of L*D gives
   L*D*P = Q*R, so L D U = Q W with W = R * (P^T U).  The rows of W are
   graded by the pivots and W is otherwise well conditioned.  L*D is
   formed in Fortran order and L is released; LAPACK's dgeqp3 factors it
   in place, BLAS's dtrmm forms W^T = (P^T U)^T R^T in place in the
   row-permuted copy of U, reading R from dgeqp3's output with no copy,
   and dorgqr then turns the same buffer into Q.  U is released once
   P^T U is formed.  Every BLAS and LAPACK call of the solve comes from
   scipy's compiled modules, scipy.linalg._fblas and _flapack, loaded on
   their own from beside the installed scipy, so no scipy package
   __init__ runs, neither scipy's nor scipy.linalg's, and numpy's
   OpenBLAS computes nothing of the solve.

3. One-sided Jacobi SVD of W^T, whose columns are therefore scaled but
   otherwise well conditioned.  Jacobi rotations are accurate relative to
   each column's own scale, so W^T = u diag(sigma) v^T carries the tiny
   singular values to high relative accuracy, and the SVD of the
   original matrix is (Q v, sigma, u).  LAPACK's dgejsv does this step,
   overwriting W^T (Fortran-ordered, so no copy is made), and BLAS's
   dgemm forms Q v once W^T is released.  The peak working set is that
   of the Jacobi step: Q, W^T, its workspace (2 r^2 doubles for rank r)
   and its u and v, about 3.5 m x n doubles (48 MB) on the paper grid.
   The first k columns of Q v and of u, k the values kept by the
   truncation, are scattered back to the original index order straight
   into their m x k and n x k results.

Steps 1-3 are Algorithm 3.1 of Demmel, Gu, Eisenstat, Slapnicar, Veselic
and Drmac, "Computing the singular value decomposition with high
relative accuracy" (Linear Algebra Appl. 299, 1999); step 3 is the
preconditioned Jacobi SVD of Drmac and Veselic, "New fast and accurate
Jacobi SVD algorithm I/II" (SIAM J. Matrix Anal. Appl. 29, 2008).
Every operation on the way is either exact-ratio arithmetic (step 1) or
columnwise backward-stable orthogonal transforms applied to graded
columns, so small singular values and their vectors come out with high
relative accuracy while everything stays in ordinary doubles.

Below rank SMALL_RANK, steps 2 and 3 run on one thread of scipy's
OpenBLAS, so its worker pool does not compete with numpy's for the cores.
"""

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

from .errors import SpectralError, real


@dataclass
class CauchyRRD:
    """Rank-revealing factorization matrix[rperm][:, cperm] ~= L @ diag(d) @ U."""

    rperm: np.ndarray
    cperm: np.ndarray
    L: np.ndarray | None     # None once svd_from_rrd has consumed it
    d: np.ndarray
    U: np.ndarray | None

    @property
    def rank(self) -> int:
        return self.d.size


def _max_entry(x, y, scale: float) -> float:
    """max |scale / (y_j - x_i)|, from the closest node pair by a sorted search."""
    ys = np.sort(y)
    pos = np.searchsorted(ys, x)
    below = ys[np.maximum(pos - 1, 0)]
    above = ys[np.minimum(pos, ys.size - 1)]
    gap = np.minimum(np.abs(x - below), np.abs(above - x)).min()
    return abs(scale) / gap


# Elimination stops at a pivot below this fraction of the largest entry,
# unless a truncation asks for a lower floor (accurate_cauchy_svd)
PIVOT_FLOOR = 1e-28


def gecp_cauchy(x_nodes, y_nodes, scale: float, floor_rel: float = PIVOT_FLOOR) -> CauchyRRD:
    """Rook-pivoted elimination of C[i, j] = scale / (y_j - x_i) in generator form.

    Every Schur complement is S[i, j] = a_i b_j / (y_j - x_i), so only the
    generators a, b are stored and updated.  Stops once the pivot magnitude
    falls below floor_rel times max |C|; the discarded remainder perturbs
    the spectrum by at most that scale.  All updates are multiplicative in
    exact node differences, never additive.  Raises SpectralError for
    non-finite nodes or scale, on which the rook search could cycle.
    """
    scale = real("scale", scale, error=SpectralError)
    xa = np.array(x_nodes, dtype=float, copy=True)
    ya = np.array(y_nodes, dtype=float, copy=True)
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise SpectralError("Cauchy nodes must be finite")
    m, n = xa.size, ya.size
    r_max = min(m, n)
    a = np.full(m, scale)
    b = np.ones(n)
    rperm = np.arange(m)
    cperm = np.arange(n)
    L = np.zeros((m, r_max))
    U = np.zeros((r_max, n))
    d = np.zeros(r_max)
    floor = floor_rel * _max_entry(xa, ya, scale) if r_max else 0.0
    rank = 0
    for k in range(r_max):
        xk, yk, ak, bk = xa[k:], ya[k:], a[k:], b[k:]   # the active part
        # rook search: alternate column and row maxima until the entry is
        # largest in both its row and its column; every entry is evaluated
        # as (a_i * b_j) / (y_j - x_i), so both scans agree bitwise.  The
        # denominators dcol and drow of the last column and row scanned are
        # kept for the generator update.
        j = 0
        dcol = yk[j] - xk
        col = (ak * bk[j]) / dcol
        i = int(np.abs(col).argmax())
        while True:
            drow = yk - xk[i]
            row = (ak[i] * bk) / drow
            j_new = int(np.abs(row).argmax())
            if abs(row[j_new]) <= abs(row[j]):
                break
            j = j_new
            dcol = yk[j] - xk
            col = (ak * bk[j]) / dcol
            i_new = int(np.abs(col).argmax())
            if abs(col[i_new]) <= abs(col[i]):
                break
            i = i_new
        piv = row[j]
        if abs(piv) <= floor:
            break
        # the pivot's column of L and row of U, and the next generators, in
        # the order before the pivot moves.  (x_p - x_i) / dcol_i, with
        # dcol_i = y_q - x_i, negates both operands of the docstring's
        # (x_i - x_p) / (x_i - y_q), which leaves an IEEE quotient unchanged;
        # drow_j = y_j - x_p is the docstring's denominator of the b update.
        # col[i] and row[j] are piv itself, so L and U get exact ones on the
        # diagonal; the pivot's own generators become zero, never read again.
        d[k] = piv
        L[k:, k] = col / piv
        U[k, k:] = row / piv
        ak *= (xk[i] - xk) / dcol
        bk *= (yk - yk[j]) / drow
        # move the pivot to (k, k), swapping the L row and U column segments
        # through basic slices and one copy (a fancy-indexed swap costs more
        # than the arithmetic on small systems)
        if i:
            for arr in (xk, ak, rperm[k:]):
                arr[0], arr[i] = arr[i], arr[0]
            tmp = L[k, :k + 1].copy()
            L[k, :k + 1] = L[k + i, :k + 1]
            L[k + i, :k + 1] = tmp
        if j:
            for arr in (yk, bk, cperm[k:]):
                arr[0], arr[j] = arr[j], arr[0]
            tmp = U[:k + 1, k].copy()
            U[:k + 1, k] = U[:k + 1, k + j]
            U[:k + 1, k + j] = tmp
        rank = k + 1
    return CauchyRRD(rperm=rperm, cperm=cperm, L=L[:, :rank], d=d[:rank], U=U[:rank, :])


# Below this rank the pivoted QR and dgejsv run on one BLAS thread; the
# paper grid (rank 914) gains from a second one.  Measured crossover: see
# the README, "BLAS threads".
SMALL_RANK = 800


def _scipy_dir() -> Path:
    """The directory of the installed scipy package, found without importing it."""
    spec = find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    return Path(spec.origin).parent


@functools.cache
def _linalg_extension(name: str):
    """scipy.linalg.<name>, one of scipy's compiled BLAS or LAPACK wrappers, loaded once.

    The extension is loaded from its file beside the installed scipy and
    registered under its own name, so a later `import scipy.linalg` finds
    it instead of loading it again; the package's __init__, with its
    array-API layer, is never run for the solver.
    """
    name = f"scipy.linalg.{name}"
    module = sys.modules.get(name)
    if module is None:
        finder = FileFinder(str(_scipy_dir() / "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(f"{name} not found beside the installed scipy")
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _lapack():
    """scipy.linalg._flapack, scipy's compiled LAPACK wrappers."""
    return _linalg_extension("_flapack")


def _blas():
    """scipy.linalg._fblas, scipy's compiled BLAS wrappers, on the same OpenBLAS."""
    return _linalg_extension("_fblas")


@functools.cache
def _blas_threads_local():
    """openblas_set_num_threads_local of the OpenBLAS under scipy's BLAS and LAPACK, or None.

    On manylinux wheels that library is scipy.libs/libscipy_openblas*.so.
    The setter sets the library's thread count and returns the previous one.
    """
    import ctypes
    libs = sorted((_scipy_dir().parent / "scipy.libs").glob("libscipy_openblas*.so"))
    try:
        setter = ctypes.CDLL(str(libs[0])).openblas_set_num_threads_local
    except (IndexError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@contextmanager
def _blas_threads_for(rank: int):
    """Run scipy's BLAS and LAPACK on the calling thread when rank < SMALL_RANK.

    numpy and scipy each bundle an OpenBLAS whose idle workers keep
    spinning, so on a small host the two pools compete when small numpy
    products and scipy solves alternate.  Without the library or its
    setter the block runs unchanged.
    """
    setter = _blas_threads_local() if rank < SMALL_RANK else None
    if setter is None:
        yield
        return
    old = setter(1)
    try:
        yield
    finally:
        setter(old)


def _call(name: str, *args, **kwargs):
    """Run the named LAPACK routine at its optimal workspace, as scipy.linalg.qr does.

    A first call with lwork=-1 returns the optimal size in work[0]; the
    outputs of the second call, without work and info, are returned.
    Raises SpectralError if the routine reports info != 0.
    """
    routine = getattr(_lapack(), name)
    query = routine(*args, lwork=-1, **kwargs)
    out = routine(*args, lwork=int(query[-2][0]), **kwargs)
    if out[-1] != 0:
        raise SpectralError(f"{name} failed with info={out[-1]}")
    return out[:-2]


def svd_from_rrd(rrd: CauchyRRD):
    """SVD of L @ diag(d) @ U from a rank-revealing decomposition.

    Returns (left, sigma, right) with left (m x r) and right (n x r)
    orthonormal and sigma descending.  Consumes rrd: its L and U are set
    to None on entry and each is freed as soon as it has been read, so
    neither is alive during the Jacobi step.  Raises SpectralError if
    L * d is not finite or a LAPACK step reports a failure.
    """
    L, d, U = rrd.L, rrd.d, rrd.U
    rrd.L = rrd.U = None
    m, r = L.shape
    n = U.shape[1]
    if r == 0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))

    # here, so commands that do not decompose never load scipy
    lapack, blas = _lapack(), _blas()
    # L * d in Fortran order, so the pivoted QR factors it in place and its
    # buffer becomes Q
    Q = np.multiply(L, d, order="F")
    del L
    # LAPACK would carry a NaN or an infinity into every factor
    if not np.isfinite(Q).all():
        raise SpectralError("the scaled elimination factor L * d is not finite")
    with _blas_threads_for(r):
        # the economic pivoted QR of scipy.linalg.qr: dgeqp3, then dorgqr
        # forming Q in the same buffer.  Between the two, dtrmm reads R from
        # the upper triangle of that buffer's leading r rows (leading
        # dimension m) and forms W^T = (P^T U)^T R^T in place: the
        # row-permuted copy of U is C-ordered, so its transpose is
        # Fortran-ordered and is overwritten, not copied
        Q, piv, tau = _call("dgeqp3", Q, overwrite_a=1)
        Wt = U[piv - 1, :].T   # dgeqp3's pivots count from one
        del U
        Wt = blas.dtrmm(1.0, Q, Wt, side=1, lower=0, trans_a=1, overwrite_b=1)
        Q, = _call("dorgqr", Q, tau, overwrite_a=1)
        # joba='C': W^T is a well-conditioned matrix times a column scaling,
        # the case dgejsv resolves to high relative accuracy (the default 'A'
        # treats values below eps * sigma_max as noise and zeroes the tail);
        # jobr='R' keeps the scaled values in [sqrt(sfmin), sqrt(big)],
        # jobp='N' adds no perturbation.  sigma is sva times work[1] /
        # work[0].  W^T is Fortran-ordered, so dgejsv overwrites it instead
        # of a copy.
        sva, u, v, work, _, info = lapack.dgejsv(
            Wt, joba=0, jobu=0, jobv=0, jobr=1, jobt=0, jobp=0, overwrite_a=1)
        del Wt
        if info != 0:
            raise SpectralError(f"Jacobi SVD (dgejsv) failed with info={info}")
        left = blas.dgemm(1.0, Q, v)
    return left, sva * (work[1] / work[0]), u


def accurate_cauchy_svd(x_nodes, y_nodes, scale: float, rank_tol: float | None = None):
    """Full pipeline: returns (data_vectors, sigmas, object_vectors).

    data_vectors is (len(x), k), object_vectors is (len(y), k), both with
    orthonormal columns in the original (unpermuted) index order.  k is
    the rank of the elimination, or with rank_tol the number of values
    above rank_tol times the largest one.  The elimination stops at
    PIVOT_FLOOR, or seven decades below rank_tol if that is lower.
    """
    floor_rel = PIVOT_FLOOR if rank_tol is None else min(PIVOT_FLOOR, rank_tol * 1e-7)
    rrd = gecp_cauchy(x_nodes, y_nodes, scale, floor_rel=floor_rel)
    left, s, right = svd_from_rrd(rrd)
    k = s.size if rank_tol is None else int(np.count_nonzero(s > rank_tol * s[:1]))
    data_vecs = np.empty((left.shape[0], k))
    data_vecs[rrd.rperm, :] = left[:, :k]
    del left
    obj_vecs = np.empty((right.shape[0], k))
    obj_vecs[rrd.cperm, :] = right[:, :k]
    return data_vecs, s[:k], obj_vecs
