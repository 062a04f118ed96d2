"""High relative-accuracy SVD for Cauchy kernel matrices.

The sampled transform matrix is Cauchy: H[i, j] = s / (y_j - x_i).  Its
singular values decay exponentially and reach ~1e-20 within a dozen steps
for overlap-dominated geometries, far below what a conventional backward-
stable SVD can resolve (absolute accuracy eps * sigma_max ~ 1e-16).  The
standard remedy is a rank-revealing decomposition computed without
additive cancellation:

1. Gaussian elimination with complete pivoting.  The Schur complement of
   a Cauchy matrix is again Cauchy-like, and one elimination step
   multiplies every remaining entry by the exact node ratio

       (x_i - x_p)(y_j - y_q) / ((x_i - y_q)(y_j - x_p)),

   so entries, pivots, and multipliers retain relative accuracy however
   small they get.  Complete pivoting keeps |L| <= 1 and |U| <= 1
   entrywise, hence L and U well conditioned:  H = P_r^T (L D U) P_c^T.

2. Pivoted QR of the graded factor.  A column-pivoted QR of L*D gives
   L*D*P = Q*R, so L D U = Q W with W = R * (P^T U).  The rows of W are
   graded by the pivots and W is otherwise well conditioned.

3. One-sided Jacobi SVD of W^T, whose columns are therefore scaled but
   otherwise well conditioned.  Jacobi rotations are accurate relative to
   each column's own scale, so W^T = u diag(sigma) v^T carries the tiny
   singular values to high relative accuracy, and the SVD of the
   original matrix is (Q v, sigma, u).  LAPACK's dgejsv does this step.

Steps 1-3 are Algorithm 3.1 of Demmel, Gu, Eisenstat, Slapnicar, Veselic
and Drmac, "Computing the singular value decomposition with high
relative accuracy" (Linear Algebra Appl. 299, 1999); step 3 is the
preconditioned Jacobi SVD of Drmac and Veselic, "New fast and accurate
Jacobi SVD algorithm I/II" (SIAM J. Matrix Anal. Appl. 29, 2008).
Every operation on the way is either exact-ratio arithmetic (step 1) or
columnwise backward-stable orthogonal transforms applied to graded
columns, so small singular values and their vectors come out with high
relative accuracy while everything stays in ordinary doubles.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import SpectralError


@dataclass
class CauchyRRD:
    """Rank-revealing factorization matrix[rperm][:, cperm] ~= L @ diag(d) @ U."""

    rperm: np.ndarray
    cperm: np.ndarray
    L: np.ndarray
    d: np.ndarray
    U: np.ndarray

    @property
    def rank(self) -> int:
        return self.d.size


def gecp_cauchy(x_nodes, y_nodes, scale: float, floor_rel: float = 1e-28) -> CauchyRRD:
    """Complete-pivoting elimination of C[i, j] = scale / (y_j - x_i).

    Stops once the pivot magnitude falls below floor_rel times the first
    pivot; the discarded remainder perturbs the spectrum by at most that
    scale.  All Schur updates are multiplicative in exact node
    differences, never additive.
    """
    xa = np.array(x_nodes, dtype=float, copy=True)
    ya = np.array(y_nodes, dtype=float, copy=True)
    m, n = xa.size, ya.size
    S = scale / (ya[None, :] - xa[:, None])
    rperm = np.arange(m)
    cperm = np.arange(n)
    r_max = min(m, n)
    L = np.zeros((m, r_max))
    U = np.zeros((r_max, n))
    d = np.zeros(r_max)
    rank = 0
    piv0 = 0.0
    for k in range(r_max):
        blk = S[k:, k:]
        pi, pj = np.unravel_index(np.abs(blk).argmax(), blk.shape)
        pi += k
        pj += k
        piv = S[pi, pj]
        if k == 0:
            piv0 = abs(piv)
            if piv0 == 0.0:
                break
        if abs(piv) <= floor_rel * piv0:
            break
        if pi != k:
            S[[k, pi], :] = S[[pi, k], :]
            xa[[k, pi]] = xa[[pi, k]]
            rperm[[k, pi]] = rperm[[pi, k]]
            L[[k, pi], :] = L[[pi, k], :]
        if pj != k:
            S[:, [k, pj]] = S[:, [pj, k]]
            ya[[k, pj]] = ya[[pj, k]]
            cperm[[k, pj]] = cperm[[pj, k]]
            U[:, [k, pj]] = U[:, [pj, k]]
        d[k] = S[k, k]
        L[k, k] = 1.0
        U[k, k] = 1.0
        L[k + 1:, k] = S[k + 1:, k] / S[k, k]
        U[k, k + 1:] = S[k, k + 1:] / S[k, k]
        xi = xa[k + 1:]
        yj = ya[k + 1:]
        S[k + 1:, k + 1:] *= ((xi - xa[k]) / (xi - ya[k]))[:, None] \
            * ((yj - ya[k]) / (yj - xa[k]))[None, :]
        rank = k + 1
    return CauchyRRD(rperm=rperm, cperm=cperm, L=L[:, :rank], d=d[:rank], U=U[:rank, :])


def svd_from_rrd(L, d, U):
    """SVD of L @ diag(d) @ U from a rank-revealing decomposition.

    Returns (left, sigma, right) with left (m x r) and right (n x r)
    orthonormal and sigma descending.  Raises SpectralError if the Jacobi
    SVD reports a failure.
    """
    m, r = L.shape
    n = U.shape[1]
    if r == 0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))

    Q, R, piv = sla.qr(L * d[None, :], mode="economic", pivoting=True)
    W = R @ U[piv, :]
    # joba='C': W.T is a well-conditioned matrix times a column scaling, the
    # case dgejsv resolves to high relative accuracy (the default 'A' treats
    # values below eps * sigma_max as noise and zeroes the tail); jobr='R'
    # keeps the scaled values in [sqrt(sfmin), sqrt(big)], jobp='N' adds no
    # perturbation.  sigma is sva times work[1] / work[0].
    sva, u, v, work, _, info = sla.lapack.dgejsv(
        W.T, joba=0, jobu=0, jobv=0, jobr=1, jobt=0, jobp=0)
    if info != 0:
        raise SpectralError(f"Jacobi SVD (dgejsv) failed with info={info}")
    return Q @ v, sva * (work[1] / work[0]), u


def accurate_cauchy_svd(x_nodes, y_nodes, scale: float, floor_rel: float = 1e-28):
    """Full pipeline: returns (data_vectors, sigmas, object_vectors).

    data_vectors is (len(x), r), object_vectors is (len(y), r), both with
    orthonormal columns in the original (unpermuted) index order.
    """
    rrd = gecp_cauchy(x_nodes, y_nodes, scale, floor_rel=floor_rel)
    left, s, right = svd_from_rrd(rrd.L, rrd.d, rrd.U)
    data_vecs = np.zeros_like(left)
    data_vecs[rrd.rperm, :] = left
    obj_vecs = np.zeros_like(right)
    obj_vecs[rrd.cperm, :] = right
    return data_vecs, s, obj_vecs
