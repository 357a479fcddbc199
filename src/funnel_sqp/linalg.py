"""Dense symmetric-indefinite factorization and null-space bases.

The factorization is LAPACK's Bunch-Kaufman (via scipy.linalg.ldl); inertia is
read off the 1x1 / 2x2 pivot blocks. Null-space bases come from a
column-pivoted QR. Everything here is dense and sized for desk-scale problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotSymmetric

# |eigenvalue| <= ZERO_EIG_REL * ||M||_inf counts as zero in the inertia
ZERO_EIG_REL = 1e-12
# |R_ii| <= RANK_REL * |R_00| counts as a dependent column in QR
RANK_REL = 1e-10


@dataclass
class LdltFactors:
    """Inertia of a symmetric matrix from its LDL^T factorization.

    M is factored as P^T L D L^T P with D block diagonal (1x1 and 2x2 blocks).
    ``inertia`` is (n_pos, n_neg, n_zero) over D's eigenvalues, which by
    Sylvester's law equals the inertia of M.
    """

    inertia: tuple[int, int, int]


def ldlt_factorize(M: np.ndarray, sym_tol: float = 1e-10) -> LdltFactors:
    """Factor a symmetric matrix and report its inertia.

    Raises NotSymmetric when max|M - M^T| exceeds sym_tol * (1 + max|M|).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n == 0:
        return LdltFactors(inertia=(0, 0, 0))
    skew = np.max(np.abs(M - M.T))
    if skew > sym_tol * (1.0 + np.max(np.abs(M))):
        raise NotSymmetric(f"matrix asymmetry {skew:.3e} above tolerance")
    M = 0.5 * (M + M.T)
    d = scipy.linalg.ldl(M, lower=True)[1]
    norm = np.max(np.abs(M)) if n else 0.0
    zero_tol = ZERO_EIG_REL * max(norm, 1e-300)
    return LdltFactors(inertia=_block_inertia(d, zero_tol))


def _block_inertia(d: np.ndarray, zero_tol: float) -> tuple[int, int, int]:
    eigs = []
    k, n = 0, d.shape[0]
    while k < n:
        if k + 1 < n and d[k, k + 1] != 0.0:
            blk = d[k:k + 2, k:k + 2]
            # symmetric 2x2 eigenvalues in closed form
            tr = blk[0, 0] + blk[1, 1]
            disc = np.sqrt(max((blk[0, 0] - blk[1, 1]) ** 2 / 4.0
                               + blk[0, 1] * blk[1, 0], 0.0))
            eigs += (tr / 2.0 - disc, tr / 2.0 + disc)
            k += 2
        else:
            eigs.append(d[k, k])
            k += 1
    n_pos = sum(1 for e in eigs if e > zero_tol)
    n_neg = sum(1 for e in eigs if e < -zero_tol)
    return (n_pos, n_neg, n - n_pos - n_neg)


def nullspace_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis Z for the null space of A^T (A is n x m).

    Z has shape n x (n - r) with r the numerical rank of A, so A^T Z = 0 and
    Z^T Z = I. For a zero or empty A this is an n x n identity-like basis.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {A.shape}")
    n, m = A.shape
    if m == 0 or not np.any(A):
        return np.eye(n)
    Q, R, _ = scipy.linalg.qr(A, mode="full", pivoting=True)
    return Q[:, r_rank(R):]


def r_rank(R: np.ndarray) -> int:
    """Numerical rank from the R factor of a column-pivoted QR."""
    rdiag = np.abs(np.diag(R))
    if rdiag.size == 0 or rdiag[0] == 0.0:
        return 0
    return int(np.sum(rdiag > RANK_REL * rdiag[0]))


def qr_rank(A: np.ndarray) -> int:
    """Numerical rank via the same column-pivoted QR threshold as nullspace_basis."""
    A = np.asarray(A, dtype=float)
    n, m = A.shape
    if m == 0 or n == 0 or not np.any(A):
        return 0
    return r_rank(scipy.linalg.qr(A, mode="r", pivoting=True)[0])
