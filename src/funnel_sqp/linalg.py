"""Dense symmetric-indefinite factorization and null-space bases.

The factorization is LAPACK's Bunch-Kaufman ``sytrf``; inertia is read off
its 1x1 / 2x2 pivot blocks. Null-space bases come from the column-pivoted
QR ``geqp3``, with Q formed by ``orgqr``. The routines are called directly,
with the workspace sizes that scipy.linalg's ``ldl`` and ``qr`` query, so
the factors are bit for bit the ones those wrappers compute. Everything here
is dense and sized for desk-scale problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DimensionMismatch, NotSymmetric

# |eigenvalue| <= ZERO_EIG_REL * ||M||_inf counts as zero in the inertia
ZERO_EIG_REL = 1e-12
# |R_ii| <= RANK_REL * |R_00| counts as a dependent column in QR
RANK_REL = 1e-10

_sytrf, _sytrf_lwork, _geqp3, _orgqr = get_lapack_funcs(
    ("sytrf", "sytrf_lwork", "geqp3", "orgqr"), dtype=np.float64)


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

    Raises NotSymmetric when max|M - M^T| exceeds sym_tol * (1 + max|M|),
    and ValueError for NaN or inf in M. An exactly zero pivot is accepted.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n == 0:
        return LdltFactors(inertia=(0, 0, 0))
    # in place: a second n x n temporary costs more than the sums at n ~ 300
    diff = M - M.T
    skew = np.max(np.abs(diff, out=diff))
    if skew > sym_tol * (1.0 + np.max(np.abs(M))):
        raise NotSymmetric(f"matrix asymmetry {skew:.3e} above tolerance")
    M = M + M.T
    M *= 0.5
    norm = np.max(np.abs(M))
    if not norm < np.inf:
        raise ValueError("NaN or inf in the matrix")
    ldu, ipiv, info = _sytrf(M, lower=1,
                             lwork=int(_sytrf_lwork(n, lower=1)[0]))
    _check(info, "sytrf")
    # a 2x2 block at k, k+1 shows as a pair of equal negative ipiv entries;
    # the pairs are disjoint, so every other negative entry starts one
    off = {k: ldu[k + 1, k] for k in np.flatnonzero(ipiv < 0)[::2].tolist()}
    zero_tol = ZERO_EIG_REL * max(norm, 1e-300)
    return LdltFactors(
        inertia=_block_inertia(ldu.diagonal().tolist(), off, zero_tol))


def _block_inertia(d: list[float], off: dict[int, float],
                   zero_tol: float) -> tuple[int, int, int]:
    """Inertia of a block-diagonal D from its diagonal d and, for each 2x2
    block at k, k+1, its off-diagonal entry off[k]."""
    eigs = list(d)
    for k, c in off.items():
        # symmetric 2x2 eigenvalues in closed form
        tr = d[k] + d[k + 1]
        disc = math.sqrt(max((d[k] - d[k + 1]) ** 2 / 4.0 + c * c, 0.0))
        eigs[k], eigs[k + 1] = tr / 2.0 - disc, tr / 2.0 + disc
    n_pos = sum(1 for e in eigs if e > zero_tol)
    n_neg = sum(1 for e in eigs if e < -zero_tol)
    return (n_pos, n_neg, len(eigs) - n_pos - n_neg)


def _check(info: int, name: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")


def pivoted_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-pivoted QR of a nonempty n x m matrix, as geqp3 stores it.

    Returns (qr, jpvt, tau): R is the upper triangle of qr, the Householder
    vectors of Q lie below it with scales tau, and A[:, jpvt] = Q R with
    jpvt 0-based. Raises ValueError for NaN or inf in A.
    """
    A = np.asarray_chkfinite(A, dtype=float)
    lwork = int(_geqp3(A, lwork=-1)[3][0])
    qr, jpvt, tau, _, info = _geqp3(A, lwork=lwork)
    _check(info, "geqp3")
    return qr, jpvt - 1, tau


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
    qr, _, tau = pivoted_qr(A)
    rank = r_rank(qr)
    # orgqr forms the n x n Q from the reflectors in its leading columns
    if n >= m:
        q = np.empty((n, n))
        q[:, :m] = qr
    else:
        q = qr[:, :n]
    lwork = int(_orgqr(q, tau, lwork=-1)[1][0])
    Q, _, info = _orgqr(q, tau, lwork=lwork, overwrite_a=1)
    _check(info, "orgqr")
    return Q[:, rank:]


def r_rank(R: np.ndarray) -> int:
    """Numerical rank from the R factor (or geqp3's qr) of a pivoted QR."""
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
    return r_rank(pivoted_qr(A)[0])
