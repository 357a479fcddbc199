"""Dense symmetric-indefinite factorization, pivoted QR and Cholesky.

The factorization is LAPACK's Bunch-Kaufman ``sytrf``; inertia is read off
its 1x1 / 2x2 pivot blocks. Null-space bases come from the column-pivoted
QR ``geqp3``. Q is never formed: ``ormqr`` applies its Householder
reflectors to the trailing identity columns, which gives the null-space
block Z alone, and to single vectors, which with ``trtrs`` give
minimum-norm points (R^T) and full-rank least-squares multipliers (R).
Positive definite matrices are factored by ``potrf``, with ``trtri``
bounding their smallest eigenvalue, and solved with ``potrs``. The
routines are called directly, with positional arguments: f2py parses
keywords at a cost that rivals these small solves. ``sytrf`` and ``geqp3``
get the workspace sizes that scipy.linalg's ``ldl`` and ``qr`` query, once
per shape, so the LDL^T and raw QR factors are bit for bit theirs.
Everything here is dense and sized for desk-scale problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DimensionMismatch, NotSymmetric

# |eigenvalue| <= ZERO_EIG_REL * (the matrix's scale) counts as zero: in the
# LDL^T inertia and in the QP's reduced-Hessian classification
ZERO_EIG_REL = 1e-12
# |R_ii| <= RANK_REL * |R_00| counts as a dependent column in QR
RANK_REL = 1e-10

(_sytrf, _sytrf_lwork, _geqp3, _ormqr, _potrf, _potrs, _trtri,
 _trtrs) = get_lapack_funcs(("sytrf", "sytrf_lwork", "geqp3", "ormqr",
                             "potrf", "potrs", "trtri", "trtrs"),
                            dtype=np.float64)
# workspace sizes, geqp3's per shape of A and sytrf's per order of M: their
# queries read only the dimensions
_GEQP3_LWORK: dict[tuple, int] = {}
_SYTRF_LWORK: dict[int, int] = {}


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
    if (M == M.T).all():
        # exactly symmetric, as every reduced Hessian convexify builds; a NaN
        # compares unequal and takes the checked path below
        norm = np.abs(M).max()
    else:
        # in place: a second n x n temporary costs more than the sums at
        # n ~ 300
        diff = M - M.T
        skew = np.abs(diff, out=diff).max()
        if skew > sym_tol * (1.0 + np.abs(M).max()):
            raise NotSymmetric(f"matrix asymmetry {skew:.3e} above tolerance")
        M = M + M.T
        M *= 0.5
        norm = np.abs(M).max()
    if not norm < np.inf:
        raise ValueError("NaN or inf in the matrix")
    lwork = _SYTRF_LWORK.get(n)
    if lwork is None:
        lwork = _SYTRF_LWORK[n] = int(_sytrf_lwork(n, lower=1)[0])
    ldu, ipiv, info = _sytrf(M, 1, lwork)          # lower, lwork
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


def _check_solve(info: int, name: str) -> None:
    """A triangular solve or inverse also fails on a zero diagonal (info > 0),
    which the callers' rank and definiteness tests rule out."""
    _check(info, name)
    if info > 0:
        raise np.linalg.LinAlgError(f"{name}: zero diagonal entry {info}")


def pivoted_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-pivoted QR of a nonempty n x m matrix, as geqp3 stores it.

    Returns (qr, jpvt, tau): R is the upper triangle of qr, the Householder
    vectors of Q lie below it with scales tau, and A[:, jpvt] = Q R with
    jpvt 0-based. Raises ValueError for NaN or inf in A.
    """
    A = np.asarray_chkfinite(A, dtype=float)
    lwork = _GEQP3_LWORK.get(A.shape)
    if lwork is None:
        lwork = _GEQP3_LWORK[A.shape] = int(_geqp3(A, lwork=-1)[3][0])
    qr, jpvt, tau, _, info = _geqp3(A, lwork)
    _check(info, "geqp3")
    return qr, jpvt - 1, tau


def _apply_q(qr, tau, C, trans: str) -> np.ndarray:
    """Q C (trans "N") or Q^T C (trans "T") for the Q whose reflectors are
    the columns of qr, as geqp3 stores them, overwriting the Fortran-ordered
    C. No workspace size is queried: a matrix gets enough for ormqr's
    blocked path at any block size up to LAPACK's 64, and a single column
    the minimum, which takes the unblocked path: for one column, forming
    each block's triangular factor costs more than it saves (about 3x)."""
    k = C.shape[1]
    lwork = 64 * (k + 65) if k > 1 else 1
    out, _, info = _ormqr("L", trans, qr, tau, C, lwork, 1)  # overwrite C
    _check(info, "ormqr")
    return out


@dataclass
class NullspaceFactors:
    """Column-pivoted QR of an n x m matrix A, split at its numerical rank r.

    A[:, piv] = [Q1 Z] [[R11, R12], [0, R22]] with R22 negligible: Z
    (n x (n - r)) spans the null space of A^T, Q1 (n x r) the range of A,
    and R11 (r x r, read from its upper triangle only) is nonsingular. Q is
    kept as geqp3's reflectors, the columns of qr (n x min(n, m)) below
    R's diagonal with scales tau; Q1 is never formed.
    """

    Z: np.ndarray
    qr: np.ndarray
    tau: np.ndarray
    R11: np.ndarray
    piv: np.ndarray
    rank: int

    def range_point(self, rhs: np.ndarray) -> np.ndarray:
        """x = Q1 R11^-T rhs[piv[:r]]: the minimum-norm solution of
        A^T x = rhs when that system is consistent (check the residual)."""
        r = self.rank
        x = np.zeros((self.qr.shape[0], 1))
        if r:
            y, info = _trtrs(self.R11, rhs[self.piv[:r]], 0, 1)  # R^T
            _check_solve(info, "trtrs")
            x[:r, 0] = y
            x = _apply_q(self.qr, self.tau, x, "N")
        return x[:, 0]

    def multipliers(self, g: np.ndarray) -> np.ndarray:
        """The least-squares solution of A lam = g; A must have full column
        rank (rank == m)."""
        r = self.rank
        if r == 0:
            return np.zeros(self.piv.size)
        qg = _apply_q(self.qr, self.tau, np.array(g, dtype=float)[:, None],
                      "T")
        y, info = _trtrs(self.R11, qg[:r, 0])
        _check_solve(info, "trtrs")
        lam = np.empty(self.piv.size)
        lam[self.piv] = y
        return lam


def nullspace_basis(A: np.ndarray) -> NullspaceFactors:
    """The pivoted QR factors of A (n x m) split at its numerical rank.

    Z has shape n x (n - r), so A^T Z = 0 and Z^T Z = I. For a zero or empty
    A, Z is the n x n identity and r = 0.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {A.shape}")
    n, m = A.shape
    if m == 0 or not np.count_nonzero(A):
        return NullspaceFactors(np.eye(n), np.zeros((n, 0)), np.zeros(0),
                                np.zeros((0, 0)), np.arange(m), 0)
    qr, piv, tau = pivoted_qr(A)
    rank = r_rank(qr)
    # Z = Q [0; I]: the reflectors applied to the trailing identity columns,
    # built as the rows of Z^T, whose transpose is the Fortran order ormqr
    # overwrites in place
    reflectors = qr[:, :min(n, m)]
    Zt = np.zeros((n - rank, n))
    Zt.reshape(-1)[rank::n + 1] = 1.0
    Z = _apply_q(reflectors, tau, Zt.T, "N")
    return NullspaceFactors(Z, reflectors, tau, qr[:rank, :rank], piv, rank)


def certified_cholesky(H: np.ndarray, zero_rel: float) -> np.ndarray | None:
    """Lower Cholesky factor of the symmetric H (its lower triangle is read),
    or None unless the factor certifies every eigenvalue of H to exceed
    zero_rel * max(1, trace H).

    ||L^-1||_F^2 = trace(H^-1) bounds 1 / lambda_min from above and trace H
    bounds lambda_max, so a certified H has no eigenvalue that an
    eigendecomposition would put in the band |w| <= zero_rel * max(1, max|w|).
    """
    L, info = _potrf(H, 1)                  # lower
    _check(info, "potrf")
    if info > 0:
        return None
    if not L.size:
        return L                            # no eigenvalue to fail the bound
    # potrf zeroed the upper triangle, and trtri leaves it zero
    Linv, info = _trtri(L, 1)               # lower
    _check_solve(info, "trtri")
    flat = Linv.ravel(order="K")
    if not 1.0 / (flat @ flat) > zero_rel * max(1.0, float(H.trace())):
        return None
    return L


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """H^-1 b from the lower Cholesky factor L of H."""
    x, info = _potrs(L, b, 1)               # lower
    _check_solve(info, "potrs")
    return x


def r_rank(R: np.ndarray) -> int:
    """Numerical rank from the R factor (or geqp3's qr) of a pivoted QR."""
    rdiag = np.abs(R.diagonal())
    if rdiag.size == 0 or rdiag[0] == 0.0:
        return 0
    return np.count_nonzero(rdiag > RANK_REL * rdiag[0])

