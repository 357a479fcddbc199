"""Factorization, inertia, and null-space basis checks against a Jacobi
eigenvalue oracle, direct reconstruction, and scipy.linalg's ldl and qr
wrappers, whose raw factors the direct LAPACK calls must reproduce bit for
bit. Z is formed from the reflectors without Q, so it matches scipy's
Q[:, r:] to rounding."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jacobi_eigenvalues
import funnel_sqp.linalg as linalg_module
from funnel_sqp.errors import DimensionMismatch, NotSymmetric
from funnel_sqp.linalg import (ZERO_EIG_REL, certified_cholesky,
                               cholesky_solve, ldlt_factorize,
                               nullspace_basis, pivoted_qr, r_rank)


def random_symmetric(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) * scale
    return 0.5 * (M + M.T)


def inertia_from_eigenvalues(eigs, norm):
    tol = 1e-12 * max(norm, 1e-300)
    n_pos = int(np.sum(eigs > tol))
    n_neg = int(np.sum(eigs < -tol))
    return (n_pos, n_neg, len(eigs) - n_pos - n_neg)


class TestLdlt:
    def test_identity(self):
        f = ldlt_factorize(np.eye(3))
        assert f.inertia == (3, 0, 0)

    def test_workspace_queried_once_per_order(self, monkeypatch):
        # the query reads only n: the cached size is the one it returns
        queries = []
        query = linalg_module._sytrf_lwork

        def counted(n, lower=0):
            queries.append(n)
            return query(n, lower=lower)

        monkeypatch.setattr(linalg_module, "_SYTRF_LWORK", {})
        monkeypatch.setattr(linalg_module, "_sytrf_lwork", counted)
        for M in (np.eye(7), np.diag(np.arange(1.0, 8.0)), -np.eye(7),
                  np.eye(4)):
            ldlt_factorize(M)
        assert queries == [7, 4]
        assert linalg_module._SYTRF_LWORK[7] == int(query(7, lower=1)[0])

    def test_indefinite_diagonal(self):
        f = ldlt_factorize(np.diag([2.0, -3.0, 5.0, -1.0]))
        assert f.inertia == (2, 2, 0)

    def test_saddle_point_matrix(self):
        # circle problem KKT block: W = 2I, constraint gradient (1, 1)
        K = np.array([[2.0, 0.0, 1.0],
                      [0.0, 2.0, 1.0],
                      [1.0, 1.0, 0.0]])
        f = ldlt_factorize(K)
        assert f.inertia == (2, 1, 0)

    def test_inertia_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            M = random_symmetric(rng, n)
            f = ldlt_factorize(M)
            eigs = jacobi_eigenvalues(M)
            assert f.inertia == inertia_from_eigenvalues(
                eigs, np.max(np.abs(M)))

    def test_singular_matrix_inertia(self):
        v = np.array([1.0, 2.0, -1.0])
        M = np.outer(v, v)            # rank 1, one positive eigenvalue
        f = ldlt_factorize(M)
        assert f.inertia == (1, 0, 2)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            ldlt_factorize(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_asymmetry_just_above_tolerance_rejected(self):
        tol = 1e-10 * (1.0 + 2.0)
        with pytest.raises(NotSymmetric):
            ldlt_factorize(np.array([[2.0, 1.0], [1.0 + 1.01 * tol, -1.0]]))

    def test_asymmetry_within_tolerance_symmetrized(self):
        # the symmetric part [[1, 1], [1, 1]] is singular, while the lower
        # triangle alone would give a negative eigenvalue past the zero band
        d = 2.0 ** -36
        M = np.array([[1.0, 1.0 - d], [1.0 + d, 1.0]])
        assert ldlt_factorize(M).inertia == (1, 0, 1)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            ldlt_factorize(np.ones((2, 3)))

    def test_empty_matrix(self):
        f = ldlt_factorize(np.zeros((0, 0)))
        assert f.inertia == (0, 0, 0)

    @pytest.mark.parametrize("M, inertia", [
        (np.zeros((2, 2)), (0, 0, 2)),
        (np.array([[0.0, 0.0], [0.0, 1.0]]), (1, 0, 1)),
    ])
    def test_exactly_zero_pivot_accepted(self, M, inertia):
        # LAPACK reports info > 0 here; the factorization still stands
        assert ldlt_factorize(M).inertia == inertia

    def test_two_by_two_pivot(self):
        # a zero diagonal forces Bunch-Kaufman to pivot on the 2x2 block
        f = ldlt_factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert f.inertia == (1, 1, 0)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ldlt_rejects(self, bad):
        # the symmetry check computes inf - inf, which numpy warns about
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            ldlt_factorize(np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ldlt_rejects_symmetric_off_diagonal(self, bad):
        # an exactly symmetric matrix skips the symmetry check, which must
        # not let a non-finite entry through
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            ldlt_factorize(np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [nullspace_basis, pivoted_qr])
    def test_qr_rejects(self, fn, bad):
        with pytest.raises(ValueError):
            fn(np.array([[1.0, 0.0], [bad, 1.0], [0.0, 2.0]]))


class TestNullspace:
    def test_single_column(self):
        A = np.array([[1.0], [1.0]])
        Z = nullspace_basis(A).Z
        assert Z.shape == (2, 1)
        assert abs(A.T @ Z).max() <= 1e-12
        assert np.allclose(Z.T @ Z, np.eye(1))

    def test_zero_matrix_gives_identity_basis(self):
        Z = nullspace_basis(np.zeros((3, 1))).Z
        assert Z.shape == (3, 3)
        assert np.allclose(Z.T @ Z, np.eye(3))

    def test_empty_constraints(self):
        Z = nullspace_basis(np.zeros((4, 0))).Z
        assert Z.shape == (4, 4)

    def test_rank_deficient_columns(self):
        a = np.array([1.0, 2.0, 3.0])
        A = np.column_stack([a, 2 * a])   # rank 1
        Z = nullspace_basis(A).Z
        assert Z.shape == (3, 2)
        assert np.max(np.abs(A.T @ Z)) <= 1e-12 * np.max(np.abs(A))
        assert nullspace_basis(A).rank == 1

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=3),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_orthonormal_annihilating_property(self, n, m, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, m)) if m else np.zeros((n, 0))
        Z = nullspace_basis(A).Z
        r = np.linalg.matrix_rank(A) if m else 0
        assert Z.shape == (n, n - r)
        if Z.shape[1]:
            assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-12)
        if m and Z.shape[1]:
            assert np.max(np.abs(A.T @ Z)) <= 1e-12 * max(
                1.0, np.max(np.abs(A)))


COLUMN_KINDS = st.lists(st.sampled_from(["random", "zero", "duplicate",
                                         "scaled"]), min_size=6, max_size=6)


def matrix_with_dependent_columns(n, m, kinds, seed):
    """n x m Gaussian matrix whose columns are zeroed, duplicated or scaled
    copies of earlier ones as kinds says."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m))
    for j, kind in enumerate(kinds[:m]):
        if kind == "zero":
            A[:, j] = 0.0
        elif kind == "duplicate" and j:
            A[:, j] = A[:, rng.integers(j)]
        elif kind == "scaled" and j:
            A[:, j] = -2.5 * A[:, rng.integers(j)]
    return A


def scipy_inertia(M):
    """Inertia read off scipy.linalg.ldl's block-diagonal D, one block at a
    time, with ldlt_factorize's zero band."""
    M = 0.5 * (M + M.T)
    d = scipy.linalg.ldl(M, lower=True)[1]
    zero_tol = ZERO_EIG_REL * max(np.max(np.abs(M)), 1e-300)
    eigs = []
    k, n = 0, d.shape[0]
    while k < n:
        if k + 1 < n and d[k, k + 1] != 0.0:
            blk = d[k:k + 2, k:k + 2]
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


def assert_basis_matches(Z, want, A):
    """Z is scipy's null-space block to rounding, orthonormal, and
    annihilated by A^T."""
    assert Z.shape == want.shape
    if not Z.size:
        return
    assert np.max(np.abs(Z - want)) <= 1e-14
    assert np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) <= 1e-14
    if A.size:
        assert np.max(np.abs(A.T @ Z)) <= 1e-12 * max(1.0, np.max(np.abs(A)))


class TestScipyOracle:
    @given(st.integers(1, 8), st.integers(0, 6), COLUMN_KINDS,
           st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_qr_paths_bit_identical(self, n, m, kinds, seed):
        A = matrix_with_dependent_columns(n, m, kinds, seed)
        Q, R, _ = scipy.linalg.qr(A, mode="full", pivoting=True)
        f = nullspace_basis(A)
        assert f.rank == r_rank(R)
        assert_basis_matches(f.Z, Q[:, f.rank:], A)
        if m:
            (qr, tau), _, jpvt = scipy.linalg.qr(A, mode="raw",
                                                 pivoting=True)
            got_qr, got_jpvt, got_tau = pivoted_qr(A)
            assert np.array_equal(got_qr, qr)
            assert np.array_equal(got_jpvt, jpvt)
            assert np.array_equal(got_tau, tau)
            r = r_rank(R)
            if np.any(A):
                assert np.array_equal(f.qr, qr[:, :min(n, m)])
                assert np.array_equal(f.tau, tau)
                assert np.array_equal(np.triu(f.R11), R[:r, :r])
                assert np.array_equal(f.piv, jpvt)

    @pytest.mark.parametrize("n, m", [(300, 200), (200, 300)])
    def test_blocked_qr_bit_identical(self, n, m):
        # past LAPACK's block crossover the factors depend on the workspace
        # size, so a workspace other than scipy's would show here
        A = matrix_with_dependent_columns(n, m, ["duplicate"] * 6, 3)
        (qr, tau), _, jpvt = scipy.linalg.qr(A, mode="raw", pivoting=True)
        got_qr, got_jpvt, got_tau = pivoted_qr(A)
        assert np.array_equal(got_qr, qr)
        assert np.array_equal(got_jpvt, jpvt)
        assert np.array_equal(got_tau, tau)
        Q, R, _ = scipy.linalg.qr(A, mode="full", pivoting=True)
        assert_basis_matches(nullspace_basis(A).Z, Q[:, r_rank(R):], A)

    def test_blocked_ldlt_inertia_matches_scipy(self):
        rng = np.random.default_rng(5)
        n, k = 200, 99
        J = rng.standard_normal((n, k))
        M = np.block([[random_symmetric(rng, n), J],
                      [J.T, np.zeros((k, k))]])
        assert ldlt_factorize(M).inertia == scipy_inertia(M)

    @given(st.integers(1, 8),
           st.sampled_from(["random", "saddle", "low_rank"]),
           st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_ldlt_inertia_matches_scipy(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            M = random_symmetric(rng, n, scale=10.0 ** rng.integers(-3, 4))
        elif kind == "saddle":
            # [[H, J], [J^T, 0]] with possibly dependent constraint columns
            k = int(rng.integers(0, n + 1))
            H = random_symmetric(rng, n)
            J = matrix_with_dependent_columns(
                n, k, rng.choice(["random", "duplicate", "zero"], 6), seed)
            M = np.block([[H, J], [J.T, np.zeros((k, k))]])
        else:
            B = rng.standard_normal((n, int(rng.integers(0, n))))
            M = B @ np.diag(rng.choice([-1.0, 1.0], B.shape[1])) @ B.T
        assert ldlt_factorize(M).inertia == scipy_inertia(M)


class TestFactorSolves:
    @given(st.integers(1, 8), st.integers(0, 6), COLUMN_KINDS,
           st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_qr_solves_match_lstsq(self, n, m, kinds, seed):
        A = matrix_with_dependent_columns(n, m, kinds, seed)
        rng = np.random.default_rng(seed + 1)
        f = nullspace_basis(A)
        # a consistent A^T x = rhs: the minimum-norm solution
        rhs = A.T @ rng.standard_normal(n)
        want = np.linalg.lstsq(A.T, rhs, rcond=None)[0]
        got = f.range_point(rhs)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * (
            1.0 + np.max(np.abs(want), initial=0.0))
        if f.rank == m:
            g = rng.standard_normal(n)
            want = np.linalg.lstsq(A, g, rcond=None)[0]
            got = f.multipliers(g)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * (
                1.0 + np.max(np.abs(want), initial=0.0))


class TestCertifiedCholesky:
    def test_positive_definite_factored(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        H = M @ M.T + np.eye(6)
        L = certified_cholesky(H, 1e-12)
        assert np.allclose(np.tril(L) @ np.tril(L).T, H)
        b = rng.standard_normal(6)
        assert np.allclose(cholesky_solve(L, b), np.linalg.solve(H, b))

    def test_mixed_scales_certified(self):
        # lambda_min = 1e-5 clears 1e-12 * trace = 1e-6
        assert certified_cholesky(np.diag([1e6, 1e-5]), 1e-12) is not None

    @pytest.mark.parametrize("H", [
        np.diag([1.0, 1e-13]),         # positive definite, inside the band
        np.diag([1.0, 0.0]),
        np.array([[1.0, 2.0], [2.0, 1.0]]),
    ])
    def test_not_certified(self, H):
        assert certified_cholesky(H, 1e-12) is None

    @given(st.integers(1, 8), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_certified_means_eigh_sees_no_zero_or_negative(self, k, seed):
        rng = np.random.default_rng(seed)
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        # mostly positive, so the certified branch is taken often
        w = np.where(rng.random(k) < 0.1, -1.0, 1.0) \
            * 10.0 ** rng.uniform(-15, 3, k)
        H = (V * w) @ V.T
        w_eigh = np.linalg.eigvalsh(0.5 * (H + H.T))
        if certified_cholesky(H, 1e-12) is not None:
            assert w_eigh[0] > 1e-12 * max(1.0, np.max(np.abs(w_eigh)))
