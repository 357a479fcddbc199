"""Factorization, inertia, and null-space basis checks against a Jacobi
eigenvalue oracle and direct reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jacobi_eigenvalues
from funnel_sqp.errors import DimensionMismatch, NotSymmetric
from funnel_sqp.linalg import ldlt_factorize, nullspace_basis, qr_rank


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

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            ldlt_factorize(np.ones((2, 3)))

    def test_empty_matrix(self):
        f = ldlt_factorize(np.zeros((0, 0)))
        assert f.inertia == (0, 0, 0)

    @given(st.integers(min_value=1, max_value=6), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, n, seed):
        rng = np.random.default_rng(seed)
        M = random_symmetric(rng, n)
        f = ldlt_factorize(M)
        L = f.lu[f.perm]
        R = L @ f.d @ L.T
        back = np.empty_like(R)
        back[np.ix_(f.perm, f.perm)] = R
        assert np.max(np.abs(back - M)) <= 1e-10 * max(
            1.0, np.max(np.abs(M)))


class TestNullspace:
    def test_single_column(self):
        A = np.array([[1.0], [1.0]])
        Z = nullspace_basis(A)
        assert Z.shape == (2, 1)
        assert abs(A.T @ Z).max() <= 1e-12
        assert np.allclose(Z.T @ Z, np.eye(1))

    def test_zero_matrix_gives_identity_basis(self):
        Z = nullspace_basis(np.zeros((3, 1)))
        assert Z.shape == (3, 3)
        assert np.allclose(Z.T @ Z, np.eye(3))

    def test_empty_constraints(self):
        Z = nullspace_basis(np.zeros((4, 0)))
        assert Z.shape == (4, 4)

    def test_rank_deficient_columns(self):
        a = np.array([1.0, 2.0, 3.0])
        A = np.column_stack([a, 2 * a])   # rank 1
        Z = nullspace_basis(A)
        assert Z.shape == (3, 2)
        assert np.max(np.abs(A.T @ Z)) <= 1e-12 * np.max(np.abs(A))
        assert qr_rank(A) == 1

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=3),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_orthonormal_annihilating_property(self, n, m, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, m)) if m else np.zeros((n, 0))
        Z = nullspace_basis(A)
        r = qr_rank(A)
        assert Z.shape == (n, n - r)
        if Z.shape[1]:
            assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-12)
        if m and Z.shape[1]:
            assert np.max(np.abs(A.T @ Z)) <= 1e-12 * max(
                1.0, np.max(np.abs(A)))
