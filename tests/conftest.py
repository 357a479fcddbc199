"""Shared helpers: independent oracles and random problem factories.

The oracles here deliberately avoid the library code paths they check:
eigenvalues come from plain Jacobi sweeps, QP optima from brute-force
active-set enumeration or grid search, derivatives from central differences.
unsplit_value is the reference for TapeSet's term split: the whole tree in
one op list.
"""

import itertools
import sys
from pathlib import Path

import numpy as np

from funnel_sqp.problems import NcoProblem
from funnel_sqp.tape import _compile, forward


def two_sig(value, target):
    """Agreement to 2 significant digits, absolute floor for zeros."""
    return abs(value - target) <= 0.05 * abs(target) + 1e-12


def bench_chain():
    """The chained Rosenbrock module of the benchmark, solverbench/chain.py."""
    bench = str(Path(__file__).resolve().parents[1] / "solverbench")
    sys.path.insert(0, bench)
    try:
        import chain
    finally:
        sys.path.remove(bench)
    return chain


def jacobi_eigenvalues(M, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros(0)
    scale = max(np.max(np.abs(A)), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-18 * scale:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                R = np.eye(n)
                R[p, p] = R[q, q] = c
                R[p, q] = s
                R[q, p] = -s
                A = R.T @ A @ R
    return np.sort(np.diag(A))


def unsplit_value(expr, env, x) -> float:
    """Value of the whole tree at x, compiled as one op list and evaluated
    in TapeSet's layout: one batch row gathered by an intp index array."""
    ops, vars_, const = _compile(expr, env)
    if not ops:
        return const
    with np.errstate(all="ignore"):
        X = np.asarray(x, dtype=float)[np.array([vars_], np.intp)]
        return float(forward(ops, X, 0)[0][0])


def fd_gradient(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step * max(1.0, abs(x[i]))
        g[i] = (f(x + e) - f(x - e)) / (2.0 * e[i])
    return g


def fd_hessian(f, x, step=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        hi = step * max(1.0, abs(x[i]))
        for j in range(i, n):
            hj = step * max(1.0, abs(x[j]))
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = hi
            ej[j] = hj
            val = (f(x + ei + ej) - f(x + ei - ej)
                   - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * hi * hj)
            H[i, j] = H[j, i] = val
    return H


def enumerate_qp_optimum(W, g, A, b, lb, ub):
    """Global optimum of a convex box+equality QP by active-set enumeration.

    Every bound assignment (free / at lower / at upper) is tried; the
    equality-constrained KKT system on the free coordinates is solved by
    least squares and the candidate kept when it actually satisfies the
    system and the box. The minimum over feasible candidates is the optimum
    because the true optimal active set is among the assignments.
    """
    n = g.shape[0]
    m = b.shape[0]
    best = np.inf
    best_x = None
    for codes in itertools.product((0, -1, 1), repeat=n):
        codes = np.array(codes)
        x = np.zeros(n)
        x[codes == -1] = lb[codes == -1]
        x[codes == 1] = ub[codes == 1]
        if not np.all(np.isfinite(x[codes != 0])):
            continue
        free = np.flatnonzero(codes == 0)
        fixed = np.flatnonzero(codes != 0)
        nf = free.size
        if nf:
            K = np.zeros((nf + m, nf + m))
            K[:nf, :nf] = W[np.ix_(free, free)]
            rhs = np.zeros(nf + m)
            rhs[:nf] = -g[free] - W[np.ix_(free, fixed)] @ x[fixed]
            if m:
                K[:nf, nf:] = A[free]
                K[nf:, :nf] = A[free].T
                rhs[nf:] = b - A[fixed].T @ x[fixed]
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            if np.max(np.abs(K @ sol - rhs), initial=0.0) > 1e-7 * (
                    1.0 + np.max(np.abs(rhs))):
                continue
            x[free] = sol[:nf]
        elif m and np.max(np.abs(A.T @ x - b), initial=0.0) > 1e-8 * (
                1.0 + np.max(np.abs(b))):
            continue
        pad = 1e-9 * (1.0 + np.max(np.abs(x)))
        if np.any(x < lb - pad) or np.any(x > ub + pad):
            continue
        if m and np.max(np.abs(A.T @ x - b), initial=0.0) > 1e-7 * (
                1.0 + np.max(np.abs(b))):
            continue
        obj = 0.5 * x @ W @ x + g @ x
        if obj < best:
            best, best_x = obj, x.copy()
    return best, best_x


def grid_qp_minimum(W, g, lb, ub, points=13):
    """Box-QP objective minimum over a regular grid (upper-bound oracle)."""
    axes = [np.linspace(lb[i], ub[i], points) for i in range(g.shape[0])]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    vals = 0.5 * np.einsum("ki,ij,kj->k", X, W, X) + X @ g
    return float(np.min(vals))


def random_quadratic_problem(rng, with_bounds=True):
    """Small random problem with quadratic objective and constraints.

    All derivatives are closed-form, so these feed both the solver invariant
    suites and the derivative checks without touching the AD module.
    """
    n = int(rng.integers(2, 4))
    m = int(rng.integers(1, min(n, 3)))
    Q = rng.standard_normal((n, n))
    Q = 0.5 * (Q + Q.T) + n * np.eye(n)
    q = rng.standard_normal(n)
    Ps = []
    ps = []
    rs = []
    for _ in range(m):
        P = rng.standard_normal((n, n)) * 0.3
        P = 0.5 * (P + P.T)
        Ps.append(P)
        ps.append(rng.standard_normal(n))
        rs.append(rng.standard_normal() * 0.5)
    Ps = np.array(Ps)
    ps = np.array(ps)
    rs = np.array(rs)
    if with_bounds and rng.random() < 0.5:
        lb = np.full(n, -3.0)
        ub = np.full(n, 3.0)
    else:
        lb = np.full(n, -np.inf)
        ub = np.full(n, np.inf)
    x0 = rng.uniform(-1.0, 1.0, size=n)

    def f(x):
        return float(0.5 * x @ Q @ x + q @ x)

    def c(x):
        return np.array([0.5 * x @ Ps[j] @ x + ps[j] @ x + rs[j]
                         for j in range(m)])

    def grad_f(x):
        return Q @ x + q

    def jac_c(x):
        return np.column_stack([Ps[j] @ x + ps[j] for j in range(m)])

    def hess_f(x):
        return Q.copy()

    def hess_c(x):
        return Ps.copy()

    return NcoProblem(name=f"rand-quad-{rng.integers(10**6)}", n=n, m=m,
                      f=f, c=c, grad_f=grad_f, jac_c=jac_c,
                      hess_f=hess_f, hess_c=hess_c,
                      lb=lb, ub=ub, x0=x0)
