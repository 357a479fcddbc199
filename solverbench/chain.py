"""Seeded chained-Rosenbrock model, as `.nco` text and as numpy callables.

    f(x)   = sum_i 100 (x[i+1] - x[i]^2)^2 + (1 - x[i])^2,   i = 0 .. n-2
    c_j(x) = 3 a^3 + 2 b - 5 + sin(a - b) sin(a + b),        j = 0 .. n/2-2
             with a = x[2j+1], b = x[2j+2]   (0-based)

The start is the classic (-1.2, 1, -1.2, 1, ...) plus a uniform +-0.1
perturbation drawn from the workload seed. Both forms describe the same
functions, so the dsl-chain and analytic-chain workloads differ only in how
derivatives are evaluated (hyper-dual AST walks against vectorized numpy).
"""

from __future__ import annotations

import numpy as np

from funnel_sqp import NcoProblem


def start_point(n: int, seed: int) -> np.ndarray:
    base = np.where(np.arange(n) % 2 == 0, -1.2, 1.0)
    return base + np.random.default_rng(seed).uniform(-0.1, 0.1, n)


def n_constraints(n: int) -> int:
    return n // 2 - 1


def nco_text(x0: np.ndarray) -> str:
    """Model text started at x0; repr() keeps every start value exact."""
    n = x0.shape[0]
    lines = [f"# chained Rosenbrock, n={n}"]
    lines += [f"var x{i + 1} start {float(x0[i])!r};" for i in range(n)]
    terms = [f"100 * (x{i + 2} - x{i + 1}^2)^2 + (1 - x{i + 1})^2"
             for i in range(n - 1)]
    lines.append("minimize " + " + ".join(terms) + ";")
    for j in range(n_constraints(n)):
        a, b = f"x{2 * j + 2}", f"x{2 * j + 3}"
        lines.append(f"subject_to 3 * {a}^3 + 2 * {b} - 5"
                     f" + sin({a} - {b}) * sin({a} + {b}) == 0;")
    return "\n".join(lines) + "\n"


def analytic_problem(x0: np.ndarray) -> NcoProblem:
    """The same model with hand-written vectorized derivatives, started at x0."""
    n = x0.shape[0]
    m = n_constraints(n)
    ia = 2 * np.arange(m) + 1
    ib = ia + 1
    rows = np.arange(m)

    def f(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                            + (1.0 - x[:-1]) ** 2))

    def grad_f(x):
        r = x[1:] - x[:-1] ** 2
        g = np.zeros(n)
        g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * r
        return g

    def hess_f(x):
        H = np.zeros((n, n))
        d = np.zeros(n)
        d[:-1] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        d[1:] += 200.0
        H[np.arange(n), np.arange(n)] = d
        off = -400.0 * x[:-1]
        H[np.arange(n - 1), np.arange(1, n)] = off
        H[np.arange(1, n), np.arange(n - 1)] = off
        return H

    def trig(x):
        a, b = x[ia], x[ib]
        return a, b, np.sin(a - b), np.sin(a + b), np.cos(a - b), np.cos(a + b)

    def c(x):
        a, b, su, sv, _, _ = trig(x)
        return 3.0 * a ** 3 + 2.0 * b - 5.0 + su * sv

    def jac_c(x):
        a, b, su, sv, cu, cv = trig(x)
        J = np.zeros((n, m))
        J[ia, rows] = 9.0 * a ** 2 + cu * sv + su * cv
        J[ib, rows] = 2.0 - cu * sv + su * cv
        return J

    def hess_c(x):
        a, _, su, sv, cu, cv = trig(x)
        H = np.zeros((m, n, n))
        H[rows, ia, ia] = 18.0 * a - 2.0 * su * sv + 2.0 * cu * cv
        H[rows, ib, ib] = -2.0 * su * sv - 2.0 * cu * cv
        return H

    inf = np.full(n, np.inf)
    return NcoProblem(name=f"analytic-chain-{n}", n=n, m=m, f=f, c=c,
                      grad_f=grad_f, jac_c=jac_c, hess_f=hess_f,
                      hess_c=hess_c, lb=-inf, ub=inf.copy(),
                      x0=x0.copy())
