"""Independent certificates for a solve's terminal status.

Each check reads only the problem's callables (f, c, grad_f, jac_c and
the bounds) and the SolveResult's x, lam and mu. None of them calls into the
solver, so a verdict the solver got wrong cannot pass by sharing its code.

  - infeasibility_rate: for infeasible_stationary. The best first-order rate
    at which the l1 violation h = |c|_1 can fall from x, read from an LP
    solved by scipy's HiGHS. It is near zero where h is stationary.
  - kkt_residual: for kkt_point. The KKT residual recomputed from the
    result's multipliers.
  - unbounded_residual: for unbounded. Where f(x) lies below the
    threshold, max |c(x)| and the bound violation of x; inf where it does
    not. It is at most tol where x is a feasible point of unbounded descent.
"""

import numpy as np
from scipy.optimize import linprog

RADIUS = 1e-4      # half-width of the step box the rate is measured over
GAP_CAP = 1e10     # stand-in gap for an infinite bound, as in the solver


def infeasibility_rate(problem, x, radius: float = RADIUS) -> float:
    """(h(x) - min |c + J^T d|_1) / radius over the step box lb - x <= d <=
    ub - x intersected with |d|_inf <= radius. NaN when the LP fails."""
    c = np.atleast_1d(np.asarray(problem.c(x), dtype=float))
    J = np.asarray(problem.jac_c(x), dtype=float)
    n, m = J.shape
    lo = np.maximum(problem.lb - x, -radius)
    hi = np.minimum(problem.ub - x, radius)
    # over (d, u, v): min sum(u + v)  s.t.  J^T d - u + v = -c, u, v >= 0
    cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
    A_eq = np.hstack([J.T, -np.eye(m), np.eye(m)])
    bounds = list(zip(lo, hi)) + [(0.0, None)] * (2 * m)
    lp = linprog(cost, A_eq=A_eq, b_eq=-c, bounds=bounds, method="highs")
    if lp.status != 0:
        return float("nan")
    return (float(np.sum(np.abs(c))) - lp.fun) / radius


def kkt_residual(problem, result) -> float:
    """max of |grad f - J lam - mu|_2, max |c|, the bound violation of x and
    the worst |mu_i| times its bound gap (mu_i > 0 claims the lower bound,
    mu_i < 0 the upper one; pinned variables are skipped)."""
    x, lam, mu = result.x, result.lam, result.mu
    c = np.atleast_1d(np.asarray(problem.c(x), dtype=float))
    g = np.asarray(problem.grad_f(x), dtype=float)
    J = np.asarray(problem.jac_c(x), dtype=float)
    lb, ub = problem.lb, problem.ub
    stationarity = float(np.linalg.norm(g - J @ lam - mu))
    bounds = float(np.max(np.concatenate([lb - x, x - ub]), initial=0.0))
    gap = np.minimum(np.where(mu > 0.0, x - lb, ub - x), GAP_CAP)
    comp = float(np.max(np.abs(mu) * gap, initial=0.0, where=lb != ub))
    return max(stationarity, float(np.max(np.abs(c), initial=0.0)), bounds,
               comp)


def unbounded_residual(problem, x, threshold: float) -> float:
    """max of max |c(x)| and the bound violation of x, with f and c
    recomputed at x; inf unless f(x) < threshold."""
    if not float(problem.f(x)) < threshold:
        return float("inf")
    c = np.atleast_1d(np.asarray(problem.c(x), dtype=float))
    bounds = np.concatenate([problem.lb - x, x - problem.ub])
    return max(float(np.max(np.abs(c), initial=0.0)),
               float(np.max(bounds, initial=0.0)))
