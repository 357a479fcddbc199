"""Expected outcome of every benchmark solve, fixed before any solve runs.

Registry statuses and points are the documented behaviour of each problem
and variant (the problem definitions and their `known_solution`, and the
outcomes pinned in tests/test_driver.py and tests/test_acceptance.py). The
chain optimum f* = 3.989953 is the value every variant reached from the
seeded starts. scipy's SLSQP is deliberately not the reference: from the
seed-0 starts it stops at other local points (f about 685.1 at n=24 and
4139.6 at n=200).

Beyond the stored outcome, a KKT claim is re-checked from the problem's own
functions at the returned point, so a wrong multiplier or an infeasible point
fails even when the status and objective look right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

TOL = 1e-6                  # SolverConfig's default tol, used by every solve
UNBOUNDED_F = -1e20         # SolverConfig's default unbounded_threshold
KNOWN = "known_solution"    # take the point from the problem definition


@dataclass(frozen=True)
class Expected:
    status: str
    x: object = None        # leading coordinates of the expected point, KNOWN or None
    xtol: float = 1e-4      # |x - x*|_inf <= xtol * (1 + |x*|_inf)
    f: Optional[float] = None
    ftol: float = 0.0


REGISTRY = {
    "bounded-lp": Expected("kkt_point", KNOWN),
    "box-qp": Expected("kkt_point", KNOWN),
    "circle": Expected("kkt_point", KNOWN),
    # the quartic term makes the minimizer degenerate: a 1e-6 KKT residual
    # only pins x to about 1e-3
    "hs26": Expected("kkt_point", KNOWN, xtol=1e-2),
    "hs6": Expected("kkt_point", KNOWN),
    "hs7": Expected("kkt_point", KNOWN),
    "infeasible-quadratic": Expected("infeasible_stationary", (0.0,)),
    # the feasible set is two points; trust region ends on the other root
    "line-circle": Expected("kkt_point", (2.0, -1.0)),
    "maratos-fletcher": Expected("kkt_point", KNOWN),
    "powellbs": Expected("kkt_point", KNOWN),
    "unbounded-cubic": Expected("unbounded"),
}

# line search stalls at the closest point of the circle to the line
LINE_SEARCH = {
    "line-circle": Expected("infeasible_stationary",
                            (math.sqrt(2.5), math.sqrt(2.5))),
}

MODELS = {
    "circle": Expected("kkt_point", (0.5, 0.5)),
    "powellbs": Expected("kkt_point", (1.0981593e-5, 9.1061467)),
    "ranged": Expected("kkt_point", (2.0, 0.0)),
}

CHAIN = Expected("kkt_point", f=3.989953, ftol=1e-6)


def registry_expected(name: str, mechanism: str) -> Optional[Expected]:
    if mechanism == "line-search" and name in LINE_SEARCH:
        return LINE_SEARCH[name]
    return REGISTRY.get(name)


def check(problem, result, expected: Optional[Expected]) -> Optional[str]:
    """None when the solve matches its expected outcome, else the reason."""
    if expected is None:
        return f"no expected outcome stored for {problem.name}"
    if isinstance(result, BaseException):
        return f"solve raised {type(result).__name__}: {result}"
    if result.status != expected.status:
        return (f"status {result.status} ({result.error_kind or ''}),"
                f" expected {expected.status}")
    x = np.asarray(result.x, dtype=float)
    target = problem.known_solution if expected.x is KNOWN else expected.x
    if target is not None:
        target = np.asarray(target, dtype=float)
        err = float(np.max(np.abs(x[:target.size] - target)))
        if err > expected.xtol * (1.0 + float(np.max(np.abs(target)))):
            return f"|x - x*|_inf = {err:.3g}"
    if expected.f is not None and abs(result.f - expected.f) > expected.ftol:
        return f"f = {result.f!r}, expected {expected.f} +- {expected.ftol}"
    c = np.atleast_1d(np.asarray(problem.c(x), dtype=float))
    cmax = float(np.max(np.abs(c), initial=0.0))
    if result.status == "unbounded":
        if not (result.f < UNBOUNDED_F and cmax <= TOL):
            return f"unbounded claim with f = {result.f:.3g}, |c| = {cmax:.3g}"
    elif result.status == "infeasible_stationary":
        if cmax <= TOL:
            return "infeasible claim at a feasible point"
    elif result.status == "kkt_point":
        grad = np.asarray(problem.grad_f(x), dtype=float)
        J = np.asarray(problem.jac_c(x), dtype=float)
        r = grad - J @ np.asarray(result.lam, dtype=float) - result.mu
        rmax = float(np.max(np.abs(r), initial=0.0))
        if rmax > TOL or cmax > TOL:
            return f"recomputed |gradL|_inf = {rmax:.3g}, |c|_inf = {cmax:.3g}"
        if np.any(x < problem.lb) or np.any(x > problem.ub):
            return "returned point leaves the bound box"
    return None


def same_math(p_dsl, p_analytic, x) -> list[str]:
    """Values and derivatives of two forms of one model agree to rounding."""
    x = np.asarray(x, dtype=float)
    pairs = {
        "f": (p_dsl.f(x), p_analytic.f(x)),
        "c": (p_dsl.c(x), p_analytic.c(x)),
        "grad_f": (p_dsl.grad_f(x), p_analytic.grad_f(x)),
        "jac_c": (p_dsl.jac_c(x), p_analytic.jac_c(x)),
        "hess_f": (p_dsl.hess_f(x), p_analytic.hess_f(x)),
        "hess_c": (p_dsl.hess_c(x), p_analytic.hess_c(x)),
    }
    bad = []
    for what, (a, b) in pairs.items():
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            bad.append(f"{what}: shapes {a.shape} and {b.shape}")
            continue
        scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
        err = float(np.max(np.abs(a - b), initial=0.0))
        if err > 1e-12 * scale:
            bad.append(f"{what}: forms differ by {err:.3g} (scale {scale:.3g})")
    return bad
