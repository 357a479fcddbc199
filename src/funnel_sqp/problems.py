"""Problem model: equality-constrained NLPs with simple bounds.

Standard form is

    min f(x)   s.t.  c(x) = 0,   lb <= x <= ub,

with c mapping R^n -> R^m. Jacobians are stored column-wise: jac_c(x) has
shape (n, m) and column j is the gradient of c_j. General problems with
ranged constraints lower to this form through slack variables, and problems
given as expressions get their derivatives from the tape (tape.py). The
builtin registry problems are such expressions too: each is written as its
objective and constraint callables, and the same tape differentiates them.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, UnknownProblem
from .tape import Tape, TapeSet, Var, trace


@dataclass
class EvalCounters:
    """Per-solve evaluation counts."""
    n_f: int = 0
    n_c: int = 0
    n_grad_f: int = 0
    n_jac_c: int = 0
    n_hess: int = 0

    def as_dict(self) -> dict:
        return {"n_f": self.n_f, "n_c": self.n_c, "n_grad_f": self.n_grad_f,
                "n_jac_c": self.n_jac_c, "n_hess": self.n_hess}


@dataclass
class NcoProblem:
    """Standard-form problem with callable evaluators.

    hess_lag(x, rho, lam), when set, returns the Lagrangian Hessian
    rho * hess f - sum_j lam_j * hess c_j as one n x n array;
    from_expressions sets it from its tapes, which form no per-row stack.
    hess_f and hess_c (an (m, n, n) stack) are the per-function view, for
    tests and tools, and for problems given as callables only.
    evaluate_lagrangian_hessian is the one place the solver asks for W.
    """
    name: str
    n: int
    m: int
    f: Callable[[np.ndarray], float]
    c: Callable[[np.ndarray], np.ndarray]
    grad_f: Callable[[np.ndarray], np.ndarray]
    jac_c: Callable[[np.ndarray], np.ndarray]      # (n, m), columns = grad c_j
    hess_f: Callable[[np.ndarray], np.ndarray]
    hess_c: Callable[[np.ndarray], np.ndarray]     # (m, n, n)
    lb: np.ndarray
    ub: np.ndarray
    x0: np.ndarray
    lambda0: Optional[np.ndarray] = None
    known_solution: Optional[np.ndarray] = None
    hess_lag: Optional[Callable[[np.ndarray, float, np.ndarray],
                                np.ndarray]] = None

    def start_point(self) -> np.ndarray:
        """Initial point clipped into the bound box."""
        return np.clip(np.asarray(self.x0, dtype=float), self.lb, self.ub)

    def start_multipliers(self) -> np.ndarray:
        if self.lambda0 is None:
            return np.zeros(self.m)
        return np.asarray(self.lambda0, dtype=float).copy()


def _require_finite(arr, what: str):
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{what} evaluated to a non-finite value")
    return arr


def evaluate_functions(problem: NcoProblem, x: np.ndarray,
                       counters: EvalCounters | None = None):
    """f(x) and c(x) with finiteness checks; bumps n_f and n_c."""
    fx = float(problem.f(x))
    cx = np.atleast_1d(np.asarray(problem.c(x), dtype=float))
    if cx.shape[0] != problem.m:
        raise DimensionMismatch(
            f"c(x) returned {cx.shape[0]} values, expected {problem.m}")
    if counters is not None:
        counters.n_f += 1
        counters.n_c += 1
    _require_finite([fx], "objective")
    _require_finite(cx, "constraints")
    return fx, cx


def evaluate_gradients(problem: NcoProblem, x: np.ndarray,
                       counters: EvalCounters | None = None):
    """grad f(x) and the (n, m) constraint Jacobian; bumps n_grad_f, n_jac_c."""
    g = np.asarray(problem.grad_f(x), dtype=float)
    J = np.asarray(problem.jac_c(x), dtype=float)
    if J.shape != (problem.n, problem.m):
        raise DimensionMismatch(
            f"jac_c(x) has shape {J.shape}, expected {(problem.n, problem.m)}")
    if counters is not None:
        counters.n_grad_f += 1
        counters.n_jac_c += 1
    _require_finite(g, "objective gradient")
    _require_finite(J, "constraint Jacobian")
    return g, J


def evaluate_lagrangian_hessian(problem: NcoProblem, x: np.ndarray,
                                rho: float, lam: np.ndarray,
                                counters: EvalCounters | None = None) -> np.ndarray:
    """W = rho * hess f - sum_j lam_j * hess c_j; bumps n_hess. From
    problem.hess_lag when it is set; else from hess_f and hess_c, where
    hess f is not evaluated at rho = 0 (restoration) and hess c not at
    lam = 0 (the first iterate, and each restoration entry)."""
    lam = np.asarray(lam, dtype=float)
    if problem.hess_lag is not None:
        W = np.asarray(problem.hess_lag(x, rho, lam), dtype=float)
    else:
        W = rho * np.asarray(problem.hess_f(x), dtype=float) if rho \
            else np.zeros((problem.n, problem.n))
        if lam.any():
            Hc = np.asarray(problem.hess_c(x), dtype=float)
            # one BLAS gemv over the flattened stack, subtracted in place: a
            # new W would be allocated above the stack and outlive it,
            # splitting the heap block that the next stack of this size
            # would reuse
            W -= (lam @ Hc.reshape(problem.m, -1)).reshape(W.shape)
    if counters is not None:
        counters.n_hess += 1
    _require_finite(W, "Lagrangian Hessian")
    return W


def infeasibility(c: np.ndarray) -> float:
    """l1 constraint violation."""
    return float(np.abs(c).sum())


# ------------------ expression problems ------------------

@dataclass
class GeneralProblem:
    """Pre-lowering form: expressions plus constraint ranges.

    Each expression is a Tape (a tree and its variable indices) or a Python
    callable over a list of n scalars. A callable is traced once into an
    expression tree (tape.trace), so it must be written with operator
    arithmetic and numpy's exp/log/sin/cos/sqrt (which dispatch to the tree
    nodes' methods), and must not branch on values.
    """
    name: str
    n: int
    f_expr: Tape | Callable
    con_exprs: list
    lb: np.ndarray
    ub: np.ndarray
    cl: np.ndarray
    cu: np.ndarray
    x0: np.ndarray
    var_names: list = field(default_factory=list)


def _as_tape(e, n: int) -> Tape:
    return e if isinstance(e, Tape) else trace(e, n)


def from_expressions(name: str, n: int, f_expr, con_exprs,
                     lb=None, ub=None, x0=None,
                     lambda0=None, known_solution=None) -> NcoProblem:
    """Build a standard-form problem whose derivatives come from the tape.

    Expressions are Tapes or traceable callables (see GeneralProblem), and
    every constraint expression is treated as an equality c_j(x) = 0. f and
    c return inf or NaN for evaluate_functions to reject; the derivative
    evaluators raise NonFiniteValue themselves.
    """
    objective = TapeSet([_as_tape(f_expr, n)], n, "objective")
    rows = TapeSet([_as_tape(e, n) for e in con_exprs], n, "constraint")
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)

    def hess_lag(x, rho, lam):
        W = objective.weighted_hessian(x, (rho,))
        W -= rows.weighted_hessian(x, lam)
        return W

    return NcoProblem(
        name=name, n=n, m=rows.size,
        f=lambda x: float(objective.values(x)[0]), c=rows.values,
        grad_f=lambda x: objective.jacobian(x)[:, 0], jac_c=rows.jacobian,
        hess_f=lambda x: objective.hessians(x)[0], hess_c=rows.hessians,
        lb=lb, ub=ub, x0=x0, lambda0=lambda0, known_solution=known_solution,
        hess_lag=hess_lag)


def to_standard_form(gp: GeneralProblem) -> NcoProblem:
    """Lower ranged constraints cl <= g(x) <= cu to equalities with slacks.

    Rows with cl == cu become g(x) - cl = 0 directly. Every other row gets a
    slack s in [cl, cu] and the equality g(x) - s = 0. Both are built on the
    expression tree, so each lowered row is one tape. Slack starts are the
    constraint values at x0 clipped into their range.
    """
    n = gp.n
    cons = [_as_tape(e, n) for e in gp.con_exprs]
    slack_rows = []
    for i, (t, lo, hi) in enumerate(zip(cons, gp.cl.tolist(), gp.cu.tolist())):
        if lo != hi:
            # no model or traced variable has this name; ChainMap keeps
            # the lowering linear in the number of rows
            env = ChainMap({"$slack": n + len(slack_rows)}, t.env)
            cons[i] = Tape(t.expr - Var("$slack"), env)
            slack_rows.append(i)
        elif lo != 0.0:
            cons[i] = Tape(t.expr - lo, t.env)
    cl, cu = gp.cl[slack_rows], gp.cu[slack_rows]
    p = from_expressions(gp.name, n + len(slack_rows), _as_tape(gp.f_expr, n),
                         cons, lb=np.concatenate([gp.lb, cl]),
                         ub=np.concatenate([gp.ub, cu]),
                         x0=np.concatenate([gp.x0, np.zeros(len(slack_rows))]))
    if slack_rows:
        # g(x) - s at s = 0 is g(x) exactly: the lowered rows give the start
        p.x0[n:] = np.clip(p.c(p.x0)[slack_rows], cl, cu)
    return p


# ------------------ builtin registry ------------------

def _traced(n: int, f, cons: list, **arrays) -> tuple:
    """Registry entry: f and each c_j traced once, and the box and start
    data as arrays for get_problem to copy (an unset box is unbounded)."""
    arrays = {"lb": np.full(n, -np.inf), "ub": np.full(n, np.inf),
              **{k: np.array(v, dtype=float) for k, v in arrays.items()}}
    return n, trace(f, n), [trace(c, n) for c in cons], arrays


# name -> (n, f, [c_j], {lb, ub, x0, lambda0, known_solution}); each
# constraint is c_j(x) = 0
_REGISTRY = {
    # unit-circle problem whose full steps overshoot the constraint curve
    "maratos-fletcher": _traced(
        2, lambda x: 2.0 * (x[0] ** 2 + x[1] ** 2 - 1.0) - x[0],
        [lambda x: x[0] ** 2 + x[1] ** 2 - 1.0],
        x0=[0.707106781, 0.707106781], lambda0=[1.5],
        known_solution=[1.0, 0.0]),
    # badly scaled root-finding pair posed with a zero objective
    "powellbs": _traced(
        2, lambda x: 0.0,
        [lambda x: 1e4 * x[0] * x[1] - 1.0,
         lambda x: np.exp(-x[0]) + np.exp(-x[1]) - 1.0001],
        x0=[0.0, 1.0], known_solution=[1.0981593e-5, 9.1061467]),
    # convex QP with one linear equality; unique optimum (0.5, 0.5)
    "circle": _traced(
        2, lambda x: x[0] ** 2 + x[1] ** 2, [lambda x: x[0] + x[1] - 1.0],
        x0=[0.0, 0.0], known_solution=[0.5, 0.5]),
    # linear program; optimum sits on the x2 >= 0 bound
    "bounded-lp": _traced(
        2, lambda x: x[0] + 2.0 * x[1], [lambda x: x[0] + x[1] - 1.0],
        lb=[0.0, 0.0], x0=[0.5, 0.5],
        known_solution=[1.0, 0.0]),
    # linearized rows are parallel and inconsistent along x1 == x2, so the
    # first subproblem is infeasible and the solver must restore
    "line-circle": _traced(
        2, lambda x: x[0],
        [lambda x: x[0] + x[1] - 1.0, lambda x: x[0] ** 2 + x[1] ** 2 - 5.0],
        x0=[1.0, 1.0], known_solution=[-1.0, 2.0]),
    # c(x) = x^2 + 1 has no root; x = 0 minimizes ||c||_1
    "infeasible-quadratic": _traced(
        1, lambda x: 0.0, [lambda x: x[0] ** 2 + 1.0], x0=[1.0]),
    # objective decreases without bound along the feasible ray x1 = x2 -> inf
    "unbounded-cubic": _traced(
        2, lambda x: -x[0] ** 3, [lambda x: x[0] - x[1]], x0=[1.0, 1.0]),
    "hs6": _traced(
        2, lambda x: (1.0 - x[0]) ** 2, [lambda x: 10.0 * (x[1] - x[0] ** 2)],
        x0=[-1.2, 1.0], known_solution=[1.0, 1.0]),
    "hs7": _traced(
        2, lambda x: np.log(1.0 + x[0] ** 2) - x[1],
        [lambda x: (1.0 + x[0] ** 2) ** 2 + x[1] ** 2 - 4.0],
        x0=[2.0, 2.0], known_solution=[0.0, np.sqrt(3.0)]),
    "hs26": _traced(
        3, lambda x: (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 4,
        [lambda x: (1.0 + x[1] ** 2) * x[0] + x[2] ** 4 - 3.0],
        x0=[-2.6, 2.0, 2.0], known_solution=[1.0, 1.0, 1.0]),
    # unconstrained minimum (2, -3) lies outside the unit box
    "box-qp": _traced(
        2, lambda x: (x[0] - 2.0) ** 2 + (x[1] + 3.0) ** 2, [],
        lb=[0.0, 0.0], ub=[1.0, 1.0], x0=[0.5, 0.5],
        known_solution=[1.0, 0.0]),
}


def problem_names() -> list[str]:
    return sorted(_REGISTRY)


def get_problem(name: str) -> NcoProblem:
    """A fresh problem: new arrays and TapeSets over the traced expressions."""
    try:
        n, f, cons, arrays = _REGISTRY[name]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}"
        ) from None
    return from_expressions(name, n, f, cons,
                            **{k: v.copy() for k, v in arrays.items()})
