"""Problem model: equality-constrained NLPs with simple bounds.

Standard form is

    min f(x)   s.t.  c(x) = 0,   lb <= x <= ub,

with c mapping R^n -> R^m. Jacobians are stored column-wise: jac_c(x) has
shape (n, m) and column j is the gradient of c_j. General problems with
ranged constraints lower to this form through slack variables, and problems
given as expressions get their derivatives from the tape (tape.py).
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

    hess_c returns an (m, n, n) stack; evaluate_lagrangian_hessian combines
    it with hess_f so solvers never touch individual constraint Hessians.
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

    def start_point(self) -> np.ndarray:
        """Initial point clipped into the bound box."""
        return np.clip(np.asarray(self.x0, dtype=float), self.lb, self.ub)

    def start_multipliers(self) -> np.ndarray:
        if self.lambda0 is None:
            return np.zeros(self.m)
        return np.asarray(self.lambda0, dtype=float).copy()


def _require_finite(arr, what: str):
    if not np.all(np.isfinite(arr)):
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
    """W = rho * hess f - sum_j lam_j * hess c_j; bumps n_hess."""
    W = rho * np.asarray(problem.hess_f(x), dtype=float)
    if problem.m:
        Hc = np.asarray(problem.hess_c(x), dtype=float)
        W = W - np.einsum("j,jkl->kl", np.asarray(lam, dtype=float), Hc)
    if counters is not None:
        counters.n_hess += 1
    _require_finite(W, "Lagrangian Hessian")
    return W


def infeasibility(c: np.ndarray) -> float:
    """l1 constraint violation."""
    return float(np.sum(np.abs(c)))


# ------------------ expression problems ------------------

@dataclass
class GeneralProblem:
    """Pre-lowering form: expressions plus constraint ranges.

    Each expression is a Tape (dsl.compile_expr) or a Python callable over a
    list of n scalars. A callable is traced once into an expression tree
    (tape.trace), so it must be written with operator arithmetic and the
    hd_* helpers or numpy's exp/log/sin/cos/sqrt, and must not branch on
    values.
    """
    name: str
    n: int
    f_expr: Callable
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
    return NcoProblem(
        name=name, n=n, m=rows.size,
        f=lambda x: float(objective.values(x)[0]), c=rows.values,
        grad_f=lambda x: objective.jacobian(x)[:, 0], jac_c=rows.jacobian,
        hess_f=lambda x: objective.hessians(x)[0], hess_c=rows.hessians,
        lb=lb, ub=ub, x0=x0, lambda0=lambda0, known_solution=known_solution)


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

def _maratos_fletcher() -> NcoProblem:
    # unit-circle problem whose full steps overshoot the constraint curve
    def f(x):
        return 2.0 * (x[0] ** 2 + x[1] ** 2 - 1.0) - x[0]

    def c(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0])

    def grad_f(x):
        return np.array([4.0 * x[0] - 1.0, 4.0 * x[1]])

    def jac_c(x):
        return np.array([[2.0 * x[0]], [2.0 * x[1]]])

    def hess_f(x):
        return 4.0 * np.eye(2)

    def hess_c(x):
        return 2.0 * np.eye(2)[None, :, :]

    inf = np.inf
    return NcoProblem(
        name="maratos-fletcher", n=2, m=1, f=f, c=c, grad_f=grad_f,
        jac_c=jac_c, hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf, -inf]), ub=np.array([inf, inf]),
        x0=np.array([0.707106781, 0.707106781]),
        lambda0=np.array([1.5]),
        known_solution=np.array([1.0, 0.0]))


def _powellbs() -> NcoProblem:
    # badly scaled root-finding pair posed with a zero objective
    def f(x):
        return 0.0

    def c(x):
        return np.array([1e4 * x[0] * x[1] - 1.0,
                         np.exp(-x[0]) + np.exp(-x[1]) - 1.0001])

    def grad_f(x):
        return np.zeros(2)

    def jac_c(x):
        return np.array([[1e4 * x[1], -np.exp(-x[0])],
                         [1e4 * x[0], -np.exp(-x[1])]])

    def hess_f(x):
        return np.zeros((2, 2))

    def hess_c(x):
        H = np.zeros((2, 2, 2))
        H[0] = np.array([[0.0, 1e4], [1e4, 0.0]])
        H[1] = np.diag([np.exp(-x[0]), np.exp(-x[1])])
        return H

    inf = np.inf
    return NcoProblem(
        name="powellbs", n=2, m=2, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf, -inf]), ub=np.array([inf, inf]),
        x0=np.array([0.0, 1.0]),
        known_solution=np.array([1.0981593e-5, 9.1061467]))


def _circle() -> NcoProblem:
    # convex QP with one linear equality; unique optimum (0.5, 0.5)
    def f(x):
        return x[0] ** 2 + x[1] ** 2

    def c(x):
        return np.array([x[0] + x[1] - 1.0])

    def grad_f(x):
        return np.array([2.0 * x[0], 2.0 * x[1]])

    def jac_c(x):
        return np.array([[1.0], [1.0]])

    def hess_f(x):
        return 2.0 * np.eye(2)

    def hess_c(x):
        return np.zeros((1, 2, 2))

    inf = np.inf
    return NcoProblem(
        name="circle", n=2, m=1, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf, -inf]), ub=np.array([inf, inf]),
        x0=np.array([0.0, 0.0]),
        known_solution=np.array([0.5, 0.5]))


def _bounded_lp() -> NcoProblem:
    # linear program; optimum sits on the x2 >= 0 bound
    def f(x):
        return x[0] + 2.0 * x[1]

    def c(x):
        return np.array([x[0] + x[1] - 1.0])

    def grad_f(x):
        return np.array([1.0, 2.0])

    def jac_c(x):
        return np.array([[1.0], [1.0]])

    def hess_f(x):
        return np.zeros((2, 2))

    def hess_c(x):
        return np.zeros((1, 2, 2))

    inf = np.inf
    return NcoProblem(
        name="bounded-lp", n=2, m=1, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.array([0.0, 0.0]), ub=np.array([inf, inf]),
        x0=np.array([0.5, 0.5]),
        known_solution=np.array([1.0, 0.0]))


def _line_circle() -> NcoProblem:
    # linearized rows are parallel and inconsistent along x1 == x2, so the
    # first subproblem is infeasible and the solver must restore
    def f(x):
        return x[0]

    def c(x):
        return np.array([x[0] + x[1] - 1.0,
                         x[0] ** 2 + x[1] ** 2 - 5.0])

    def grad_f(x):
        return np.array([1.0, 0.0])

    def jac_c(x):
        return np.array([[1.0, 2.0 * x[0]],
                         [1.0, 2.0 * x[1]]])

    def hess_f(x):
        return np.zeros((2, 2))

    def hess_c(x):
        H = np.zeros((2, 2, 2))
        H[1] = 2.0 * np.eye(2)
        return H

    inf = np.inf
    return NcoProblem(
        name="line-circle", n=2, m=2, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf, -inf]), ub=np.array([inf, inf]),
        x0=np.array([1.0, 1.0]),
        known_solution=np.array([-1.0, 2.0]))


def _infeasible_quadratic() -> NcoProblem:
    # c(x) = x^2 + 1 has no root; x = 0 minimizes ||c||_1
    def f(x):
        return 0.0

    def c(x):
        return np.array([x[0] ** 2 + 1.0])

    def grad_f(x):
        return np.zeros(1)

    def jac_c(x):
        return np.array([[2.0 * x[0]]])

    def hess_f(x):
        return np.zeros((1, 1))

    def hess_c(x):
        return 2.0 * np.ones((1, 1, 1))

    inf = np.inf
    return NcoProblem(
        name="infeasible-quadratic", n=1, m=1, f=f, c=c, grad_f=grad_f,
        jac_c=jac_c, hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf]), ub=np.array([inf]),
        x0=np.array([1.0]))


def _unbounded_cubic() -> NcoProblem:
    # objective decreases without bound along the feasible ray x1 = x2 -> inf
    def f(x):
        return -x[0] ** 3

    def c(x):
        return np.array([x[0] - x[1]])

    def grad_f(x):
        return np.array([-3.0 * x[0] ** 2, 0.0])

    def jac_c(x):
        return np.array([[1.0], [-1.0]])

    def hess_f(x):
        return np.array([[-6.0 * x[0], 0.0], [0.0, 0.0]])

    def hess_c(x):
        return np.zeros((1, 2, 2))

    inf = np.inf
    return NcoProblem(
        name="unbounded-cubic", n=2, m=1, f=f, c=c, grad_f=grad_f,
        jac_c=jac_c, hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf, -inf]), ub=np.array([inf, inf]),
        x0=np.array([1.0, 1.0]))


def _hs6() -> NcoProblem:
    def f(x):
        return (1.0 - x[0]) ** 2

    def c(x):
        return np.array([10.0 * (x[1] - x[0] ** 2)])

    def grad_f(x):
        return np.array([-2.0 * (1.0 - x[0]), 0.0])

    def jac_c(x):
        return np.array([[-20.0 * x[0]], [10.0]])

    def hess_f(x):
        return np.array([[2.0, 0.0], [0.0, 0.0]])

    def hess_c(x):
        H = np.zeros((1, 2, 2))
        H[0, 0, 0] = -20.0
        return H

    inf = np.inf
    return NcoProblem(
        name="hs6", n=2, m=1, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf, -inf]), ub=np.array([inf, inf]),
        x0=np.array([-1.2, 1.0]),
        known_solution=np.array([1.0, 1.0]))


def _hs7() -> NcoProblem:
    def f(x):
        return np.log(1.0 + x[0] ** 2) - x[1]

    def c(x):
        return np.array([(1.0 + x[0] ** 2) ** 2 + x[1] ** 2 - 4.0])

    def grad_f(x):
        return np.array([2.0 * x[0] / (1.0 + x[0] ** 2), -1.0])

    def jac_c(x):
        return np.array([[4.0 * x[0] * (1.0 + x[0] ** 2)], [2.0 * x[1]]])

    def hess_f(x):
        t = 1.0 + x[0] ** 2
        return np.array([[2.0 * (1.0 - x[0] ** 2) / t ** 2, 0.0],
                         [0.0, 0.0]])

    def hess_c(x):
        H = np.zeros((1, 2, 2))
        H[0, 0, 0] = 4.0 + 12.0 * x[0] ** 2
        H[0, 1, 1] = 2.0
        return H

    inf = np.inf
    return NcoProblem(
        name="hs7", n=2, m=1, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.array([-inf, -inf]), ub=np.array([inf, inf]),
        x0=np.array([2.0, 2.0]),
        known_solution=np.array([0.0, np.sqrt(3.0)]))


def _hs26() -> NcoProblem:
    def f(x):
        return (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 4

    def c(x):
        return np.array([(1.0 + x[1] ** 2) * x[0] + x[2] ** 4 - 3.0])

    def grad_f(x):
        d1 = 2.0 * (x[0] - x[1])
        d2 = 4.0 * (x[1] - x[2]) ** 3
        return np.array([d1, -d1 + d2, -d2])

    def jac_c(x):
        return np.array([[1.0 + x[1] ** 2],
                         [2.0 * x[0] * x[1]],
                         [4.0 * x[2] ** 3]])

    def hess_f(x):
        q = 12.0 * (x[1] - x[2]) ** 2
        return np.array([[2.0, -2.0, 0.0],
                         [-2.0, 2.0 + q, -q],
                         [0.0, -q, q]])

    def hess_c(x):
        H = np.zeros((1, 3, 3))
        H[0, 0, 1] = H[0, 1, 0] = 2.0 * x[1]
        H[0, 1, 1] = 2.0 * x[0]
        H[0, 2, 2] = 12.0 * x[2] ** 2
        return H

    inf = np.inf
    return NcoProblem(
        name="hs26", n=3, m=1, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.full(3, -inf), ub=np.full(3, inf),
        x0=np.array([-2.6, 2.0, 2.0]),
        known_solution=np.array([1.0, 1.0, 1.0]))


def _box_qp() -> NcoProblem:
    # unconstrained minimum (2, -3) lies outside the unit box
    def f(x):
        return (x[0] - 2.0) ** 2 + (x[1] + 3.0) ** 2

    def c(x):
        return np.zeros(0)

    def grad_f(x):
        return np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] + 3.0)])

    def jac_c(x):
        return np.zeros((2, 0))

    def hess_f(x):
        return 2.0 * np.eye(2)

    def hess_c(x):
        return np.zeros((0, 2, 2))

    return NcoProblem(
        name="box-qp", n=2, m=0, f=f, c=c, grad_f=grad_f, jac_c=jac_c,
        hess_f=hess_f, hess_c=hess_c,
        lb=np.zeros(2), ub=np.ones(2),
        x0=np.array([0.5, 0.5]),
        known_solution=np.array([1.0, 0.0]))


_BUILDERS = {
    "maratos-fletcher": _maratos_fletcher,
    "powellbs": _powellbs,
    "circle": _circle,
    "bounded-lp": _bounded_lp,
    "line-circle": _line_circle,
    "infeasible-quadratic": _infeasible_quadratic,
    "unbounded-cubic": _unbounded_cubic,
    "hs6": _hs6,
    "hs7": _hs7,
    "hs26": _hs26,
    "box-qp": _box_qp,
}


def problem_names() -> list[str]:
    return sorted(_BUILDERS)


def get_problem(name: str) -> NcoProblem:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}"
        ) from None
    return builder()
