"""Direction computation: local QPs, elastic feasibility QPs, convexification.

The optimality QP linearizes the constraints and keeps the exact Lagrangian
Hessian (trust-region variant) or an inertia-corrected one (line-search
variant). When its linearization is infeasible the engine switches itself to
restoration and works on the elastic feasibility QP instead, whose Hessian
uses the restoration multipliers (zero right after entry, then the previous
elastic QP's own multipliers).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SolverConfig
from .errors import RegularizationFailed
from .linalg import ldlt_factorize, qr_rank
from .problems import EvalCounters, NcoProblem, evaluate_lagrangian_hessian
from .qp import QpData, elastic_problem, solve_qp

log = logging.getLogger(__name__)


class Phase(enum.Enum):
    OPTIMALITY = "optimality"
    RESTORATION = "restoration"


def convexify(W: np.ndarray, A: np.ndarray, eta0: float = 1e-4,
              eta_growth: float = 10.0, eta_max: float = 1e20,
              min_eta: float = 0.0):
    """Smallest diagonal shift making W + eta*I positive definite on the
    null space of A^T, detected through the KKT-matrix inertia.

    Tries min_eta first, then eta0, then the eta_growth ladder. Returns
    (W + eta*I, eta). Raises RegularizationFailed past eta_max.
    """
    n = W.shape[0]
    m = A.shape[1] if A.ndim == 2 else 0
    # Normalizing each gradient column is a congruence of the KKT matrix
    # (the scale hits one multiplier coordinate symmetrically), so the
    # inertia is unchanged while wildly different constraint scales stop
    # drowning small Schur-complement eigenvalues in the zero band. The
    # rank target comes from the same normalized matrix the factorization
    # sees.
    if m:
        col = np.linalg.norm(A, axis=0)
        An = A / np.where(col > 0.0, col, 1.0)
        r = qr_rank(An)
    else:
        An = A
        r = 0
    target = (n, r, m - r)
    candidates = [min_eta]
    eta = eta0
    while eta <= eta_max:
        if eta > candidates[-1]:
            candidates.append(eta)
        eta *= eta_growth
    for eta in candidates:
        H = W + eta * np.eye(n)
        K = np.zeros((n + m, n + m))
        K[:n, :n] = H
        if m:
            s = np.sqrt(max(1.0, float(np.max(np.abs(H)))))
            K[:n, n:] = s * An
            K[n:, :n] = s * An.T
        if ldlt_factorize(K).inertia == target:
            return H, eta
    raise RegularizationFailed(
        f"no diagonal shift up to {eta_max:g} gives the required inertia")


def step_box(x, lb, ub, delta: Optional[float]):
    """Bounds on the step d: the bound gaps, capped by the trust radius."""
    lo = lb - x
    hi = ub - x
    if delta is not None:
        lo = np.maximum(lo, -delta)
        hi = np.minimum(hi, delta)
    return lo, hi


def build_optimality_qp(x, grad_f, J, c, lb, ub, W,
                        delta: Optional[float]) -> QpData:
    """min 1/2 d^T W d + grad_f^T d  s.t.  c + J^T d = 0, step bounds."""
    lo, hi = step_box(x, lb, ub, delta)
    return QpData(W=W, g=grad_f.copy(), A=J.copy(), b=-c, lb=lo, ub=hi)


def build_feasibility_qp(x, J, c, lb, ub, W0, delta: Optional[float]):
    """Elastic QP over (d, u, v): min 1/2 d^T W0 d + sum(u) + sum(v)
    s.t. c + J^T d - u + v = 0, u, v >= 0 and the step box on d. Returns
    (QpData, feasible_start), the start at d = 0 when the box holds 0."""
    lo, hi = step_box(x, lb, ub, delta)
    return elastic_problem(J, -c, lo, hi, W0)


@dataclass
class DirectionResult:
    d: np.ndarray
    lam: np.ndarray              # equality multipliers from the subproblem
    mu: np.ndarray               # bound multipliers on d (trust-region ones zeroed)
    W_used: np.ndarray           # Hessian the subproblem actually saw (d block)
    phase: Phase
    eta: Optional[float] = None  # diagonal shift, None when none was applied
    entered_restoration: bool = False
    subproblem_feasible: bool = True
    elastic_u: Optional[np.ndarray] = None
    elastic_v: Optional[np.ndarray] = None
    n_pivots: int = 0


class DirectionEngine:
    """Owns the solver phase and everything the subproblems remember
    between calls: restoration anchor, restoration multipliers, warm starts."""

    def __init__(self, problem: NcoProblem, config: SolverConfig,
                 counters: EvalCounters):
        self.problem = problem
        self.config = config
        self.counters = counters
        self.phase = Phase.OPTIMALITY
        self.x_resto: Optional[np.ndarray] = None
        self.h_resto: Optional[float] = None
        self.resto_lam = np.zeros(problem.m)
        self.warm_codes: Optional[np.ndarray] = None
        self.pending_events: list[dict] = []
        self.convexify_directions = config.mechanism == "line-search"

    # -- phase bookkeeping --

    def enter_restoration(self, x: np.ndarray, h: float, source: str):
        self.phase = Phase.RESTORATION
        self.x_resto = np.asarray(x, dtype=float).copy()
        self.h_resto = float(h)
        self.resto_lam = np.zeros(self.problem.m)
        self.warm_codes = None
        self.pending_events.append({
            "type": "restoration_entry", "source": source,
            "x_resto": self.x_resto.tolist(), "h_resto": self.h_resto,
            "lambda_reset": True})
        log.debug("restoration entry (%s) at h=%.3e", source, h)

    def exit_restoration(self):
        self.phase = Phase.OPTIMALITY
        self.x_resto = None
        self.h_resto = None
        self.resto_lam = np.zeros(self.problem.m)
        self.warm_codes = None

    def apply_verdict(self, verdict, record):
        """Leave restoration if the verdict of the accepted record says so."""
        if verdict.new_phase is Phase.OPTIMALITY and \
                self.phase is Phase.RESTORATION:
            self.pending_events.append({
                "type": "restoration_exit", "h_trial": record.h_trial,
                "tau_before": record.tau,
                "tau_after": (record.tau if verdict.new_tau is None
                              else verdict.new_tau),
                "h_resto": self.h_resto})
            self.exit_restoration()

    # -- direction computation --

    def compute(self, x, c, h, grad_f, J, lam,
                delta: Optional[float]) -> DirectionResult:
        entered = False
        if self.phase is Phase.OPTIMALITY:
            res = self._optimality_direction(x, c, grad_f, J, lam, delta)
            if res is not None:
                return res
            # linearization infeasible: fall through to restoration
            self.enter_restoration(x, h, source="infeasible_qp")
            entered = True
        res = self._restoration_direction(x, c, grad_f, J, delta)
        res.entered_restoration = entered
        return res

    def _optimality_direction(self, x, c, grad_f, J, lam, delta):
        prob = self.problem
        sp = self.config.subproblem
        W = evaluate_lagrangian_hessian(prob, x, 1.0, lam, self.counters)
        qp = build_optimality_qp(x, grad_f, J, c, prob.lb, prob.ub, W, delta)
        feas_point = None
        eta = None
        if self.convexify_directions:
            probe = solve_qp(QpData(W=np.zeros_like(W), g=np.zeros(prob.n),
                                    A=qp.A, b=qp.b, lb=qp.lb, ub=qp.ub))
            if probe.status == "infeasible":
                return None
            feas_point = probe.x
            qp.W, eta = convexify(W, J, eta0=sp.eta0,
                                  eta_growth=sp.eta_growth,
                                  eta_max=sp.eta_max, min_eta=sp.eta0)
        sol, eta = self._solve(qp, W, eta, delta, feas_point,
                               warm_start=self.warm_codes)
        if sol.status == "infeasible":
            return None
        self.warm_codes = sol.active
        mu = self._strip_trust_region_multipliers(sol.x, sol.mu, x, delta)
        return DirectionResult(d=sol.x, lam=sol.lam, mu=mu, W_used=qp.W,
                               phase=Phase.OPTIMALITY, eta=eta,
                               n_pivots=sol.n_pivots)

    def _restoration_direction(self, x, c, grad_f, J, delta):
        prob = self.problem
        sp = self.config.subproblem
        W = evaluate_lagrangian_hessian(prob, x, 0.0, self.resto_lam,
                                        self.counters)
        W0, eta = W, None
        if self.convexify_directions:
            W0, eta = convexify(W, J, eta0=sp.eta0,
                                eta_growth=sp.eta_growth,
                                eta_max=sp.eta_max, min_eta=sp.eta0)
        fqp, z0 = build_feasibility_qp(x, J, c, prob.lb, prob.ub, W0, delta)
        sol, eta = self._solve(fqp, W, eta, delta, z0)
        if sol.status != "optimal":
            raise RegularizationFailed("elastic subproblem unsolvable")
        n, m = prob.n, prob.m
        d = sol.x[:n]
        u = sol.x[n:n + m]
        v = sol.x[n + m:]
        self.resto_lam = sol.lam.copy()
        mu = self._strip_trust_region_multipliers(d, sol.mu[:n], x, delta)
        feasible = float(np.sum(u) + np.sum(v)) <= sp.elastic_tol
        return DirectionResult(d=d, lam=sol.lam, mu=mu,
                               W_used=fqp.W[:n, :n],
                               phase=Phase.RESTORATION, eta=eta,
                               subproblem_feasible=feasible,
                               elastic_u=u, elastic_v=v,
                               n_pivots=sol.n_pivots)

    def _solve(self, qp, W, eta, delta, start, warm_start=None):
        """Solve qp; while it is unbounded (only an unbounded step box
        allows that) set its d block to W plus a growing diagonal shift.
        Returns (solution, shift)."""
        sp = self.config.subproblem
        n = self.problem.n
        sol = solve_qp(qp, warm_start=warm_start, feasible_start=start)
        retries = 0
        while sol.status == "unbounded":
            if delta is not None or retries >= 10:
                raise RegularizationFailed(
                    "subproblem stayed unbounded under regularization")
            retries += 1
            eta = (eta or sp.eta0) * sp.eta_growth
            if eta > sp.eta_max:
                raise RegularizationFailed(
                    f"no diagonal shift up to {sp.eta_max:g} bounds the subproblem")
            qp.W = qp.W.copy()      # the optimality QP's W is W itself
            qp.W[:n, :n] = W + eta * np.eye(n)
            sol = solve_qp(qp, feasible_start=start)
        return sol, eta

    def _strip_trust_region_multipliers(self, d, mu, x, delta):
        """Zero bound multipliers created by the trust region itself: the
        trust bound must be strictly inside the problem bound and binding."""
        mu = mu.copy()
        if delta is not None:
            prob = self.problem
            tol = self.config.trust_region.activity_tol * max(1.0, delta)
            mu[((-delta > prob.lb - x) & (np.abs(d + delta) <= tol))
               | ((delta < prob.ub - x) & (np.abs(d - delta) <= tol))] = 0.0
        return mu
