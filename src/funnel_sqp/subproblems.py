"""Direction computation: local QPs, elastic feasibility QPs, convexification.

The optimality QP linearizes the constraints and keeps the exact Lagrangian
Hessian (trust-region variant) or an inertia-corrected one (line-search
variant). When its linearization is infeasible the engine switches itself to
restoration and works on the elastic feasibility QP instead, whose Hessian
uses the restoration multipliers (zero right after entry, then the previous
elastic QP's own multipliers). Each QP warm-starts from the working set of
the last QP of its phase. The first elastic QP after an infeasible verdict
starts where phase 1's elastic LP, over the same constraints and step box,
stopped: from its final point and working set.

convexify is the only eta ladder. In the elastic QP u and v absorb any
J^T d, so d is free in all of R^n: an unbounded line-search elastic QP is
solved once more with its d block convexified on all of R^n. Any other
unbounded QP raises RegularizationFailed. convexify's pivoted QR of J and
the reduced Hessian its last rung certified are the factors of the
optimality QP's working set with every variable free, so line search hands
them to solve_qp and factors J once per direction.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SolverConfig, SubproblemParams
from .errors import RegularizationFailed, RestorationStall
from .linalg import ldlt_factorize, nullspace_basis
from .problems import EvalCounters, NcoProblem, evaluate_lagrangian_hessian
from .qp import ELASTIC_TOL, QpData, elastic_problem, solve_qp

log = logging.getLogger(__name__)


class Phase(enum.Enum):
    OPTIMALITY = "optimality"
    RESTORATION = "restoration"


def convexify(W: np.ndarray, A: np.ndarray, sp: SubproblemParams):
    """Smallest diagonal shift making W + eta*I positive definite on the
    null space of A^T, detected through the reduced-Hessian inertia.

    Z is nullspace_basis(A).Z, split at the pivoted-QR rank by which
    solve_qp splits each working set of the same A. A rung passes
    when the k x k matrix Z^T W Z + eta*I has inertia (k, 0, 0). For the
    KKT matrix K of W + eta*I and A, inertia(K) = inertia(Z^T (W + eta*I) Z)
    + (r, r, m - r) (Gould 1985; Nocedal & Wright, Thm 16.3), so this is
    K's inertia test without forming K.

    Tries sp.eta0, then multiplies by sp.eta_growth while the shift stays
    within sp.eta_max. Returns (W + eta*I, eta, (factors, H)): factors is
    nullspace_basis(A), and H = R + eta*I_k, with R the symmetrized Z^T W Z,
    is the matrix the passing rung certified. They are the factors of a QP
    working set with every variable free, and solve_qp takes them as
    free_factors. Raises RegularizationFailed when no rung gives the
    inertia. An A with no columns asks for W + eta*I positive definite on
    all of R^n.
    """
    factors = nullspace_basis(A)
    R = factors.Z.T @ W @ factors.Z
    R = 0.5 * (R + R.T)
    k = R.shape[0]
    eta = sp.eta0
    while True:
        H = R + eta * np.eye(k)
        if ldlt_factorize(H).inertia == (k, 0, 0):
            return W + eta * np.eye(W.shape[0]), eta, (factors, H)
        eta *= sp.eta_growth
        if eta > sp.eta_max:
            raise RegularizationFailed(
                f"no diagonal shift up to {sp.eta_max:g} gives the required"
                " inertia")


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
    subproblem_feasible: bool = True
    elastic_u: Optional[np.ndarray] = None
    elastic_v: Optional[np.ndarray] = None
    n_pivots: int = 0            # QP pivots, an infeasible optimality QP's included
    warm_start: Optional[str] = None   # the direction QP's QpSolution.warm_start


class DirectionEngine:
    """Owns the solver phase and everything the subproblems remember
    between calls: restoration anchor, restoration multipliers, warm starts.
    It alone enters and leaves restoration, and appends each entry and exit
    event, stamped with its outer iteration k, to the solve's event list."""

    def __init__(self, problem: NcoProblem, config: SolverConfig,
                 counters: EvalCounters, events: list):
        self.problem = problem
        self.config = config
        self.counters = counters
        self.events = events
        self.entries = 0        # restoration entries since the last accept
        self.convexify_directions = config.mechanism == "line-search"
        self._set_phase(Phase.OPTIMALITY)

    # -- phase bookkeeping --

    def _set_phase(self, phase: Phase, x_resto=None, h_resto=None):
        self.phase, self.x_resto, self.h_resto = phase, x_resto, h_resto
        self.resto_lam = np.zeros(self.problem.m)
        # the working set of the phase's last QP, the next one's warm start;
        # entry and exit clear it, so a phase never sees the other's codes
        self.warm_codes: Optional[np.ndarray] = None

    def enter_restoration(self, os, k: int, source: str):
        """Anchor restoration at the iterate os and zero os.lam in place. A
        second entry since the last accepted step raises RestorationStall.
        Only line search can meet that rule: trust region enters only from
        the optimality phase, which only an accepted step returns to."""
        self.entries += 1
        if self.entries >= 2:
            raise RestorationStall(
                "two restoration entries without an accepted step")
        self._set_phase(Phase.RESTORATION,
                        np.asarray(os.x, dtype=float).copy(), float(os.h))
        os.lam[:] = 0.0
        self.events.append({
            "type": "restoration_entry", "source": source,
            "x_resto": self.x_resto.tolist(), "h_resto": self.h_resto,
            "lambda_reset": True, "k": k})
        log.debug("restoration entry (%s) at h=%.3e", source, os.h)

    def apply_verdict(self, verdict, record, k: int):
        """Note the accepted step of outer iteration k, and leave restoration
        if its verdict says so."""
        self.entries = 0
        if verdict.new_phase is Phase.OPTIMALITY and \
                self.phase is Phase.RESTORATION:
            self.events.append({
                "type": "restoration_exit", "h_trial": record.h_trial,
                "tau_before": record.tau,
                "tau_after": (record.tau if verdict.new_tau is None
                              else verdict.new_tau),
                "h_resto": self.h_resto, "k": k})
            self._set_phase(Phase.OPTIMALITY)

    # -- direction computation --

    def compute(self, os, k: int, delta: Optional[float]) -> DirectionResult:
        """The direction at the iterate os of outer iteration k."""
        if self.phase is Phase.OPTIMALITY:
            return self._optimality_direction(os, k, delta)
        return self._restoration_direction(os, delta)

    def _optimality_direction(self, os, k, delta):
        """The optimality direction; when the linearization is infeasible,
        the first restoration direction instead."""
        prob = self.problem
        W = evaluate_lagrangian_hessian(prob, os.x, 1.0, os.lam,
                                        self.counters)
        qp = build_optimality_qp(os.x, os.grad_f, os.J, os.c, prob.lb,
                                 prob.ub, W, delta)
        eta = free = None
        if self.convexify_directions:
            # J's factors serve the QP's all-free working set too
            qp.W, eta, free = convexify(W, os.J, self.config.subproblem)
        sol = solve_qp(qp, warm_start=self.warm_codes, free_factors=free)
        if sol.status == "infeasible":
            # restoration starts where phase 1's elastic LP left the same
            # constraints
            self.enter_restoration(os, k, "infeasible_qp")
            return self._restoration_direction(os, delta, sol.lp,
                                               sol.n_pivots)
        if sol.status == "unbounded":
            raise RegularizationFailed("optimality subproblem unbounded")
        self.warm_codes = sol.active
        mu = self._strip_trust_region_multipliers(sol.x, sol.mu, os.x, delta)
        return DirectionResult(d=sol.x, lam=sol.lam, mu=mu, W_used=qp.W,
                               phase=Phase.OPTIMALITY, eta=eta,
                               n_pivots=sol.n_pivots,
                               warm_start=sol.warm_start)

    def _restoration_direction(self, os, delta, lp=None, pivots=0):
        """The elastic QP's direction, warm-started from the previous elastic
        QP's working set, or from lp = (z, working set) of phase 1. pivots
        are earlier QPs' pivots that the direction counts as its own."""
        prob = self.problem
        sp = self.config.subproblem
        x, J = os.x, os.J
        W = evaluate_lagrangian_hessian(prob, x, 0.0, self.resto_lam,
                                        self.counters)
        W0, eta = W, None
        if self.convexify_directions:
            W0, eta, _ = convexify(W, J, sp)
        fqp, z0 = build_feasibility_qp(x, J, os.c, prob.lb, prob.ub, W0,
                                       delta)
        if lp is not None:
            z0, self.warm_codes = lp
        sol = solve_qp(fqp, warm_start=self.warm_codes, feasible_start=z0)
        n, m = prob.n, prob.m
        if sol.status == "unbounded" and self.convexify_directions:
            # u and v absorb any J^T d, so d is free in all of R^n
            pivots += sol.n_pivots
            fqp.W[:n, :n], eta, _ = convexify(W, J[:, :0], sp)
            sol = solve_qp(fqp, feasible_start=z0)
        if sol.status != "optimal":
            raise RegularizationFailed("elastic subproblem unsolvable")
        self.warm_codes = sol.active
        d = sol.x[:n]
        u = sol.x[n:n + m]
        v = sol.x[n + m:]
        self.resto_lam = sol.lam.copy()
        mu = self._strip_trust_region_multipliers(d, sol.mu[:n], x, delta)
        feasible = float(np.sum(u) + np.sum(v)) <= ELASTIC_TOL
        return DirectionResult(d=d, lam=sol.lam, mu=mu,
                               W_used=fqp.W[:n, :n],
                               phase=Phase.RESTORATION, eta=eta,
                               subproblem_feasible=feasible,
                               elastic_u=u, elastic_v=v,
                               n_pivots=sol.n_pivots + pivots,
                               warm_start=sol.warm_start)

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
