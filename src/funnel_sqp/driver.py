"""Outer solve loop: commit accepted steps and classify termination.

Termination is checked only at committed iterates, in a fixed order:
unboundedness, then stationarity for the original problem, then stationarity
for the violation minimization (only meaningful while restoring). Everything
else (max iterations, collapsed radius, stalls) comes from the mechanisms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SolverConfig
from .errors import FunnelSqpError
from .mechanisms import (IterationRecord, LineSearchMechanism, OuterState,
                         TrustRegionMechanism)
from .problems import (EvalCounters, NcoProblem, evaluate_functions,
                       evaluate_gradients, infeasibility)
from .qp import complementarity
from .strategies import (LABEL_INFEASIBLE, LABEL_INITIAL, LABEL_OPTIMAL,
                         FilterStrategy, FunnelStrategy)
from .subproblems import DirectionEngine, Phase

log = logging.getLogger(__name__)


@dataclass
class SolveResult:
    status: str                  # kkt_point | infeasible_stationary |
    x: np.ndarray                # unbounded | max_iterations |
    lam: np.ndarray              # small_feasible_step | error
    mu: np.ndarray
    f: float
    h: float
    n_outer: int
    iterations: list
    counters: EvalCounters
    step_counts: dict
    events: list
    problem_name: str
    strategy: str
    mechanism: str
    error_kind: Optional[str] = None
    message: str = ""

    @property
    def success(self) -> bool:
        return self.status in ("kkt_point", "infeasible_stationary")


def lagrangian_gradient(grad_f, J, lam, mu, rho=1.0) -> np.ndarray:
    return rho * grad_f - J @ lam - mu


def _grad_lag_norm(os: OuterState, rho=1.0) -> float:
    """|grad L|_2 at the iterate; past the float range it reads inf."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(
            lagrangian_gradient(os.grad_f, os.J, os.lam, os.mu, rho)))


def _check_termination(os: OuterState, grad_lag: float, direction,
                       problem: NcoProblem,
                       config: SolverConfig) -> Optional[str]:
    """grad_lag is the iterate's |grad L|_2, the norm the trace reports."""
    tol = config.tol
    cmax = float(np.max(np.abs(os.c), initial=0.0))
    if os.f < config.unbounded_threshold and cmax <= tol:
        return "unbounded"
    comp = complementarity(os.x, problem.lb, problem.ub, os.mu)
    if grad_lag <= tol and cmax <= tol and comp <= tol:
        return "kkt_point"
    if direction.phase is Phase.RESTORATION:
        u, v = direction.elastic_u, direction.elastic_v
        comp_r = comp
        if u.size:
            comp_r = max(comp_r, float(np.max(np.abs(u * (1.0 + os.lam)))),
                         float(np.max(np.abs(v * (1.0 - os.lam)))))
        if _grad_lag_norm(os, rho=0.0) <= tol and cmax > tol \
                and comp_r <= tol:
            return "infeasible_stationary"
    return None


def solve(problem: NcoProblem, config: SolverConfig | None = None) -> SolveResult:
    config = (config or SolverConfig()).validated()
    counters = EvalCounters()
    records: list[IterationRecord] = []
    events: list[dict] = []
    step_counts = {"f_type": 0, "h_type": 0, "restoration": 0, "kkt_zero": 0}

    # f and h read NaN in an error result until the start is evaluated
    os = OuterState(x=problem.start_point(), f=math.nan, c=None, h=math.nan,
                    grad_f=None, J=None, lam=problem.start_multipliers(),
                    mu=np.zeros(problem.n))
    n_outer = 0

    def result(status: str, error: Optional[FunnelSqpError] = None):
        return SolveResult(
            status=status, x=os.x.copy(), lam=os.lam.copy(), mu=os.mu.copy(),
            f=os.f, h=os.h, n_outer=n_outer, iterations=records,
            counters=counters, step_counts=step_counts, events=events,
            problem_name=problem.name, strategy=config.strategy,
            mechanism=config.mechanism,
            error_kind=error.kind if error else None,
            message=str(error) if error else "")

    try:
        f, c = evaluate_functions(problem, os.x, counters)
        os.grad_f, os.J = evaluate_gradients(problem, os.x, counters)
    except FunnelSqpError as e:
        return result("error", e)
    os.f, os.c, os.h = f, c, infeasibility(c)

    zero_tol = config.subproblem.zero_step_tol
    strategy = (FunnelStrategy(config.funnel, zero_tol)
                if config.strategy == "funnel"
                else FilterStrategy(config.filter, zero_tol))
    sstate = strategy.init_state(os.h)
    engine = DirectionEngine(problem, config, counters, events)
    tr = config.mechanism == "trust-region"
    mech = (TrustRegionMechanism if tr else LineSearchMechanism)(
        problem, config, engine, strategy, counters)

    records.append(IterationRecord(
        k=0, l=None, delta=config.trust_region.delta_init if tr else None,
        alpha=None, regularization=None,
        tau=strategy.trace_value(sstate), step_norm=None, f_trial=os.f,
        h_trial=os.h, grad_lag=_grad_lag_norm(os),
        label=LABEL_INITIAL, phase=engine.phase.value))
    log.info("solve %s: strategy=%s mechanism=%s n=%d m=%d",
             problem.name, config.strategy, config.mechanism,
             problem.n, problem.m)

    status = "max_iterations"
    for k in range(1, config.max_outer + 1):
        try:
            outcome = mech.run(os, sstate, k, records)
            if outcome.terminated:
                status = outcome.status
                break
            os.x, os.f, os.c, os.h = outcome.x, outcome.f, outcome.c, outcome.h
            os.lam = np.asarray(outcome.lam, dtype=float)
            os.mu = np.asarray(outcome.mu, dtype=float)
            os.grad_f, os.J = evaluate_gradients(problem, os.x, counters)
            n_outer = k
            verdict = outcome.verdict
            sstate = strategy.commit(sstate, verdict)
            engine.apply_verdict(verdict, outcome.record, k)
        except FunnelSqpError as e:
            log.info("solve %s stopped: %s", problem.name, e)
            return result("error", e)
        step_counts[verdict.step_type.replace("-", "_")] += 1
        outcome.record.grad_lag = grad_lag = _grad_lag_norm(os)
        log.debug("k=%d accepted %s: f=%.8e h=%.3e |gradL|=%.3e",
                  k, verdict.step_type, os.f, os.h, grad_lag)
        term = _check_termination(os, grad_lag, outcome.direction, problem,
                                  config)
        if term is not None:
            status = term
            if term == "kkt_point":
                outcome.record.label = LABEL_OPTIMAL
            elif term == "infeasible_stationary":
                outcome.record.label = LABEL_INFEASIBLE
            break

    log.info("solve %s finished: status=%s outer=%d f=%.8e h=%.3e",
             problem.name, status, n_outer, os.f, os.h)
    return result(status)


def format_trace(result: SolveResult) -> str:
    """Plain-text iteration table in the trace layout."""
    is_tr = result.mechanism == "trust-region"
    if is_tr:
        header = (f"{'k':>4} {'l':>3} {'radius':>9} {'tau':>9} "
                  f"{'|d|':>9} {'f':>13} {'h':>9} {'|gradL|':>9}  status")
    else:
        header = (f"{'k':>4} {'l':>3} {'alpha':>9} {'reg':>9} {'tau':>9} "
                  f"{'|d|':>9} {'f':>13} {'h':>9} {'|gradL|':>9}  status")
    out = [header, "-" * len(header)]

    def num(v, fmt="%9.2e"):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return f"{'--':>9}"
        return fmt % v

    for r in result.iterations:
        k = "--" if r.k is None else str(r.k)
        l = "--" if r.l is None else str(r.l)
        cells = [f"{k:>4}", f"{l:>3}"]
        if is_tr:
            cells.append(num(r.delta))
        else:
            cells.append(num(r.alpha))
            cells.append(num(r.regularization))
        cells.append(num(r.tau))
        cells.append(num(r.step_norm))
        cells.append(num(r.f_trial, "%13.6e"))
        cells.append(num(r.h_trial))
        cells.append(num(r.grad_lag))
        cells.append(f" {r.label}")
        out.append(" ".join(cells))
    return "\n".join(out)
