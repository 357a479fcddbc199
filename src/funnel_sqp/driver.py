"""Outer solve loop: commit accepted steps and classify termination.

Termination is checked only at committed iterates, in a fixed order:
unboundedness, then stationarity for the original problem, then stationarity
for the violation minimization (only meaningful while restoring). Everything
else (max iterations, collapsed radius, stalls) comes from the mechanisms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import SolverConfig
from .errors import FunnelSqpError
from .mechanisms import (InnerOutcome, IterationRecord, LineSearchMechanism,
                         OuterState, TrustRegionMechanism)
from .problems import (EvalCounters, NcoProblem, evaluate_functions,
                       evaluate_gradients, infeasibility)
from .strategies import (LABEL_INFEASIBLE, LABEL_INITIAL, LABEL_OPTIMAL,
                         FilterStrategy, FunnelStrategy)
from .subproblems import DirectionEngine, Phase

log = logging.getLogger(__name__)

GAP_CAP = 1e10      # stand-in gap for infinite bounds in complementarity


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


def complementarity(x, lb, ub, mu) -> float:
    """Worst |mu_i| * gap, the gap taken on the side mu_i pushes against."""
    pushed = (lb != ub) & (mu != 0.0)
    gap = np.where(mu > 0.0, x - lb, ub - x)[pushed]
    return float(np.max(np.abs(mu[pushed]) * np.minimum(gap, GAP_CAP),
                        initial=0.0))


def lagrangian_gradient(grad_f, J, lam, mu, rho=1.0) -> np.ndarray:
    return rho * grad_f - J @ lam - mu


def _check_termination(os: OuterState, engine: DirectionEngine,
                       direction, problem: NcoProblem,
                       config: SolverConfig) -> Optional[str]:
    tol = config.tol
    cmax = float(np.max(np.abs(os.c), initial=0.0))
    if os.f < config.unbounded_threshold and cmax <= tol:
        return "unbounded"
    comp = complementarity(os.x, problem.lb, problem.ub, os.mu)
    # the stationarity residual is tested in the same norm the trace reports
    gl = lagrangian_gradient(os.grad_f, os.J, os.lam, os.mu)
    if float(np.linalg.norm(gl)) <= tol and cmax <= tol and comp <= tol:
        return "kkt_point"
    if direction is not None and direction.phase is Phase.RESTORATION \
            and engine.last_fqp is not None:
        fq = engine.last_fqp
        gl0 = lagrangian_gradient(os.grad_f, os.J, os.lam, os.mu, rho=0.0)
        comp_r = comp
        if fq["u"].size:
            comp_r = max(comp_r,
                         float(np.max(np.abs(fq["u"] * (1.0 + os.lam)))),
                         float(np.max(np.abs(fq["v"] * (1.0 - os.lam)))))
        if float(np.linalg.norm(gl0)) <= tol and cmax > tol \
                and comp_r <= tol:
            return "infeasible_stationary"
    return None


_COUNT_KEY = {"f-type": "f_type", "h-type": "h_type",
              "restoration": "restoration", "kkt-zero": "kkt_zero"}


def _drain_events(engine: DirectionEngine, events: list, k: int):
    for ev in engine.pending_events:
        ev["k"] = k
        events.append(ev)
    engine.pending_events.clear()


def solve(problem: NcoProblem, config: SolverConfig | None = None) -> SolveResult:
    config = (config or SolverConfig()).validated()
    counters = EvalCounters()
    records: list[IterationRecord] = []
    events: list[dict] = []
    step_counts = {"f_type": 0, "h_type": 0, "restoration": 0, "kkt_zero": 0}

    x = problem.start_point()
    lam = problem.start_multipliers()
    mu = np.zeros(problem.n)

    def failed(e: FunnelSqpError, os=None, n_outer=0):
        return SolveResult(
            status="error",
            x=(os.x if os else x).copy(), lam=(os.lam if os else lam).copy(),
            mu=(os.mu if os else mu).copy(),
            f=(os.f if os else math.nan), h=(os.h if os else math.nan),
            n_outer=n_outer, iterations=records, counters=counters,
            step_counts=step_counts, events=events,
            problem_name=problem.name, strategy=config.strategy,
            mechanism=config.mechanism, error_kind=e.kind, message=str(e))

    try:
        f, c = evaluate_functions(problem, x, counters)
        h = infeasibility(c)
        grad_f, J = evaluate_gradients(problem, x, counters)
    except FunnelSqpError as e:
        return failed(e)

    os = OuterState(x=x, f=f, c=c, h=h, grad_f=grad_f, J=J, lam=lam, mu=mu)

    if config.strategy == "funnel":
        strategy = FunnelStrategy(config.funnel,
                                  config.subproblem.zero_step_tol)
    else:
        strategy = FilterStrategy(config.filter,
                                  config.subproblem.zero_step_tol)
    sstate = strategy.init_state(h)
    engine = DirectionEngine(problem, config, counters)
    if config.mechanism == "trust-region":
        mech = TrustRegionMechanism(problem, config, engine, strategy,
                                    counters)
        init_delta = config.trust_region.delta_init
    else:
        mech = LineSearchMechanism(problem, config, engine, strategy,
                                   counters)
        init_delta = None

    gl0 = lagrangian_gradient(os.grad_f, os.J, os.lam, os.mu)
    records.append(IterationRecord(
        k=0, l=None, delta=init_delta, alpha=None, regularization=None,
        tau=strategy.trace_value(sstate), step_norm=None, f_trial=os.f,
        h_trial=os.h, grad_lag=float(np.linalg.norm(gl0)),
        label=LABEL_INITIAL, phase=engine.phase.value))
    log.info("solve %s: strategy=%s mechanism=%s n=%d m=%d",
             problem.name, config.strategy, config.mechanism,
             problem.n, problem.m)

    status = "max_iterations"
    n_outer = 0
    for k in range(1, config.max_outer + 1):
        try:
            outcome = mech.run(os, sstate, k, records)
        except FunnelSqpError as e:
            _drain_events(engine, events, k)
            log.info("solve %s stopped: %s", problem.name, e)
            return failed(e, os=os, n_outer=n_outer)
        if outcome.terminated:
            _drain_events(engine, events, k)
            status = outcome.status
            break
        os.x, os.f, os.c, os.h = outcome.x, outcome.f, outcome.c, outcome.h
        os.lam = np.asarray(outcome.lam, dtype=float)
        os.mu = np.asarray(outcome.mu, dtype=float)
        try:
            os.grad_f, os.J = evaluate_gradients(problem, os.x, counters)
        except FunnelSqpError as e:
            _drain_events(engine, events, k)
            return failed(e, os=os, n_outer=n_outer)
        n_outer = k
        verdict = outcome.verdict
        if verdict.new_phase is Phase.OPTIMALITY and \
                outcome.direction.phase is Phase.RESTORATION:
            tau_before = outcome.record.tau
            events.append({
                "type": "restoration_exit", "k": k, "h_trial": os.h,
                "tau_before": tau_before,
                "tau_after": (verdict.new_tau if verdict.new_tau is not None
                              else tau_before),
                "h_resto": engine.h_resto})
        sstate = strategy.commit(sstate, verdict)
        engine.apply_verdict(verdict)
        _drain_events(engine, events, k)
        step_counts[_COUNT_KEY[verdict.step_type]] += 1
        gl = lagrangian_gradient(os.grad_f, os.J, os.lam, os.mu)
        outcome.record.grad_lag = float(np.linalg.norm(gl))
        log.debug("k=%d accepted %s: f=%.8e h=%.3e |gradL|=%.3e",
                  k, verdict.step_type, os.f, os.h,
                  outcome.record.grad_lag)
        term = _check_termination(os, engine, outcome.direction, problem,
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
    return SolveResult(
        status=status, x=os.x.copy(), lam=os.lam.copy(), mu=os.mu.copy(),
        f=os.f, h=os.h, n_outer=n_outer, iterations=records,
        counters=counters, step_counts=step_counts, events=events,
        problem_name=problem.name, strategy=config.strategy,
        mechanism=config.mechanism)


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
