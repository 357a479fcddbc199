"""Inner-loop step control: trust-region and line-search mechanisms.

One call to run() produces exactly one committed outer iterate (or a
terminal signal). The mechanism owns its control state across outer
iterations: the trust region keeps its radius, the line search keeps its
consecutive-restoration-entry counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SolverConfig
from .errors import NonFiniteValue, RestorationStall, SmallStepInfeasible
from .problems import EvalCounters, NcoProblem, evaluate_functions, infeasibility
from .strategies import LABEL_REJ_EVAL, TrialData, progress_models
from .subproblems import DirectionEngine


@dataclass
class OuterState:
    """Committed iterate data the mechanisms read and the driver updates."""
    x: np.ndarray
    f: float
    c: np.ndarray
    h: float
    grad_f: np.ndarray
    J: np.ndarray
    lam: np.ndarray
    mu: np.ndarray


@dataclass
class IterationRecord:
    """One trace row: a trial point with its control values (pre-update)."""
    k: Optional[int]
    l: Optional[int]
    delta: Optional[float]
    alpha: Optional[float]
    regularization: Optional[float]
    tau: float
    step_norm: Optional[float]
    f_trial: float
    h_trial: float
    grad_lag: Optional[float]
    label: str
    phase: str


@dataclass
class InnerOutcome:
    terminated: bool = False
    status: Optional[str] = None
    x: Optional[np.ndarray] = None
    f: float = math.nan
    c: Optional[np.ndarray] = None
    h: float = math.nan
    lam: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    verdict: object = None
    record: Optional[IterationRecord] = None
    direction: object = None


class _Mechanism:
    """What both mechanisms share: the trial of one step x + alpha d."""

    def __init__(self, problem: NcoProblem, config: SolverConfig,
                 engine: DirectionEngine, strategy, counters: EvalCounters):
        self.problem = problem
        self.config = config
        self.engine = engine
        self.strategy = strategy
        self.counters = counters

    def _trial(self, os: OuterState, sstate, dres, alpha: float, k: int,
               l: int, records: list, reg: Optional[float],
               delta: Optional[float] = None):
        """Evaluate x + alpha d, append its trace row (a row with a radius
        shows no alpha) and let the strategy judge it. Returns (outcome,
        |d|_inf): outcome is None unless accepted, and then lacks lam, mu."""
        d = dres.d
        dn = float(np.max(np.abs(d), initial=0.0))
        x_t = os.x + alpha * d
        rec = IterationRecord(
            k=k if l == 1 else None, l=l, delta=delta,
            alpha=alpha if delta is None else None, regularization=reg,
            tau=self.strategy.trace_value(sstate), step_norm=alpha * dn,
            f_trial=math.nan, h_trial=math.nan, grad_lag=None,
            label=LABEL_REJ_EVAL, phase=dres.phase.value)
        records.append(rec)
        try:
            f_t, c_t = evaluate_functions(self.problem, x_t, self.counters)
        except NonFiniteValue:
            return None, dn
        h_t = infeasibility(c_t)
        models = progress_models(d, dres.W_used, os.grad_f, os.c, os.J)
        trial = TrialData(phase=dres.phase, f_k=os.f, h_k=os.h,
                          f_t=f_t, h_t=h_t, models=models, alpha=alpha,
                          full_step_norm=dn, step_norm=rec.step_norm,
                          subproblem_feasible=dres.subproblem_feasible,
                          h_resto=self.engine.h_resto)
        verdict = self.strategy.decide(sstate, trial)
        rec.f_trial, rec.h_trial, rec.label = f_t, h_t, verdict.label
        if not verdict.accepted:
            return None, dn
        return InnerOutcome(x=x_t, f=f_t, c=c_t, h=h_t, verdict=verdict,
                            record=rec, direction=dres), dn


class TrustRegionMechanism(_Mechanism):
    """Fixed full steps clipped by an adaptive radius."""

    def __init__(self, *args):
        super().__init__(*args)
        self.delta = self.config.trust_region.delta_init

    def run(self, os: OuterState, sstate, k: int,
            records: list) -> InnerOutcome:
        tr = self.config.trust_region
        l = 0
        while True:
            if self.delta < tr.delta_min:
                if os.h <= self.config.tol:
                    return InnerOutcome(terminated=True,
                                        status="small_feasible_step")
                raise SmallStepInfeasible(
                    f"radius collapsed to {self.delta:.2e} at violation "
                    f"{os.h:.2e}")
            l += 1
            dres = self.engine.compute(os.x, os.c, os.h, os.grad_f,
                                       os.J, os.lam, delta=self.delta)
            if dres.entered_restoration:
                os.lam[:] = 0.0
            out, dn = self._trial(os, sstate, dres, 1.0, k, l, records,
                                  dres.eta, delta=self.delta)
            if out is not None:
                if dn >= self.delta * (1.0 - tr.activity_tol):
                    self.delta = min(tr.grow * self.delta, tr.delta_max)
                out.lam, out.mu = dres.lam.copy(), dres.mu.copy()
                return out
            self.delta = tr.shrink * min(self.delta, dn)


class LineSearchMechanism(_Mechanism):
    """Backtracking on a fixed direction with interpolated multipliers."""

    consecutive_entries = 0     # becomes per instance at the first entry

    def _note_entry(self):
        self.consecutive_entries += 1
        if self.consecutive_entries >= 2:
            raise RestorationStall(
                "two restoration entries without an accepted step")

    def run(self, os: OuterState, sstate, k: int,
            records: list) -> InnerOutcome:
        ls = self.config.line_search
        dres = self.engine.compute(os.x, os.c, os.h, os.grad_f, os.J,
                                   os.lam, delta=None)
        if dres.entered_restoration:
            self._note_entry()
            os.lam[:] = 0.0
        fresh = True
        alpha = 1.0
        l = 0
        while True:
            if alpha < ls.alpha_min:
                # direction exhausted: drop to restoration from here
                self._note_entry()
                self.engine.enter_restoration(os.x, os.h, source="alpha_min")
                os.lam[:] = 0.0
                dres = self.engine.compute(os.x, os.c, os.h, os.grad_f,
                                           os.J, os.lam, delta=None)
                fresh = True
                alpha = 1.0
                continue
            l += 1
            out, _ = self._trial(os, sstate, dres, alpha, k, l, records,
                                 dres.eta if fresh else None)
            fresh = False
            if out is not None:
                out.lam = os.lam + alpha * (dres.lam - os.lam)
                out.mu = os.mu + alpha * (dres.mu - os.mu)
                self.consecutive_entries = 0
                return out
            alpha *= ls.backtrack
