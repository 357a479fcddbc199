"""Inner-loop step control: trust-region and line-search mechanisms.

One call to run() moves the iterate to the next accepted trial point,
multipliers included, and returns that step's (verdict, trace row); None
when the trust radius collapses at a feasible point. The mechanism owns its
control state across outer iterations: the trust region keeps its radius.
Restoration entry, with its multiplier reset and stall rule, belongs to the
DirectionEngine; the funnel width or filter, to the strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SolverConfig
from .errors import NonFiniteValue, SmallStepInfeasible
from .problems import EvalCounters, NcoProblem, evaluate_functions, infeasibility
from .strategies import LABEL_REJ_EVAL, TrialData, progress_models
from .subproblems import DirectionEngine


@dataclass
class OuterState:
    """The iterate: the mechanisms move x, f, c, h and the multipliers to an
    accepted trial point, and the driver evaluates its derivatives."""
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
    # on a direction's first trial: its QP pivots and warm start ('hit',
    # 'miss', None without a hint); None on the trials after it
    qp_pivots: Optional[int] = None
    warm_start: Optional[str] = None


class _Mechanism:
    """What both mechanisms share: the trial of one step x + alpha d."""

    def __init__(self, problem: NcoProblem, config: SolverConfig,
                 engine: DirectionEngine, strategy, counters: EvalCounters):
        self.problem = problem
        self.config = config
        self.engine = engine
        self.strategy = strategy
        self.counters = counters

    def _trial(self, os: OuterState, dres, alpha: float, k: int, l: int,
               records: list, fresh: bool, delta: Optional[float] = None):
        """Evaluate x + alpha d, append its trace row (a row with a radius
        shows no alpha; only the direction's first trial, fresh, shows its
        shift and QP work) and let the strategy judge it. Returns its verdict
        if accepted, else None. An accepted trial becomes the iterate: its x,
        f, c and h are written into os, its multipliers left to the caller."""
        d = dres.d
        dn = float(np.abs(d).max(initial=0.0))
        x_t = os.x + alpha * d
        rec = IterationRecord(
            k=k if l == 1 else None, l=l, delta=delta,
            alpha=alpha if delta is None else None,
            regularization=dres.eta if fresh else None,
            tau=self.strategy.trace_value(), step_norm=alpha * dn,
            f_trial=math.nan, h_trial=math.nan, grad_lag=None,
            label=LABEL_REJ_EVAL, phase=dres.phase.value)
        if fresh:
            rec.qp_pivots, rec.warm_start = dres.n_pivots, dres.warm_start
        records.append(rec)
        try:
            f_t, c_t = evaluate_functions(self.problem, x_t, self.counters)
        except NonFiniteValue:
            return None
        h_t = infeasibility(c_t)
        models = progress_models(d, dres.W_used, os.grad_f, os.c, os.J, os.h)
        trial = TrialData(phase=dres.phase, f_k=os.f, h_k=os.h,
                          f_t=f_t, h_t=h_t, models=models, alpha=alpha,
                          full_step_norm=dn,
                          subproblem_feasible=dres.subproblem_feasible,
                          h_resto=self.engine.h_resto)
        verdict = self.strategy.decide(trial)
        rec.f_trial, rec.h_trial, rec.label = f_t, h_t, verdict.label
        if not verdict.accepted:
            return None
        os.x, os.f, os.c, os.h = x_t, f_t, c_t, h_t
        return verdict


class TrustRegionMechanism(_Mechanism):
    """Fixed full steps clipped by an adaptive radius."""

    def __init__(self, *args):
        super().__init__(*args)
        self.delta = self.config.trust_region.delta_init

    def run(self, os: OuterState, k: int, records: list):
        tr = self.config.trust_region
        l = 0
        while True:
            if self.delta < tr.delta_min:
                if os.h <= self.config.tol:
                    return None
                raise SmallStepInfeasible(
                    f"radius collapsed to {self.delta:.2e} at violation "
                    f"{os.h:.2e}")
            l += 1
            dres = self.engine.compute(os, k, self.delta)
            verdict = self._trial(os, dres, 1.0, k, l, records, True,
                                  delta=self.delta)
            dn = records[-1].step_norm      # alpha = 1: the full |d|_inf
            if verdict is not None:
                if dn >= self.delta * (1.0 - tr.activity_tol):
                    self.delta = min(tr.grow * self.delta, tr.delta_max)
                os.lam, os.mu = dres.lam.copy(), dres.mu.copy()
                return verdict, records[-1]
            self.delta = tr.shrink * min(self.delta, dn)


class LineSearchMechanism(_Mechanism):
    """Backtracking on a fixed direction with interpolated multipliers."""

    def run(self, os: OuterState, k: int, records: list):
        ls = self.config.line_search
        dres = self.engine.compute(os, k, None)
        fresh = True
        alpha = 1.0
        l = 0
        while True:
            if alpha < ls.alpha_min:
                # direction exhausted: drop to restoration from here
                self.engine.enter_restoration(os, k, "alpha_min")
                dres = self.engine.compute(os, k, None)
                fresh = True
                alpha = 1.0
                continue
            l += 1
            verdict = self._trial(os, dres, alpha, k, l, records, fresh)
            fresh = False
            if verdict is not None:
                os.lam = os.lam + alpha * (dres.lam - os.lam)
                os.mu = os.mu + alpha * (dres.mu - os.mu)
                return verdict, records[-1]
            alpha *= ls.backtrack
