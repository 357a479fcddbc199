"""Step acceptance: funnel and filter globalization.

Each strategy owns its globalization state: the funnel its width tau, the
filter its entries and infeasibility cap h_max, both set from the start's
violation h0. decide() judges a trial against that state and never writes it;
commit() applies the update an accepted verdict carries. So every test of a
step uses the width (or filter) held BEFORE it; the width shrinks only
through the verdict.

A restoration-phase trial whose elastic subproblem came back clean and whose
violation clears the re-entry bound is routed through the regular optimality
assessment; the bound implies both the funnel test and the h-type condition,
so such a trial can only be rejected by a failed objective Armijo test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .subproblems import Phase

LABEL_INITIAL = "initial point"
LABEL_F_TYPE = "f-type step"
LABEL_H_TYPE = "h-type step"
LABEL_RESTORATION = "restoration step"
LABEL_REJ_FUNNEL = "rejected (funnel)"
LABEL_REJ_FILTER = "rejected (filter)"
LABEL_REJ_ARMIJO = "rejected (Armijo)"
LABEL_REJ_EVAL = "rejected (evaluation)"
LABEL_OPTIMAL = "eps-optimal"
LABEL_INFEASIBLE = "infeasible stationary"


@dataclass
class ProgressModels:
    """Linear/quadratic model reductions for the full step d."""
    pred_f: float        # - 1/2 d^T W d - g^T d
    pred_h: float        # h - |c + J^T d|_1


def progress_models(d, W, grad_f, c, J, h: float) -> ProgressModels:
    """The models at an iterate with violation h = |c|_1."""
    m_h = float(np.abs(c + J.T @ d).sum()) if c.size else 0.0
    pred_f = float(-0.5 * d @ W @ d - grad_f @ d)
    return ProgressModels(pred_f=pred_f, pred_h=h - m_h)


@dataclass
class TrialData:
    """Everything a strategy needs to judge one trial point."""
    phase: Phase
    f_k: float
    h_k: float
    f_t: float
    h_t: float
    models: ProgressModels
    alpha: float = 1.0            # step fraction actually applied (1 for TR)
    full_step_norm: float = 0.0   # |d|_inf of the unscaled direction
    subproblem_feasible: bool = True
    h_resto: Optional[float] = None


@dataclass
class StepVerdict:
    accepted: bool
    label: str
    step_type: Optional[str] = None      # 'f-type'|'h-type'|'restoration'|'kkt-zero'
    new_phase: Optional[Phase] = None
    new_tau: Optional[float] = None      # funnel only
    filter_add: Optional[tuple] = None   # filter only: entry (h_k, f_k)


class _Globalization:
    """The decision both strategies share. Each supplies reject_label, the
    tests _exits (may a clean restoration trial leave restoration) and
    _admissible, and _h_type (the verdict on an admissible non-f-type trial)."""

    def __init__(self, params, zero_step_tol: float = 1e-14):
        self.params = params
        self.zero_step_tol = zero_step_tol

    def decide(self, trial: TrialData) -> StepVerdict:
        p = self.params
        restoring = trial.phase is Phase.RESTORATION
        if trial.full_step_norm <= self.zero_step_tol:
            # a zero step on a clean elastic subproblem sits on a feasible
            # point: leave restoration, or the outer loop never ends
            done = restoring and trial.subproblem_feasible
            return StepVerdict(True, LABEL_F_TYPE, step_type="kkt-zero",
                               new_phase=Phase.OPTIMALITY if done else None)
        exiting = (restoring and trial.subproblem_feasible
                   and self._exits(trial))
        if restoring and not exiting:
            # pure restoration progress: Armijo on the violation model
            if trial.h_k - trial.h_t >= \
                    p.sigma * trial.alpha * trial.models.pred_h:
                return StepVerdict(True, LABEL_RESTORATION,
                                   step_type="restoration")
            return StepVerdict(False, LABEL_REJ_ARMIJO)
        new_phase = Phase.OPTIMALITY if exiting else None
        if not self._admissible(trial):
            return StepVerdict(False, self.reject_label)
        if trial.models.pred_f >= p.delta * trial.h_k ** 2:
            if trial.f_k - trial.f_t >= \
                    p.sigma * trial.alpha * trial.models.pred_f:
                return StepVerdict(True, LABEL_F_TYPE, step_type="f-type",
                                   new_phase=new_phase)
            return StepVerdict(False, LABEL_REJ_ARMIJO)
        return self._h_type(trial, new_phase)


# ------------------ funnel ------------------

class FunnelStrategy(_Globalization):
    """Admissible infeasibility shrinks along a funnel tau."""

    name = "funnel"
    reject_label = LABEL_REJ_FUNNEL
    # on each class itself: the benchmark tracer patches vars(cls)["decide"]
    decide = _Globalization.decide

    def __init__(self, params, h0: float, zero_step_tol: float = 1e-14):
        super().__init__(params, zero_step_tol)
        self.tau = max(params.tau_bar, params.kappa_bar * h0)

    def trace_value(self) -> float:
        return self.tau

    def _exits(self, trial: TrialData) -> bool:
        return trial.h_resto is not None and \
            trial.h_t <= self.params.beta * min(self.tau, trial.h_resto)

    def _admissible(self, trial: TrialData) -> bool:
        return trial.h_t <= self.tau

    def _h_type(self, trial: TrialData, new_phase):
        p = self.params
        if trial.h_t <= p.beta * self.tau:
            if p.gould_update:
                new_tau = max(p.beta * self.tau,
                              (1.0 - p.kappa) * trial.h_t
                              + p.kappa * trial.h_k)
            else:
                new_tau = (1.0 - p.kappa) * trial.h_t + p.kappa * self.tau
            return StepVerdict(True, LABEL_H_TYPE, step_type="h-type",
                               new_phase=new_phase, new_tau=new_tau)
        return StepVerdict(False, LABEL_REJ_FUNNEL)

    def commit(self, verdict: StepVerdict) -> None:
        if verdict.accepted and verdict.new_tau is not None:
            self.tau = verdict.new_tau


# ------------------ filter ------------------

class FilterStrategy(_Globalization):
    """Classic (h, f) filter with a hard infeasibility cap."""

    name = "filter"
    reject_label = LABEL_REJ_FILTER
    decide = _Globalization.decide

    def __init__(self, params, h0: float, zero_step_tol: float = 1e-14):
        super().__init__(params, zero_step_tol)
        self.entries: list = []     # (h, f) pairs
        self.h_max = max(params.tau_bar, params.kappa_bar * h0)

    def trace_value(self) -> float:
        return float(len(self.entries))

    def acceptable(self, h_t: float, f_t: float) -> bool:
        p = self.params
        if h_t > p.beta * self.h_max:
            return False
        for hp, fp in self.entries:
            if not (h_t <= p.beta * hp or f_t <= fp - p.gamma * h_t):
                return False
        return True

    def _admissible(self, trial: TrialData) -> bool:
        return self.acceptable(trial.h_t, trial.f_t)

    # a clean restoration trial leaves restoration when the filter takes it
    _exits = _admissible

    def _h_type(self, trial: TrialData, new_phase):
        # h-type: must also be acceptable to the current pair (h_k, f_k)
        p = self.params
        if trial.h_t <= p.beta * trial.h_k or \
                trial.f_t <= trial.f_k - p.gamma * trial.h_t:
            return StepVerdict(True, LABEL_H_TYPE, step_type="h-type",
                               new_phase=new_phase,
                               filter_add=(trial.h_k, trial.f_k))
        return StepVerdict(False, LABEL_REJ_FILTER)

    def commit(self, verdict: StepVerdict) -> None:
        if not (verdict.accepted and verdict.filter_add is not None):
            return
        hk, fk = verdict.filter_add
        entries = [(hp, fp) for hp, fp in self.entries
                   if not (hk <= hp and fk <= fp)]
        entries.append((hk, fk))
        if len(entries) > self.params.capacity:
            worst = max(range(len(entries)), key=lambda i: entries[i][0])
            self.h_max = entries[worst][0]
            entries.pop(worst)
        self.entries = entries
