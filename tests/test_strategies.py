"""Funnel and filter acceptance logic on hand-built trials."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from funnel_sqp.config import FilterParams, FunnelParams
from funnel_sqp.strategies import (LABEL_F_TYPE, LABEL_H_TYPE,
                                   LABEL_REJ_ARMIJO, LABEL_REJ_FILTER,
                                   LABEL_REJ_FUNNEL, LABEL_RESTORATION,
                                   FilterStrategy, FunnelStrategy,
                                   StepVerdict, TrialData)
from funnel_sqp.subproblems import Phase, ProgressModels, progress_models


def models(pred_f=0.0, pred_h=0.0):
    return ProgressModels(pred_f=pred_f, pred_h=pred_h)


def trial(phase=Phase.OPTIMALITY, f_k=1.0, h_k=1.0, f_t=0.5, h_t=0.5,
          pred_f=0.0, pred_h=0.0, alpha=1.0, full_step_norm=1.0,
          subproblem_feasible=True, h_resto=None):
    return TrialData(phase=phase, f_k=f_k, h_k=h_k, f_t=f_t, h_t=h_t,
                     models=models(pred_f=pred_f, pred_h=pred_h),
                     alpha=alpha, full_step_norm=full_step_norm,
                     subproblem_feasible=subproblem_feasible,
                     h_resto=h_resto)


class TestProgressModels:
    def test_hand_values(self):
        d = np.array([1.0, -1.0])
        W = np.array([[2.0, 0.0], [0.0, 4.0]])
        grad_f = np.array([1.0, 1.0])
        c = np.array([0.5])
        J = np.array([[1.0], [1.0]])
        pm = progress_models(d, W, grad_f, c, J, 0.5)
        assert pm.pred_h == 0.0                    # c + J^T d = 0.5 + 0
        assert progress_models(d, W, grad_f, c, J, 2.0).pred_h == 1.5
        assert pm.pred_f == -0.5 * 6.0 - 0.0       # -1/2 d^T W d - g^T d

    def test_no_constraints(self):
        pm = progress_models(np.array([1.0]), np.zeros((1, 1)),
                             np.array([-2.0]), np.zeros(0), np.zeros((1, 0)),
                             0.0)
        assert pm.pred_h == 0.0
        assert pm.pred_f == 2.0


class TestFunnel:
    def setup_method(self):
        self.params = FunnelParams()
        self.strategy = FunnelStrategy(self.params, 1.0)   # tau = 100

    def test_initial_width(self):
        assert self.strategy.tau == 100.0
        assert FunnelStrategy(self.params, 200.0).tau == 250.0
        assert self.strategy.trace_value() == 100.0

    def test_theta_constant(self):
        assert np.isclose(self.params.theta, 0.995)

    def test_kkt_zero_step(self):
        v = self.strategy.decide(trial(full_step_norm=1e-15))
        assert v.accepted and v.step_type == "kkt-zero"
        assert v.label == LABEL_F_TYPE

    def test_outside_funnel_rejected(self):
        v = self.strategy.decide(trial(h_t=101.0))       # tau = 100
        assert not v.accepted and v.label == LABEL_REJ_FUNNEL

    def test_f_type_accept(self):
        t = trial(f_k=1.0, f_t=0.0, h_k=0.1, h_t=0.05, pred_f=0.5)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "f-type"
        assert v.new_tau is None
        tau = self.strategy.tau
        self.strategy.commit(v)
        assert self.strategy.tau == tau

    def test_switching_without_decrease_is_armijo_reject(self):
        t = trial(f_k=1.0, f_t=1.0, h_k=0.1, h_t=0.05, pred_f=0.5)
        v = self.strategy.decide(t)
        assert not v.accepted and v.label == LABEL_REJ_ARMIJO

    def test_armijo_scales_with_alpha(self):
        # decrease too small for a full step but enough for alpha = 1/2
        t = trial(f_k=1.0, f_t=1.0 - 0.6e-4, h_k=0.1, h_t=0.05,
                  pred_f=1.0, alpha=1.0)
        assert not self.strategy.decide(t).accepted
        t.alpha = 0.5
        assert self.strategy.decide(t).accepted

    def test_h_type_width_update(self):
        tau = self.strategy.tau                          # 100
        t = trial(f_k=1.0, f_t=2.0, h_k=5.0, h_t=1.0, pred_f=0.0)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "h-type"
        expected = 0.5 * 1.0 + 0.5 * 100.0
        assert v.new_tau == expected
        assert v.new_tau <= self.params.theta * tau
        self.strategy.commit(v)
        assert self.strategy.tau == expected

    def test_h_type_needs_margin_inside_width(self):
        # tau = 100, beta*tau = 99
        t = trial(f_k=1.0, f_t=2.0, h_k=5.0, h_t=99.5, pred_f=0.0)
        v = self.strategy.decide(t)
        assert not v.accepted and v.label == LABEL_REJ_FUNNEL

    def test_gould_width_update(self):
        strategy = FunnelStrategy(FunnelParams(gould_update=True), 1.0)
        t = trial(f_k=1.0, f_t=2.0, h_k=5.0, h_t=1.0, pred_f=0.0)
        v = strategy.decide(t)
        expected = max(0.99 * 100.0, 0.5 * 1.0 + 0.5 * 5.0)
        assert v.new_tau == expected

    def test_restoration_armijo_on_violation(self):
        t = trial(phase=Phase.RESTORATION, h_k=4.0, h_t=3.0, pred_h=2.0,
                  subproblem_feasible=False)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "restoration"
        assert v.label == LABEL_RESTORATION
        assert v.new_phase is None

    def test_restoration_insufficient_decrease(self):
        t = trial(phase=Phase.RESTORATION, h_k=4.0, h_t=4.0, pred_h=2.0,
                  subproblem_feasible=False)
        v = self.strategy.decide(t)
        assert not v.accepted and v.label == LABEL_REJ_ARMIJO

    def test_exit_routes_through_h_type(self):
        t = trial(phase=Phase.RESTORATION, f_k=1.0, f_t=2.0,
                  h_k=2.0, h_t=0.4, pred_f=0.0, h_resto=0.5,
                  subproblem_feasible=True)
        v = self.strategy.decide(t)                      # tau = 100
        assert v.accepted and v.step_type == "h-type"
        assert v.new_phase is Phase.OPTIMALITY
        assert v.new_tau == 0.5 * 0.4 + 0.5 * 100.0

    def test_exit_routes_through_f_type(self):
        t = trial(phase=Phase.RESTORATION, f_k=1.0, f_t=0.0,
                  h_k=0.1, h_t=0.004, pred_f=0.5, h_resto=0.005,
                  subproblem_feasible=True)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "f-type"
        assert v.new_phase is Phase.OPTIMALITY

    def test_exit_blocked_by_armijo_only(self):
        t = trial(phase=Phase.RESTORATION, f_k=1.0, f_t=1.0,
                  h_k=0.1, h_t=0.004, pred_f=0.5, h_resto=0.005,
                  subproblem_feasible=True)
        v = self.strategy.decide(t)
        assert not v.accepted and v.label == LABEL_REJ_ARMIJO

    def test_no_exit_when_subproblem_infeasible(self):
        t = trial(phase=Phase.RESTORATION, h_k=2.0, h_t=0.4, pred_h=1.0,
                  h_resto=0.5, subproblem_feasible=False)
        v = self.strategy.decide(t)
        assert v.step_type == "restoration"

    def test_no_exit_above_reentry_bound(self):
        # h_t above beta*min(tau, h_resto) = 0.495
        t = trial(phase=Phase.RESTORATION, h_k=2.0, h_t=0.6, pred_h=1.5,
                  h_resto=0.5, subproblem_feasible=True)
        v = self.strategy.decide(t)
        assert v.step_type == "restoration"

    def test_commit_ignores_rejections(self):
        tau = self.strategy.tau
        v = StepVerdict(accepted=False, label=LABEL_REJ_FUNNEL, new_tau=1.0)
        self.strategy.commit(v)
        assert self.strategy.tau == tau

    @given(st.floats(0.0, 50.0), st.floats(0.0, 200.0),
           st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
           st.floats(-5.0, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_invariants_random_trials(self, h_k, h_t, f_k, f_t, pred_f):
        strategy = FunnelStrategy(self.params, h_k)
        tau = strategy.tau
        t = trial(f_k=f_k, f_t=f_t, h_k=h_k, h_t=h_t, pred_f=pred_f)
        v = strategy.decide(t)
        assert strategy.tau == tau
        if v.accepted:
            # inside the pre-update width
            assert t.h_t <= tau
        if v.step_type == "h-type":
            p = self.params
            assert v.new_tau == (1 - p.kappa) * h_t + p.kappa * tau
            assert v.new_tau <= p.theta * tau
        if v.step_type == "f-type":
            assert pred_f >= self.params.delta * h_k ** 2
            assert f_k - f_t >= self.params.sigma * pred_f
        strategy.commit(v)
        assert strategy.tau <= tau


class TestFilter:
    def setup_method(self):
        self.params = FilterParams()
        self.strategy = FilterStrategy(self.params, 1.0)

    def test_initial_state(self):
        s = self.strategy
        assert s.entries == [] and s.h_max == 100.0
        assert FilterStrategy(self.params, 400.0).h_max == 500.0
        assert s.trace_value() == 0.0

    def test_acceptability_envelope(self):
        assert self.strategy.acceptable(99.0, 0.0)
        assert not self.strategy.acceptable(100.0, 0.0)

    def test_acceptability_vs_entries(self):
        self.strategy.entries = [(1.0, 5.0)]
        p = self.params
        # enough h-progress alone
        assert self.strategy.acceptable(p.beta * 1.0, 100.0)
        # enough f-progress alone
        assert self.strategy.acceptable(1.0, 5.0 - p.gamma * 1.0)
        # neither margin
        assert not self.strategy.acceptable(1.0, 5.0)

    def test_dominated_trial_rejected(self):
        self.strategy.entries = [(0.5, 1.0)]
        v = self.strategy.decide(trial(h_t=0.6, f_t=2.0, h_k=0.5, f_k=1.0))
        assert not v.accepted and v.label == LABEL_REJ_FILTER

    def test_f_type_adds_nothing(self):
        t = trial(f_k=1.0, f_t=0.0, h_k=0.1, h_t=0.05, pred_f=0.5)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "f-type"
        assert v.filter_add is None
        self.strategy.commit(v)
        assert self.strategy.entries == []

    def test_h_type_adds_current_pair(self):
        t = trial(f_k=3.0, f_t=2.9, h_k=1.0, h_t=0.5, pred_f=0.0)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "h-type"
        assert v.filter_add == (1.0, 3.0)
        # decide leaves the filter; commit adds the pair
        assert self.strategy.entries == []
        self.strategy.commit(v)
        assert self.strategy.entries == [(1.0, 3.0)]
        assert self.strategy.trace_value() == 1.0

    def test_h_type_needs_progress_vs_current(self):
        # no h-progress and f worse: blocked by the current pair
        t = trial(f_k=3.0, f_t=3.5, h_k=1.0, h_t=0.9999, pred_f=0.0)
        v = self.strategy.decide(t)
        assert not v.accepted and v.label == LABEL_REJ_FILTER

    def test_switching_armijo_failure(self):
        t = trial(f_k=1.0, f_t=1.0, h_k=0.1, h_t=0.05, pred_f=0.5)
        v = self.strategy.decide(t)
        assert not v.accepted and v.label == LABEL_REJ_ARMIJO

    def test_commit_removes_dominated_entries(self):
        s = self.strategy
        s.entries = [(2.0, 5.0), (0.1, 8.0)]
        v = StepVerdict(accepted=True, label=LABEL_H_TYPE,
                        step_type="h-type", filter_add=(1.0, 4.0))
        s.commit(v)
        # (2.0, 5.0) is dominated by (1.0, 4.0); (0.1, 8.0) survives
        assert (2.0, 5.0) not in s.entries
        assert (0.1, 8.0) in s.entries
        assert (1.0, 4.0) in s.entries

    def test_capacity_eviction_updates_envelope(self):
        s = FilterStrategy(FilterParams(capacity=3), 1.0)
        pairs = [(4.0, 1.0), (3.0, 2.0), (2.0, 3.0), (1.0, 4.0)]
        for pair in pairs:
            v = StepVerdict(accepted=True, label=LABEL_H_TYPE,
                            step_type="h-type", filter_add=pair)
            s.commit(v)
        assert len(s.entries) == 3
        # the largest-h entry was evicted and now caps admissible h
        assert (4.0, 1.0) not in s.entries
        assert s.h_max == 4.0

    def test_restoration_exit_mirrors_funnel(self):
        t = trial(phase=Phase.RESTORATION, f_k=3.0, f_t=2.9,
                  h_k=1.0, h_t=0.5, pred_f=0.0, subproblem_feasible=True)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "h-type"
        assert v.new_phase is Phase.OPTIMALITY

    def test_restoration_step_when_not_acceptable(self):
        self.strategy.entries = [(0.5, -10.0)]
        # not filter-acceptable, so stay in restoration and test h-Armijo
        t = trial(phase=Phase.RESTORATION, f_k=3.0, f_t=2.9,
                  h_k=1.0, h_t=0.6, pred_h=0.5, subproblem_feasible=True)
        v = self.strategy.decide(t)
        assert v.accepted and v.step_type == "restoration"

    @given(st.lists(st.tuples(st.floats(0.001, 90.0), st.floats(-50.0, 50.0)),
                    min_size=1, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_commit_invariants(self, pairs):
        # every stored pair was once an accepted trial, so it passed the
        # margin gate against the filter of its day; model that precondition
        s = FilterStrategy(FilterParams(capacity=10), 1.0)
        for pair in pairs:
            if not s.acceptable(pair[0], pair[1]):
                continue
            v = StepVerdict(accepted=True, label=LABEL_H_TYPE,
                            step_type="h-type", filter_add=pair)
            s.commit(v)
            assert len(s.entries) <= 10
            # pairwise non-domination
            for i, (hi, fi) in enumerate(s.entries):
                for j, (hj, fj) in enumerate(s.entries):
                    if i != j:
                        assert not (hi <= hj and fi <= fj)
            assert all(h <= s.h_max for h, _ in s.entries)
