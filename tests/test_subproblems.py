"""Regularization, subproblem assembly, and the direction engine."""

import types

import numpy as np
import pytest

import funnel_sqp.subproblems as sp
from funnel_sqp.config import SolverConfig, apply_overrides
from funnel_sqp.errors import RegularizationFailed
from funnel_sqp.problems import (EvalCounters, evaluate_functions,
                                 evaluate_gradients, from_expressions,
                                 get_problem, infeasibility)
from funnel_sqp.qp import QpSolution
from funnel_sqp.subproblems import (DirectionEngine, Phase,
                                    build_feasibility_qp,
                                    build_optimality_qp, convexify)


def _config(mechanism="trust-region", **overrides):
    over = {"mechanism": mechanism}
    over.update({k: str(v) for k, v in overrides.items()})
    return apply_overrides(SolverConfig(), over)


class TestConvexify:
    def test_pd_no_constraints_needs_no_shift(self):
        W = np.array([[2.0, 0.3], [0.3, 1.0]])
        H, eta = convexify(W, np.zeros((2, 0)))
        assert eta == 0.0
        assert np.array_equal(H, W)

    def test_floor_is_always_applied(self):
        W = 2.0 * np.eye(2)
        H, eta = convexify(W, np.zeros((2, 0)), min_eta=1e-4)
        assert eta == 1e-4
        assert np.allclose(H, W + 1e-4 * np.eye(2))

    def test_ladder_picks_smallest_sufficient_rung(self):
        W = np.diag([-1.0, 2.0])
        H, eta = convexify(W, np.zeros((2, 0)))
        # eta = 1 leaves a zero eigenvalue, so the next rung must win
        assert eta == 10.0
        assert np.allclose(np.linalg.eigvalsh(H), [9.0, 12.0])

    def test_reduced_convexity_suffices(self):
        # indefinite W but positive curvature on the constraint null space
        W = np.diag([-1.0, 1.0])
        A = np.array([[1.0], [0.0]])
        H, eta = convexify(W, A)
        assert eta == 0.0

    def test_huge_negative_curvature(self):
        # the shift must dwarf the Hessian scale without inertia misreads
        W = np.diag([-1e7, -1e7])
        A = np.array([[1.0], [0.0]])
        H, eta = convexify(W, A)
        assert eta == 1e8
        assert H[1, 1] > 0.0

    def test_full_rank_constraints_leave_no_null_space(self):
        # n = m with independent columns: any W is vacuously reduced-PD
        H, eta = convexify(np.diag([-1e7]), np.array([[1.0]]))
        assert eta == 0.0

    def test_badly_scaled_constraint_column(self):
        # column norms spread over five orders of magnitude; per-column
        # normalization keeps the Schur eigenvalue out of the zero band
        A = np.array([[7.8e4], [1e-3]])
        W = np.diag([0.0, -5.0])
        H, eta = convexify(W, A)
        assert eta == 10.0

    def test_mixed_scales_pd_reduced(self):
        A = np.array([[7.8e4, 0.1], [1e-3, 0.126]])
        W = 1e-2 * np.eye(2)
        H, eta = convexify(W, A)
        assert eta == 0.0

    def test_rank_deficient_columns(self):
        # duplicated column: rank 1, so one multiplier direction is slack
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        W = np.diag([-0.5, 3.0])
        H, eta = convexify(W, A)
        # curvature along the null direction e2 is already positive
        assert eta == 0.0

    def test_exhausted_ladder_raises(self):
        with pytest.raises(RegularizationFailed):
            convexify(np.diag([-10.0]), np.zeros((1, 0)), eta_max=1.0)


class TestBuilders:
    def test_optimality_qp_fields(self):
        x = np.array([1.0, -2.0])
        grad_f = np.array([0.5, 0.5])
        J = np.array([[1.0], [2.0]])
        c = np.array([3.0])
        lb = np.array([-4.0, -4.0])
        ub = np.array([4.0, 4.0])
        W = np.eye(2)
        qp = build_optimality_qp(x, grad_f, J, c, lb, ub, W, delta=2.0)
        assert np.array_equal(qp.b, [-3.0])
        assert np.array_equal(qp.A, J)
        assert np.array_equal(qp.g, grad_f)
        # step box: bound gap intersected with the trust region
        assert np.array_equal(qp.lb, [-2.0, -2.0])
        assert np.array_equal(qp.ub, [2.0, 2.0])
        qp2 = build_optimality_qp(x, grad_f, J, c, lb, ub, W, delta=None)
        assert np.array_equal(qp2.lb, [-5.0, -2.0])
        assert np.array_equal(qp2.ub, [3.0, 6.0])

    def test_feasibility_qp_assembly(self):
        x = np.array([0.5])
        J = np.array([[2.0, 0.0]])
        c = np.array([1.5, -0.5])
        lb = np.array([-10.0])
        ub = np.array([10.0])
        W0 = np.array([[3.0]])
        qp, z0 = build_feasibility_qp(x, J, c, lb, ub, W0, delta=1.0)
        n, m = 1, 2
        assert qp.W.shape == (n + 2 * m, n + 2 * m)
        assert qp.W[0, 0] == 3.0
        assert np.count_nonzero(qp.W) == 1
        assert np.array_equal(qp.g, [0.0, 1.0, 1.0, 1.0, 1.0])
        # rows: J on d, -I on u, +I on v
        assert np.array_equal(qp.A[:n], J)
        assert np.array_equal(qp.A[n:n + m], -np.eye(m))
        assert np.array_equal(qp.A[n + m:], np.eye(m))
        # trust region touches d only
        assert np.array_equal(qp.lb, [-1.0, 0.0, 0.0, 0.0, 0.0])
        assert qp.ub[0] == 1.0 and np.all(np.isinf(qp.ub[1:]))
        # elastic start absorbs the violation split by sign
        assert np.array_equal(z0, [0.0, 1.5, 0.0, 0.0, 0.5])
        assert np.allclose(qp.A.T @ z0, qp.b)


def _engine(name, mechanism="trust-region"):
    problem = get_problem(name)
    config = _config(mechanism)
    counters = EvalCounters()
    engine = DirectionEngine(problem, config, counters)
    x = problem.start_point()
    c = evaluate_functions(problem, x, counters)[1]
    g, J = evaluate_gradients(problem, x, counters)
    return engine, problem, x, c, g, J


class TestDirectionEngine:
    def test_optimality_direction_solves_linearization(self):
        engine, prob, x, c, g, J = _engine("circle")
        res = engine.compute(x, c, infeasibility(c), g, J,
                             prob.start_multipliers(), delta=10.0)
        assert res.phase is Phase.OPTIMALITY
        assert not res.entered_restoration
        assert np.max(np.abs(c + J.T @ res.d)) <= 1e-8
        assert res.lam.shape == (prob.m,)
        assert engine.pending_events == []
        assert engine.warm_codes is not None

    def test_trust_region_multipliers_stripped(self):
        # linear objective pushes the step onto the trust region on one
        # coordinate and onto a genuine problem bound on the other
        prob = from_expressions(
            "lin", 2, lambda x: x[0] + x[1], [],
            lb=np.array([-0.2, -10.0]), ub=np.array([10.0, 10.0]),
            x0=np.zeros(2))
        engine = DirectionEngine(prob, _config(), EvalCounters())
        x = prob.start_point()
        c = evaluate_functions(prob, x)[1]
        g, J = evaluate_gradients(prob, x)
        res = engine.compute(x, c, 0.0, g, J, np.zeros(0), delta=0.5)
        assert np.allclose(res.d, [-0.2, -0.5])
        assert res.mu[0] != 0.0     # problem bound keeps its multiplier
        assert res.mu[1] == 0.0     # trust-region bound is synthetic

    def test_infeasible_linearization_enters_restoration(self):
        engine, prob, x, c, g, J = _engine("line-circle")
        res = engine.compute(x, c, infeasibility(c), g, J,
                             prob.start_multipliers(), delta=10.0)
        assert res.entered_restoration
        assert res.phase is Phase.RESTORATION
        assert engine.phase is Phase.RESTORATION
        assert np.array_equal(engine.x_resto, x)
        assert engine.h_resto == infeasibility(c)
        events = engine.pending_events
        assert len(events) == 1
        assert events[0]["type"] == "restoration_entry"
        assert events[0]["source"] == "infeasible_qp"
        assert events[0]["lambda_reset"] is True
        assert res.elastic_u is not None and res.elastic_v is not None

    def test_restoration_keeps_multiplier_memory(self):
        engine, prob, x, c, g, J = _engine("line-circle")
        engine.compute(x, c, infeasibility(c), g, J,
                       prob.start_multipliers(), delta=10.0)
        lam_first = engine.resto_lam.copy()
        # second call reuses the updated multipliers for the curvature term
        engine.compute(x, c, infeasibility(c), g, J,
                       prob.start_multipliers(), delta=10.0)
        assert engine.resto_lam.shape == lam_first.shape

    def test_inconsistent_rows_keep_elastic_mass(self):
        # gradient of x^2+1 vanishes at x=0, so no step reduces the
        # linearized violation and the elastics stay loaded
        prob = get_problem("infeasible-quadratic")
        engine = DirectionEngine(prob, _config(), EvalCounters())
        x = np.array([0.0])
        c = evaluate_functions(prob, x)[1]
        g, J = evaluate_gradients(prob, x)
        engine.enter_restoration(x, infeasibility(c), source="test")
        engine.pending_events.clear()
        res = engine.compute(x, c, infeasibility(c), g, J,
                             np.zeros(1), delta=10.0)
        assert res.phase is Phase.RESTORATION
        assert not res.subproblem_feasible
        assert np.isclose(res.elastic_u[0] + res.elastic_v[0], 1.0)

    def test_exit_restores_optimality_state(self):
        engine, prob, x, c, g, J = _engine("line-circle")
        engine.enter_restoration(x, 4.0, source="test")
        assert engine.phase is Phase.RESTORATION
        engine.exit_restoration()
        assert engine.phase is Phase.OPTIMALITY
        assert engine.x_resto is None and engine.h_resto is None
        assert np.array_equal(engine.resto_lam, np.zeros(prob.m))

    def test_apply_verdict_exits_on_phase_change(self):
        engine, prob, x, c, g, J = _engine("line-circle")
        engine.enter_restoration(x, 4.0, source="test")
        verdict = types.SimpleNamespace(new_phase=Phase.OPTIMALITY,
                                        new_tau=None)
        record = types.SimpleNamespace(h_trial=0.1, tau=100.0)
        engine.apply_verdict(verdict, record)
        assert engine.phase is Phase.OPTIMALITY
        verdict2 = types.SimpleNamespace(new_phase=None)
        engine.enter_restoration(x, 4.0, source="test")
        engine.apply_verdict(verdict2, record)
        assert engine.phase is Phase.RESTORATION

    def test_line_search_directions_regularized(self):
        engine, prob, x, c, g, J = _engine("maratos-fletcher",
                                              mechanism="line-search")
        assert engine.convexify_directions
        res = engine.compute(x, c, infeasibility(c), g, J,
                             prob.start_multipliers(), delta=None)
        assert res.eta == 1e-4

    def test_trust_region_directions_unregularized(self):
        engine, prob, x, c, g, J = _engine("maratos-fletcher")
        assert not engine.convexify_directions
        res = engine.compute(x, c, infeasibility(c), g, J,
                             prob.start_multipliers(), delta=10.0)
        assert res.eta is None

    def test_line_search_probe_routes_to_restoration(self):
        engine, prob, x, c, g, J = _engine("line-circle",
                                              mechanism="line-search")
        res = engine.compute(x, c, infeasibility(c), g, J,
                             prob.start_multipliers(), delta=None)
        assert res.entered_restoration
        assert res.phase is Phase.RESTORATION

    def test_counters_track_hessians(self):
        engine, prob, x, c, g, J = _engine("circle")
        before = engine.counters.n_hess
        engine.compute(x, c, infeasibility(c), g, J,
                       prob.start_multipliers(), delta=10.0)
        assert engine.counters.n_hess == before + 1

    @pytest.mark.parametrize("unbounded_calls", [1, 3])
    def test_elastic_retry_counts_hessians(self, monkeypatch, unbounded_calls):
        # the retries reuse the Hessian the first elastic QP was built from
        real = sp.solve_qp
        calls = []

        def flaky(qp, **kwargs):
            calls.append(qp)
            if len(calls) <= unbounded_calls:
                n = qp.g.shape[0]
                return QpSolution(status="unbounded", x=np.zeros(n),
                                  lam=np.zeros(qp.b.shape[0]),
                                  mu=np.zeros(n), objective=-np.inf,
                                  n_pivots=0)
            return real(qp, **kwargs)

        engine, prob, x, c, g, J = _engine("line-circle",
                                              mechanism="line-search")
        engine.enter_restoration(x, infeasibility(c), source="test")
        monkeypatch.setattr(sp, "solve_qp", flaky)
        before = engine.counters.n_hess
        res = engine.compute(x, c, infeasibility(c), g, J,
                             prob.start_multipliers(), delta=None)
        assert res.phase is Phase.RESTORATION
        assert len(calls) == unbounded_calls + 1
        assert engine.counters.n_hess == before + 1
