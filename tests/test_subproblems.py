"""Regularization, subproblem assembly, and the direction engine."""

import collections
import types

import numpy as np
import pytest

from conftest import bench_chain, solve_unwritten
import funnel_sqp.qp as qp_module
import funnel_sqp.subproblems as sp
from funnel_sqp.config import (SolverConfig, SubproblemParams,
                               apply_overrides)
from funnel_sqp.driver import solve
from funnel_sqp.dsl import load_source
from funnel_sqp.errors import RegularizationFailed, RestorationStall
from funnel_sqp.linalg import (ZERO_EIG_REL, certified_cholesky,
                               nullspace_basis)
from funnel_sqp.mechanisms import OuterState, TrustRegionMechanism
from funnel_sqp.problems import (EvalCounters, evaluate_functions,
                                 evaluate_gradients, from_expressions,
                                 get_problem, infeasibility, problem_names)
from funnel_sqp.qp import ELASTIC_TOL, QpData, QpSolution, elastic_problem
from funnel_sqp.subproblems import (DirectionEngine, Phase, convexify,
                                    step_box)


def _config(mechanism="trust-region", **overrides):
    over = {"mechanism": mechanism}
    over.update({k: str(v) for k, v in overrides.items()})
    return apply_overrides(SolverConfig(), over)


class TestConvexify:
    SP = SubproblemParams()

    def test_pd_no_constraints_needs_no_shift(self):
        # positive definite without constraints: the first rung passes, so
        # no shift beyond the floor eta0 is added
        W = np.array([[2.0, 0.3], [0.3, 1.0]])
        H, eta, _ = convexify(W, np.zeros((2, 0)), self.SP)
        assert eta == self.SP.eta0
        assert np.array_equal(H, W + self.SP.eta0 * np.eye(2))

    def test_floor_is_always_applied(self):
        # the floor comes from the parameters, even when W needs none
        W = 2.0 * np.eye(2)
        H, eta, _ = convexify(W, np.zeros((2, 0)), SubproblemParams(eta0=1e-2))
        assert eta == 1e-2
        assert np.allclose(H, W + 1e-2 * np.eye(2))

    def test_ladder_picks_smallest_sufficient_rung(self):
        W = np.diag([-1.0, 2.0])
        H, eta, _ = convexify(W, np.zeros((2, 0)), self.SP)
        # eta = 1 leaves a zero eigenvalue, so the next rung must win
        assert eta == 10.0
        assert np.allclose(np.linalg.eigvalsh(H), [9.0, 12.0])

    def test_reduced_convexity_suffices(self):
        # indefinite W but positive curvature on the constraint null space
        W = np.diag([-1.0, 1.0])
        A = np.array([[1.0], [0.0]])
        H, eta, _ = convexify(W, A, self.SP)
        assert eta == 1e-4

    def test_huge_negative_curvature(self):
        # the shift must dwarf the Hessian scale without inertia misreads
        W = np.diag([-1e7, -1e7])
        A = np.array([[1.0], [0.0]])
        H, eta, _ = convexify(W, A, self.SP)
        assert eta == 1e8
        assert H[1, 1] > 0.0

    def test_full_rank_constraints_leave_no_null_space(self):
        # n = m with independent columns: any W is vacuously reduced-PD
        H, eta, _ = convexify(np.diag([-1e7]), np.array([[1.0]]), self.SP)
        assert eta == 1e-4

    def test_badly_scaled_constraint_column(self):
        # column norms spread over five orders of magnitude; the reduced
        # Hessian sees only the null-space direction, never the norms
        A = np.array([[7.8e4], [1e-3]])
        W = np.diag([0.0, -5.0])
        H, eta, _ = convexify(W, A, self.SP)
        assert eta == 10.0

    def test_mixed_scales_pd_reduced(self):
        A = np.array([[7.8e4, 0.1], [1e-3, 0.126]])
        W = 1e-2 * np.eye(2)
        H, eta, _ = convexify(W, A, self.SP)
        assert eta == 1e-4

    def test_rank_deficient_columns(self):
        # duplicated column: rank 1, so one multiplier direction is slack
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        W = np.diag([-0.5, 3.0])
        H, eta, _ = convexify(W, A, self.SP)
        # curvature along the null direction e2 is already positive
        assert eta == 1e-4

    def test_first_rung_is_tried_past_the_cap(self):
        H, eta, _ = convexify(2.0 * np.eye(2), np.zeros((2, 0)),
                              SubproblemParams(eta0=10.0, eta_max=1.0))
        assert eta == 10.0

    def test_exhausted_ladder_raises(self):
        with pytest.raises(RegularizationFailed):
            convexify(np.diag([-10.0]), np.zeros((1, 0)),
                      SubproblemParams(eta_max=1.0))

    def test_huge_positive_definite_w_passes_first_rung(self):
        # the Schur eigenvalue -a^T W^-1 a = -1e-12 of the KKT matrix lies
        # in a zero band 1e-12 * max|W|; the reduced Hessian has no such
        # eigenvalue, so no band scaled by W can swallow it
        H, eta, _ = convexify(1e12 * np.eye(2), np.array([[1.0], [0.0]]),
                              self.SP)
        assert eta == self.SP.eta0

    def test_licq_line_search_pair_passes_first_rung(self):
        # W and J where both LICQ line-search solves used to fail every rung
        W = 1.4614595594653926e12 * np.eye(2)
        A = np.array([[-1.4668658361100015e-12], [-7.4740548408791608e-13]])
        H, eta, _ = convexify(W, A, self.SP)
        assert eta == self.SP.eta0
        assert np.array_equal(H, W + self.SP.eta0 * np.eye(2))


class TestShifted:
    """convexify's M + eta * I without the identity keeps the bits and the
    C order of the sum it replaces, -0.0 entries and F-ordered M too."""

    @pytest.mark.parametrize("eta", [1e-4, 1e20, 0.0, -2.5, -0.0, np.nan])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_of_the_identity_sum(self, eta, order):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((5, 5))
        M[rng.random((5, 5)) < 0.4] = -0.0
        M[1, 1] = -0.0
        M = np.asarray(M, order=order)
        got = sp._shifted(M, eta)
        want = M + eta * np.eye(5)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and want.flags.c_contiguous

    def test_empty(self):
        assert sp._shifted(np.zeros((0, 0)), 1e-4).shape == (0, 0)


def kkt_oracle_eta(W, A, rank, sp, band=1e-8):
    """The smallest rung at which eigvalsh of the unscaled KKT matrix
    [[W + eta*I, A], [A^T, 0]] has inertia (n, r, m - r), None when no rung
    up to sp.eta_max does, or "skip" when a tested rung has an eigenvalue
    within band * max|eig| of zero beyond the m - r that A's dependent
    columns put there."""
    n, m = A.shape
    K = np.zeros((n + m, n + m))
    K[:n, n:] = A
    K[n:, :n] = A.T
    eta = sp.eta0
    while eta <= sp.eta_max or eta == sp.eta0:
        K[:n, :n] = W + eta * np.eye(n)
        eigs = np.linalg.eigvalsh(K)
        tol = band * np.max(np.abs(eigs))
        if np.sum(np.abs(eigs) <= tol) != m - rank:
            return "skip"
        if (np.sum(eigs > tol), np.sum(eigs < -tol)) == (n, rank):
            return eta
        eta *= sp.eta_growth
    return None


def random_convexify_case(seed):
    """(W, A) with n <= 6 and m <= n: a random symmetric W of random scale,
    and an A of Gaussian columns, with no columns, or with a duplicated or a
    zero column."""
    rng = np.random.default_rng([7, seed])
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, n + 1))
    M = rng.standard_normal((n, n))
    W = 0.5 * (M + M.T) * 10.0 ** rng.uniform(-2.0, 1.0)
    A = rng.standard_normal((n, m))
    kind = seed % 3
    if m >= 2 and kind == 1:
        A[:, -1] = A[:, rng.integers(m - 1)]
    elif m >= 1 and kind == 2:
        A[:, rng.integers(m)] = 0.0
    return W, A


class TestConvexifyKktOracle:
    """The reduced-Hessian ladder against the KKT matrix's eigenvalues."""

    def test_eta_is_the_smallest_rung_with_kkt_inertia(self):
        sp_ = SubproblemParams()
        checked, kinds = 0, set()
        for seed in range(240):
            W, A = random_convexify_case(seed)
            rank = nullspace_basis(A).rank
            want = kkt_oracle_eta(W, A, rank, sp_)
            if want == "skip":
                continue
            H, eta, (fac, H_free) = convexify(W, A, sp_)
            assert eta == want, seed
            assert np.array_equal(H, W + eta * np.eye(W.shape[0]))
            # the factors of the all-free working set: the QR of A and the
            # reduced Hessian the last rung certified
            n, k = W.shape[0], W.shape[0] - rank
            assert fac.rank == rank and fac.Z.shape == (n, k)
            assert np.array_equal(fac.Z, nullspace_basis(A).Z)
            R = fac.Z.T @ W @ fac.Z
            assert np.array_equal(H_free, 0.5 * (R + R.T) + eta * np.eye(k))
            checked += 1
            m = A.shape[1]
            kinds.add("no column" if m == 0
                      else "zero column" if not np.all(np.any(A, axis=0))
                      else "dependent" if rank < m else "independent")
        assert checked >= 200
        assert kinds == {"no column", "zero column", "dependent",
                         "independent"}


class TestRungVerdicts:
    """On the solver's own traffic, a convexify rung's LDL^T inertia test
    and certified_cholesky give the same verdict (ROADMAP item 7)."""

    def test_ldlt_inertia_equals_certified_cholesky(self, monkeypatch):
        rungs = []
        ldlt = sp.ldlt_factorize

        def logged(H):
            rungs.append(H.copy())
            return ldlt(H)

        monkeypatch.setattr(sp, "ldlt_factorize", logged)
        chain = bench_chain()
        x0 = chain.start_point(24, 0)
        makes = [lambda name=name: get_problem(name)
                 for name in problem_names()]
        makes.append(lambda: load_source(chain.nco_text(x0)))
        for make in makes:
            for strategy in ("funnel", "filter"):
                for mechanism in ("trust-region", "line-search"):
                    solve(make(), _config(mechanism, strategy=strategy))
        verdicts = collections.Counter()
        for H in rungs:
            k = H.shape[0]
            passed = ldlt(H).inertia == (k, 0, 0)
            # an empty reduced Hessian passes both ways
            assert passed == (certified_cholesky(H, ZERO_EIG_REL) is not None)
            verdicts[k == 0, passed] += 1
        # (empty?, passed): 230 passing rungs, 904 failing and 68 empty
        assert set(verdicts) == {(False, True), (False, False), (True, True)}


class TestBuilders:
    def test_optimality_qp_fields(self):
        x = np.array([1.0, -2.0])
        grad_f = np.array([0.5, 0.5])
        J = np.array([[1.0], [2.0]])
        c = np.array([3.0])
        lb = np.array([-4.0, -4.0])
        ub = np.array([4.0, 4.0])
        W = np.eye(2)
        # the engine's optimality QP: min 1/2 d^T W d + grad_f^T d
        # s.t. c + J^T d = 0 and the step box
        qp = QpData(W, grad_f, J, -c, *step_box(x, lb, ub, 2.0))
        assert np.array_equal(qp.b, [-3.0])
        assert np.array_equal(qp.A, J)
        assert np.array_equal(qp.g, grad_f)
        # step box: bound gap intersected with the trust region
        assert np.array_equal(qp.lb, [-2.0, -2.0])
        assert np.array_equal(qp.ub, [2.0, 2.0])
        qp2 = QpData(W, grad_f, J, -c, *step_box(x, lb, ub, None))
        assert np.array_equal(qp2.lb, [-5.0, -2.0])
        assert np.array_equal(qp2.ub, [3.0, 6.0])

    def test_feasibility_qp_assembly(self):
        x = np.array([0.5])
        J = np.array([[2.0, 0.0]])
        c = np.array([1.5, -0.5])
        lb = np.array([-10.0])
        ub = np.array([10.0])
        W0 = np.array([[3.0]])
        qp, z0 = elastic_problem(J, -c, *step_box(x, lb, ub, 1.0), W0)
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


def _state(problem, x, lam=None):
    """The outer iterate at x, with lam or the problem's start multipliers."""
    f, c = evaluate_functions(problem, x)
    g, J = evaluate_gradients(problem, x)
    lam = problem.start_multipliers() if lam is None else lam
    return OuterState(x=x, f=f, c=c, h=infeasibility(c), grad_f=g, J=J,
                      lam=lam, mu=np.zeros(problem.n))


def _engine(name, mechanism="trust-region"):
    """(engine, problem, outer iterate at the start point)."""
    problem = get_problem(name)
    engine = DirectionEngine(problem, _config(mechanism), EvalCounters(), [])
    return engine, problem, _state(problem, problem.start_point())


_STAY = types.SimpleNamespace(new_phase=None)
_EXIT = types.SimpleNamespace(new_phase=Phase.OPTIMALITY, new_tau=None)
_RECORD = types.SimpleNamespace(h_trial=0.1, tau=100.0)


class TestDirectionEngine:
    def test_optimality_direction_solves_linearization(self):
        engine, prob, os = _engine("circle")
        res = engine.compute(os, 1, 10.0)
        assert res.phase is Phase.OPTIMALITY
        assert engine.entries == 0
        assert np.max(np.abs(os.c + os.J.T @ res.d)) <= 1e-8
        assert res.lam.shape == (prob.m,)
        assert engine.events == []
        assert engine.warm_codes is not None

    def test_trust_region_multipliers_stripped(self):
        # linear objective pushes the step onto the trust region on one
        # coordinate and onto a genuine problem bound on the other
        prob = from_expressions(
            "lin", 2, lambda x: x[0] + x[1], [],
            lb=np.array([-0.2, -10.0]), ub=np.array([10.0, 10.0]),
            x0=np.zeros(2))
        engine = DirectionEngine(prob, _config(), EvalCounters(), [])
        res = engine.compute(_state(prob, prob.start_point()), 1, 0.5)
        assert np.allclose(res.d, [-0.2, -0.5])
        assert res.mu[0] != 0.0     # problem bound keeps its multiplier
        assert res.mu[1] == 0.0     # trust-region bound is synthetic

    def test_stripping_keeps_the_bits_of_zero_multipliers(self):
        # a mu of +0.0 only is returned as it is; a -0.0 on a binding trust
        # bound still becomes +0.0, and one off it stays -0.0
        prob = from_expressions(
            "lin", 2, lambda x: x[0] + x[1], [],
            lb=np.full(2, -10.0), ub=np.full(2, 10.0), x0=np.zeros(2))
        engine = DirectionEngine(prob, _config(), EvalCounters(), [])
        d, x = np.array([-0.5, 0.1]), np.zeros(2)
        strip = engine._strip_trust_region_multipliers
        zero = strip(d, np.zeros(2), x, 0.5)
        assert zero.tobytes() == np.zeros(2).tobytes()
        signed = strip(d, np.array([-0.0, -0.0]), x, 0.5)
        assert signed.tobytes() == np.array([0.0, -0.0]).tobytes()

    def test_infeasible_linearization_enters_restoration(self):
        engine, prob, os = _engine("line-circle")
        os.lam[:] = 1.0
        res = engine.compute(os, 3, 10.0)
        assert engine.entries == 1
        assert res.phase is Phase.RESTORATION
        assert engine.phase is Phase.RESTORATION
        assert np.array_equal(engine.x_resto, os.x)
        assert engine.h_resto == os.h
        assert np.array_equal(os.lam, np.zeros(prob.m))
        events = engine.events
        assert len(events) == 1
        assert events[0]["type"] == "restoration_entry"
        assert events[0]["source"] == "infeasible_qp"
        assert events[0]["lambda_reset"] is True
        assert events[0]["k"] == 3
        # the elastic QP's slacks hold the linearization's residual
        residual = np.sum(np.abs(os.c + os.J.T @ res.d))
        assert residual > ELASTIC_TOL and not res.subproblem_feasible

    def test_restoration_keeps_multiplier_memory(self):
        engine, prob, os = _engine("line-circle")
        engine.compute(os, 1, 10.0)
        lam_first = engine.resto_lam.copy()
        # second call reuses the updated multipliers for the curvature term
        engine.compute(os, 1, 10.0)
        assert engine.resto_lam.shape == lam_first.shape

    def test_inconsistent_rows_keep_elastic_mass(self):
        # gradient of x^2+1 vanishes at x=0, so no step reduces the
        # linearized violation and the elastics stay loaded
        prob = get_problem("infeasible-quadratic")
        engine = DirectionEngine(prob, _config(), EvalCounters(), [])
        os = _state(prob, np.array([0.0]), lam=np.zeros(1))
        engine.enter_restoration(os, 1, source="test")
        res = engine.compute(os, 1, 10.0)
        assert res.phase is Phase.RESTORATION
        assert not res.subproblem_feasible
        assert np.isclose(np.sum(np.abs(os.c + os.J.T @ res.d)), 1.0)

    def test_restoration_warm_codes_cleared_on_entry_and_exit(self):
        # each elastic QP hands its working set to the next one; entering
        # or leaving restoration forgets it
        engine, prob, os = _engine("line-circle")
        N = prob.n + 2 * prob.m

        def restore():
            engine.compute(os, 1, 10.0)
            assert engine.phase is Phase.RESTORATION
            assert engine.warm_codes.shape == (N,)

        restore()
        engine.apply_verdict(_STAY, _RECORD, 1)
        engine.enter_restoration(os, 2, source="test")
        assert engine.warm_codes is None
        restore()
        engine.apply_verdict(_EXIT, _RECORD, 2)
        assert engine.warm_codes is None

    def test_exit_restores_optimality_state(self):
        engine, prob, os = _engine("line-circle")
        engine.enter_restoration(os, 1, source="test")
        assert engine.phase is Phase.RESTORATION
        engine.apply_verdict(_EXIT, _RECORD, 1)
        assert engine.phase is Phase.OPTIMALITY
        assert engine.x_resto is None and engine.h_resto is None
        assert np.array_equal(engine.resto_lam, np.zeros(prob.m))

    def test_apply_verdict_exits_on_phase_change(self):
        engine, prob, os = _engine("line-circle")
        engine.enter_restoration(os, 1, source="test")
        engine.apply_verdict(_EXIT, _RECORD, 1)
        assert engine.phase is Phase.OPTIMALITY
        engine.enter_restoration(os, 2, source="test")
        engine.apply_verdict(_STAY, _RECORD, 2)
        assert engine.phase is Phase.RESTORATION
        assert [(e["type"], e["k"]) for e in engine.events] == [
            ("restoration_entry", 1), ("restoration_exit", 1),
            ("restoration_entry", 2)]

    def test_line_search_directions_regularized(self):
        engine, prob, os = _engine("maratos-fletcher",
                                   mechanism="line-search")
        assert engine.convexify_directions
        res = engine.compute(os, 1, None)
        assert res.eta == 1e-4

    def test_trust_region_directions_unregularized(self):
        engine, prob, os = _engine("maratos-fletcher")
        assert not engine.convexify_directions
        res = engine.compute(os, 1, 10.0)
        assert res.eta is None

    def test_line_search_probe_routes_to_restoration(self):
        engine, prob, os = _engine("line-circle", mechanism="line-search")
        res = engine.compute(os, 1, None)
        assert engine.entries == 1
        assert [e["source"] for e in engine.events] == ["infeasible_qp"]
        assert res.phase is Phase.RESTORATION

    def test_line_search_direction_solves_one_qp(self, monkeypatch):
        # the optimality QP itself detects an infeasible linearization, so
        # no separate phase-1 QP runs before it
        real = sp.solve_qp
        calls = []

        def counted(qp, **kwargs):
            calls.append(kwargs)
            return real(qp, **kwargs)

        engine, prob, os = _engine("maratos-fletcher",
                                   mechanism="line-search")
        monkeypatch.setattr(sp, "solve_qp", counted)
        res = engine.compute(os, 1, None)
        assert res.phase is Phase.OPTIMALITY
        assert len(calls) == 1
        assert calls[0].get("feasible_start") is None

    def test_counters_track_hessians(self):
        engine, prob, os = _engine("circle")
        before = engine.counters.n_hess
        engine.compute(os, 1, 10.0)
        assert engine.counters.n_hess == before + 1


class TestRestorationEntry:
    """The engine owns restoration entry: multiplier reset, the stall rule
    and the events."""

    @pytest.mark.parametrize("mechanism", ["trust-region", "line-search"])
    def test_second_entry_without_accept_stalls(self, mechanism):
        engine, prob, os = _engine("line-circle", mechanism=mechanism)
        x_first = os.x.copy()
        engine.enter_restoration(os, 1, source="test")
        os.x, os.h = os.x + 1.0, 9.0
        os.lam[:] = 2.0
        with pytest.raises(RestorationStall):
            engine.enter_restoration(os, 1, source="alpha_min")
        # the stall is raised before the entry changes anything
        assert np.array_equal(engine.x_resto, x_first)
        assert np.array_equal(os.lam, [2.0, 2.0])
        assert [e["source"] for e in engine.events] == ["test"]

    @pytest.mark.parametrize("mechanism", ["trust-region", "line-search"])
    def test_accepted_step_resets_the_count(self, mechanism):
        engine, prob, os = _engine("line-circle", mechanism=mechanism)
        engine.compute(os, 1, None if mechanism == "line-search" else 10.0)
        assert engine.entries == 1
        engine.apply_verdict(_STAY, _RECORD, 1)
        assert engine.entries == 0
        os.lam[:] = 2.0
        engine.enter_restoration(os, 2, source="alpha_min")
        assert engine.entries == 1
        assert np.array_equal(os.lam, [0.0, 0.0])
        assert [(e["source"], e["k"]) for e in engine.events] == \
            [("infeasible_qp", 1), ("alpha_min", 2)]

    def test_events_stamped_at_creation_with_k_last(self):
        engine, prob, os = _engine("line-circle")
        engine.enter_restoration(os, 4, source="test")
        assert list(engine.events[0]) == ["type", "source", "x_resto",
                                          "h_resto", "lambda_reset", "k"]
        engine.apply_verdict(_EXIT, _RECORD, 7)
        assert list(engine.events[1]) == ["type", "h_trial", "tau_before",
                                          "tau_after", "h_resto", "k"]
        assert [e["k"] for e in engine.events] == [4, 7]
        assert engine.events[1]["h_resto"] == os.h


# a fuzz model whose filter line-search solve meets elastic QPs that are
# unbounded below; the first one's d block has the eigenvalue -0.0076 at
# eta = 1 and needs eta = 10
UNBOUNDED_ELASTIC = """
var x start -0.38;
var y start -0.51;
minimize -0.48 * sin(x) + -0.55 * cos(y + x);
subject_to -0.61 * exp(0.4 * y) + 1.26 * cos(x + x) + -1.34 * x == -0.88;
subject_to 0.91 * x * x + 1.21 * exp(0.4 * x) + -0.68 * cos(x + y) + 0.49 * cos(y + y) == 0.54;
"""


def _unbounded(qp, **kwargs):
    n = qp.g.shape[0]
    return QpSolution(status="unbounded", x=np.zeros(n),
                      lam=np.zeros(qp.b.shape[0]), mu=np.zeros(n),
                      n_pivots=3)


class TestUnboundedQp:
    """convexify is the only eta ladder: an unbounded line-search elastic QP
    is solved once more with its d block convex on all of R^n, and every
    other unbounded QP raises."""

    @staticmethod
    def _stub(monkeypatch, unbounded_calls):
        """Count solve_qp calls; the first unbounded_calls are unbounded."""
        real = sp.solve_qp
        calls = []

        def stub(qp, **kwargs):
            calls.append(kwargs)
            if len(calls) <= unbounded_calls:
                return _unbounded(qp)
            return real(qp, **kwargs)

        monkeypatch.setattr(sp, "solve_qp", stub)
        return calls

    @staticmethod
    def _restoring(mechanism):
        engine, prob, os = _engine("line-circle", mechanism=mechanism)
        engine.enter_restoration(os, 1, source="test")
        return engine, os

    def test_resolved_elastic_directions_are_convex(self, monkeypatch):
        # the re-solved d block is positive definite on all of R^n, so the
        # re-solve cannot stop at a local minimizer of an unbounded QP
        problem = load_source(UNBOUNDED_ELASTIC, name="unbounded-elastic")
        real_solve, real_compute = sp.solve_qp, DirectionEngine.compute
        verdicts, resolved = [], []

        def logged_solve(qp, **kwargs):
            sol = real_solve(qp, **kwargs)
            verdicts.append(sol.status)
            return sol

        def logged_compute(engine, *args, **kwargs):
            verdicts.clear()
            res = real_compute(engine, *args, **kwargs)
            if "unbounded" in verdicts:
                resolved.append(res)
            return res

        monkeypatch.setattr(sp, "solve_qp", logged_solve)
        monkeypatch.setattr(DirectionEngine, "compute", logged_compute)
        solve(problem, SolverConfig(strategy="filter",
                                    mechanism="line-search"))
        assert resolved
        for res in resolved:
            assert res.phase is Phase.RESTORATION
            assert np.linalg.eigvalsh(res.W_used)[0] > 0.0

    def test_unbounded_elastic_qp_is_resolved_once(self, monkeypatch):
        engine, os = self._restoring("line-search")
        calls = self._stub(monkeypatch, 1)
        before = engine.counters.n_hess
        res = engine.compute(os, 1, None)
        assert res.phase is Phase.RESTORATION
        assert len(calls) == 2
        assert engine.counters.n_hess == before + 1
        assert np.linalg.eigvalsh(res.W_used)[0] > 0.0
        # the same start, without the working set the first solve was given
        assert calls[1].get("warm_start") is None
        assert np.array_equal(calls[1]["feasible_start"],
                              calls[0]["feasible_start"])
        assert res.n_pivots >= 3    # the discarded solve's pivots count

    def test_second_unbounded_verdict_raises(self, monkeypatch):
        engine, os = self._restoring("line-search")
        calls = self._stub(monkeypatch, 2)
        with pytest.raises(RegularizationFailed):
            engine.compute(os, 1, None)
        assert len(calls) == 2

    def test_second_unbounded_verdict_ends_the_solve(self, monkeypatch):
        # line-circle's first optimality QP is infeasible, so the next QPs
        # are elastic; both of them come back unbounded
        problem = get_problem("line-circle")
        real = sp.solve_qp
        elastic = []

        def stub(qp, **kwargs):
            if qp.n == problem.n:
                return real(qp, **kwargs)
            elastic.append(kwargs)
            return _unbounded(qp)

        monkeypatch.setattr(sp, "solve_qp", stub)
        res = solve(problem, SolverConfig(mechanism="line-search"))
        assert res.status == "error"
        assert res.error_kind == "regularization_failed"
        assert len(elastic) == 2

    def test_trust_region_elastic_qp_raises_at_once(self, monkeypatch):
        engine, os = self._restoring("trust-region")
        calls = self._stub(monkeypatch, 1)
        with pytest.raises(RegularizationFailed):
            engine.compute(os, 1, 10.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("mechanism, delta", [("line-search", None),
                                                  ("trust-region", 10.0)])
    def test_unbounded_optimality_qp_raises(self, monkeypatch, mechanism,
                                            delta):
        engine, prob, os = _engine("circle", mechanism=mechanism)
        calls = self._stub(monkeypatch, 1)
        with pytest.raises(RegularizationFailed):
            engine.compute(os, 1, delta)
        assert len(calls) == 1
        assert engine.phase is Phase.OPTIMALITY


class TestFreeFactors:
    """Line search factors J once per optimality direction: convexify's
    null-space factors and reduced Hessian seed the optimality QP."""

    @staticmethod
    def _analytic_chain():
        chain = bench_chain()
        return chain.analytic_problem(chain.start_point(24, 0))

    @pytest.mark.parametrize("name", ["hs26", "analytic-chain-24"])
    @pytest.mark.parametrize("strategy", ["funnel", "filter"])
    def test_one_factorization_per_direction(self, monkeypatch, name,
                                             strategy):
        # both problems have no bounds: every working set is all-free
        factored, starts, per_direction = [], [], []

        def counted(fn):
            def wrapper(*args, **kwargs):
                factored.append(args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sp, "nullspace_basis",
                            counted(sp.nullspace_basis))
        monkeypatch.setattr(qp_module, "nullspace_basis",
                            counted(qp_module.nullspace_basis))
        run = qp_module._Core.run

        def logged_run(self, x, work):
            starts.append(work.copy())
            return run(self, x, work)

        monkeypatch.setattr(qp_module._Core, "run", logged_run)
        direction = DirectionEngine._optimality_direction

        def counted_direction(self, *args):
            factored.clear()
            starts.clear()
            res = direction(self, *args)
            # one core run (no phase-1 LP) from the all-free working set
            if res.phase is Phase.OPTIMALITY and len(starts) == 1 \
                    and np.all(starts[0] == qp_module.FREE):
                per_direction.append(len(factored))
            return res

        monkeypatch.setattr(DirectionEngine, "_optimality_direction",
                            counted_direction)
        problem = get_problem(name) if name == "hs26" \
            else self._analytic_chain()
        res = solve(problem, _config("line-search", strategy=strategy))
        assert res.status == "kkt_point"
        assert len(per_direction) >= 5
        assert per_direction == [1] * len(per_direction)


class TestRestorationWarmStart:
    """Restoration's elastic QPs start from the last answer over the same
    constraints: the previous elastic QP's working set, and right after an
    infeasible verdict phase 1's elastic LP."""

    @staticmethod
    def _logged_solve(monkeypatch, problem, strategy, mechanism):
        """Solve, returning (result, [(elastic?, status, pivots)] per QP)."""
        real = sp.solve_qp
        log = []

        def logged(qp, **kwargs):
            sol = real(qp, **kwargs)
            log.append((qp.n > problem.n, sol.status, sol.n_pivots))
            return sol

        monkeypatch.setattr(sp, "solve_qp", logged)
        res = solve(problem, SolverConfig(strategy=strategy,
                                          mechanism=mechanism))
        return res, log

    @pytest.mark.parametrize("name, strategy, cap", [
        ("powellbs", "filter", 10),       # 107 elastic QPs, 214 pivots cold
        ("line-circle", "funnel", 20),    # 49 elastic QPs, 96 pivots cold
        ("line-circle", "filter", 20),
    ])
    def test_restoration_pivots(self, monkeypatch, name, strategy, cap):
        res, log = self._logged_solve(monkeypatch, get_problem(name),
                                      strategy, "trust-region")
        assert res.status == "kkt_point"
        elastic = [p for is_elastic, _, p in log if is_elastic]
        assert len(elastic) > 40
        assert sum(elastic) <= cap

    @pytest.mark.parametrize("strategy", ["funnel", "filter"])
    def test_first_restoration_qp_continues_phase1(self, monkeypatch,
                                                   strategy):
        # the bounded n=24 chain: one optimality QP is infeasible, and its
        # phase-1 LP already sits at the elastic QP's optimal vertex
        chain = bench_chain()
        problem = chain.analytic_problem(chain.start_point(24, 0))
        problem.ub[:] = 1.0
        res, log = self._logged_solve(monkeypatch, problem, strategy,
                                      "line-search")
        assert res.status == "kkt_point"
        i = next(i for i, (_, status, _) in enumerate(log)
                 if status == "infeasible")
        assert log[i][2] > 0
        assert log[i + 1][:2] == (True, "optimal")
        assert log[i + 1][2] == 0

    @pytest.mark.parametrize("strategy", ["funnel", "filter"])
    def test_dependent_gradients_keep_the_handoff(self, strategy):
        # at x0 = (1, 1) the two constraint gradients are parallel: the
        # phase-1 LP runs over both columns, and the first restoration QP
        # starts from it
        res = solve(get_problem("line-circle"),
                    SolverConfig(strategy=strategy, mechanism="line-search"))
        first = next(r for r in res.iterations
                     if r.phase == "restoration" and r.qp_pivots is not None)
        assert first.warm_start == "hit"


class TestGradientsInPlace:
    """The optimality QP reads grad f and J in place, uncopied: no QP of an
    outer iteration writes them."""

    def test_trust_region_chain(self, monkeypatch):
        chain = bench_chain()
        problem = load_source(chain.nco_text(chain.start_point(24, 0)))
        real_run = TrustRegionMechanism.run
        iterate, optimality = [], []

        def logged_solve(qp, **kwargs):
            if qp.n == problem.n:
                optimality.append(qp.g is iterate[-1].grad_f
                                  and qp.A is iterate[-1].J)
            return solve_unwritten(qp, **kwargs)

        def logged_run(mech, os, k, records):
            iterate.append(os)
            grad_f, J = os.grad_f, os.J
            before = grad_f.tobytes(), J.tobytes()
            out = real_run(mech, os, k, records)
            assert os.grad_f is grad_f and os.J is J
            assert (grad_f.tobytes(), J.tobytes()) == before
            return out

        monkeypatch.setattr(sp, "solve_qp", logged_solve)
        monkeypatch.setattr(TrustRegionMechanism, "run", logged_run)
        res = solve(problem, _config("trust-region"))
        assert res.status == "kkt_point"
        assert all(optimality) and len(optimality) >= res.n_outer > 0
