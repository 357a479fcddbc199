"""Active-set QP solver against hand cases and brute-force oracles."""

import collections
import inspect
import signal
import sys
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_qp_optimum, grid_qp_minimum, solve_unwritten
from funnel_sqp import qp as qp_module
from funnel_sqp.config import SubproblemParams
from funnel_sqp.errors import DimensionMismatch, MaxPivots
from funnel_sqp.linalg import ZERO_EIG_REL
from funnel_sqp.qp import (ELASTIC_TOL, FREE, LOWER, PINNED, UPPER, QpData,
                           QpSolution, _Core, _elastic_lp, _initial_work,
                           _phase1, elastic_problem, kkt_residual,
                           qp_objective, solve_qp)
from funnel_sqp.linalg import nullspace_basis
from funnel_sqp.subproblems import convexify

INF = np.inf


def box_qp(W, g, lb=None, ub=None, A=None, b=None):
    n = len(g)
    g = np.asarray(g, dtype=float)
    W = np.asarray(W, dtype=float)
    lb = np.full(n, -INF) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, INF) if ub is None else np.asarray(ub, dtype=float)
    if A is None:
        A = np.zeros((n, 0))
        b = np.zeros(0)
    else:
        A = np.asarray(A, dtype=float).reshape(n, -1)
        b = np.atleast_1d(np.asarray(b, dtype=float))
    return QpData(W=W, g=g, A=A, b=b, lb=lb, ub=ub)


@contextmanager
def returns_within(seconds):
    """Turn a hang into a TimeoutError after the given wall time."""
    def hung(signum, frame):
        raise TimeoutError("solve_qp did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_kkt(qp, sol, tol=None):
    if tol is None:
        tol = 1e-8 * (1.0 + np.max(np.abs(qp.g), initial=0.0))
    assert kkt_residual(qp, sol) <= tol


class TestHandCases:
    def test_unconstrained_newton(self):
        qp = box_qp([[2.0, 0.0], [0.0, 4.0]], [-2.0, -8.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 2.0])
        assert np.isclose(qp_objective(qp, sol.x), -9.0)
        assert_kkt(qp, sol)

    def test_equality_constrained(self):
        # min x^2 + y^2 s.t. x + y = 2 -> x = y = 1, lambda = 2
        qp = box_qp(2.0 * np.eye(2), [0.0, 0.0],
                    A=[[1.0], [1.0]], b=[2.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 1.0])
        assert np.allclose(sol.lam, [2.0])
        assert np.allclose(sol.mu, np.zeros(2), atol=1e-12)
        assert_kkt(qp, sol)

    def test_active_bound_multiplier_sign(self):
        # min (x+2)^2 on [-1, 1]: lower bound active, mu = grad > 0
        qp = box_qp([[2.0]], [4.0], lb=[-1.0], ub=[1.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert np.isclose(sol.x[0], -1.0)
        assert sol.mu[0] > 0.0
        assert sol.active[0] == LOWER
        assert_kkt(qp, sol)

    def test_pinned_variable(self):
        qp = box_qp(np.eye(2), [1.0, 1.0], lb=[0.5, -2.0], ub=[0.5, 2.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert sol.x[0] == 0.5
        assert sol.active[0] == PINNED
        assert np.isclose(sol.x[1], -1.0)
        assert_kkt(qp, sol)

    def test_infeasible_equality_vs_box(self):
        # x + y = 10 cannot hold inside [0,1]^2
        qp = box_qp(np.eye(2), [0.0, 0.0], lb=[0.0, 0.0], ub=[1.0, 1.0],
                    A=[[1.0], [1.0]], b=[10.0])
        sol = solve_qp(qp)
        assert sol.status == "infeasible"

    def test_unbounded_linear(self):
        qp = box_qp(np.zeros((2, 2)), [1.0, -1.0], lb=[0.0, 0.0])
        sol = solve_qp(qp)
        assert sol.status == "unbounded"

    def test_unbounded_negative_curvature(self):
        qp = box_qp([[-2.0]], [0.0])
        sol = solve_qp(qp)
        assert sol.status == "unbounded"

    def test_flat_ray_unbounded_one_way_only(self):
        # at x = 0 the slope along the negative curvature is zero; the ray
        # Z v blocks at a finite bound and -Z v at none, so the QP is
        # unbounded along -Z v
        v = np.linalg.eigh(np.array([[-2.0]]))[1][:, 0]
        p_plus = nullspace_basis(np.zeros((1, 0))).Z @ v
        lb, ub = ([-INF], [1.0]) if p_plus[0] > 0.0 else ([-1.0], [INF])
        qp = box_qp([[-2.0]], [0.0], lb=lb, ub=ub)
        code = _Core._orient_ray.__code__
        source, first = inspect.getsourcelines(code)
        target = first + next(i for i, line in enumerate(source)
                              if "return p_minus" in line)
        ran = set()

        def lines(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return lines

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     lines if frame.f_code is code else None)
        try:
            sol = solve_qp(qp)
        finally:
            sys.settrace(previous)
        assert target in ran
        assert sol.status == "unbounded"

    def test_negative_curvature_boxed_global(self):
        # min -x^2 on [-1, 2]: both endpoints are local; tie-break finds -4
        qp = box_qp([[-2.0]], [0.0], lb=[-1.0], ub=[2.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert qp_objective(qp, sol.x) <= -4.0 + 1e-9

    def test_zero_curvature_flat_objective(self):
        qp = box_qp(np.zeros((1, 1)), [0.0], lb=[-1.0], ub=[1.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert np.isclose(qp_objective(qp, sol.x), 0.0)

    def test_empty_box_rejected(self):
        qp = box_qp(np.eye(1), [0.0], lb=[1.0], ub=[0.0])
        with pytest.raises(DimensionMismatch):
            solve_qp(qp)

    @pytest.mark.parametrize("lb, ub", [
        ([-1.0, np.nan], [1.0, 1.0]), ([-1.0, -1.0], [1.0, np.nan]),
        ([-1.0, -np.inf], [1.0, -np.inf]), ([-1.0, np.inf], [1.0, np.inf])])
    def test_box_without_a_real_point_rejected(self, lb, ub):
        # these boxes used to send the active-set loop spinning for good
        qp = box_qp(np.eye(2), [1.0, 1.0], lb=lb, ub=ub)
        with returns_within(10), pytest.raises(DimensionMismatch):
            solve_qp(qp, max_pivots=150)

    @pytest.mark.parametrize("field, index, value", [
        ("g", 0, np.nan), ("g", 0, np.inf), ("W", (0, 0), np.nan),
        ("A", (1, 0), np.inf), ("b", 0, np.nan)])
    def test_non_finite_data_rejected(self, field, index, value):
        # NaN or inf in the data used to keep the active-set loop spinning
        qp = box_qp(np.eye(2), [1.0, 1.0], lb=[-1.0, -1.0], ub=[1.0, 1.0],
                    A=[1.0, 1.0], b=[0.5])
        getattr(qp, field)[index] = value
        with returns_within(10), pytest.raises(DimensionMismatch):
            solve_qp(qp, max_pivots=150)

    def test_newton_step_below_rounding_is_a_zero_step(self):
        # a huge g3 puts x3 near 8.6e6, where one ulp (1.9e-9) exceeds the
        # Newton step |p3| = 1e-9 while |q| = 7.45e-9 stays above q_tol:
        # x3 flipped between two adjacent doubles until MaxPivots
        qp = box_qp(np.diag([10.0, 10.0, 7.34]),
                    [0.0, 0.0, -62908113.21743854],
                    A=[-0.7315629283984152, -2.054126472538172, 0.0],
                    b=[0.0])
        with returns_within(10):
            sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert sol.x[2] == 8570587.631803617
        # the residual is the rounding of |g3|, not the solver's slack
        assert kkt_residual(qp, sol) <= 2.0 * np.spacing(62908113.21743854)

    def test_objective_helper(self):
        qp = box_qp([[2.0]], [3.0])
        assert qp_objective(qp, np.array([2.0])) == 0.5 * 2 * 4 + 6.0


class TestRankDeficiency:
    def test_duplicate_row_consistent(self):
        # the same plane twice; the multipliers are the minimum-norm ones
        A = np.array([[1.0, 2.0], [1.0, 2.0]])
        qp = box_qp(2.0 * np.eye(2), [0.0, 0.0], A=A, b=[2.0, 4.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 1.0])
        assert np.isclose(sol.lam[0] + 2.0 * sol.lam[1], 2.0)
        assert np.allclose(sol.lam, np.linalg.pinv(A) @ (
            qp.W @ sol.x + qp.g - sol.mu))
        assert_kkt(qp, sol)

    def test_duplicate_row_inconsistent(self):
        A = np.array([[1.0, 2.0], [1.0, 2.0]])
        qp = box_qp(2.0 * np.eye(2), [0.0, 0.0], A=A, b=[2.0, 5.0])
        sol = solve_qp(qp)
        assert sol.status == "infeasible"

    def test_zero_row_consistent(self):
        qp = box_qp(np.eye(1), [0.0], A=[[0.0]], b=[0.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert np.isclose(sol.x[0], 0.0)

    def test_zero_row_inconsistent(self):
        qp = box_qp(np.eye(1), [0.0], A=[[0.0]], b=[1.0])
        sol = solve_qp(qp)
        assert sol.status == "infeasible"


class TestStarts:
    def test_feasible_start_skips_phase1(self):
        qp = box_qp(2.0 * np.eye(2), [0.0, 0.0],
                    lb=[-5.0, -5.0], ub=[5.0, 5.0],
                    A=[[1.0], [1.0]], b=[2.0])
        sol = solve_qp(qp, feasible_start=np.array([2.0, 0.0]))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 1.0])

    def test_warm_start_reports_hit_or_miss(self):
        qp = box_qp(np.eye(1), [-2.0], lb=[0.0], ub=[1.0])
        assert solve_qp(qp).warm_start is None
        # the free face's minimizer x = 2 leaves the box; the upper face holds
        miss = solve_qp(qp, warm_start=np.array([FREE]))
        hit = solve_qp(qp, warm_start=np.array([UPPER]))
        assert (miss.warm_start, hit.warm_start) == ("miss", "hit")
        assert miss.x[0] == hit.x[0] == 1.0
        assert hit.n_pivots == 0

    def test_hint_at_an_infinite_bound_misses(self):
        # LOWER on lb = -inf would fix x0 at -inf: the hint is refused, and
        # phase 1 starts the solve instead
        qp = box_qp(np.eye(2), [1.0, 1.0], lb=[-INF, -1.0], ub=[INF, 1.0])
        sol = solve_qp(qp, warm_start=np.array([LOWER, FREE]))
        assert (sol.status, sol.warm_start) == ("optimal", "miss")
        assert np.array_equal(sol.x, [-1.0, -1.0])
        assert_kkt(qp, sol)

    def test_warm_start_resolve_few_pivots(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            M = rng.standard_normal((n, n))
            W = M @ M.T + 0.5 * np.eye(n)
            g = rng.standard_normal(n)
            lb = np.full(n, -2.0)
            ub = np.full(n, 2.0)
            A = rng.standard_normal((n, 1))
            x_feas = rng.uniform(-1.0, 1.0, size=n)
            b = A.T @ x_feas
            qp = QpData(W=W, g=g, A=A, b=b, lb=lb, ub=ub)
            cold = solve_qp(qp)
            assert cold.status == "optimal"
            warm = solve_qp(qp, warm_start=cold.active)
            assert warm.status == "optimal"
            assert np.isclose(qp_objective(qp, warm.x),
                              qp_objective(qp, cold.x), atol=1e-9)
            assert warm.n_pivots <= 2

    def test_warm_start_wrong_set_still_correct(self):
        qp = box_qp(2.0 * np.eye(2), [-2.0, -2.0],
                    lb=[0.0, 0.0], ub=[3.0, 3.0])
        bad_codes = np.array([UPPER, UPPER], dtype=np.int8)
        sol = solve_qp(qp, warm_start=bad_codes)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 1.0])

    def test_pivot_budget_exhaustion(self):
        qp = box_qp([[2.0]], [4.0], lb=[-1.0], ub=[1.0])
        with pytest.raises(MaxPivots):
            solve_qp(qp, feasible_start=np.array([1.0]), max_pivots=0)

    def test_pass_budget_stops_steps_that_block_nowhere(self, monkeypatch):
        # a step that blocks on no bound counts no pivot, so a numerical
        # fault that keeps making such steps must hit the pass budget
        qp = box_qp(2.0 * np.eye(2), [1.0, 1.0])
        monkeypatch.setattr(
            _Core, "_direction",
            lambda self, x, grad, free: (np.full(self.n, 1e-6), False))
        with returns_within(10), pytest.raises(MaxPivots):
            solve_qp(qp, max_pivots=10)

    @pytest.mark.parametrize("warm, max_pivots, method, bland, pivots", [
        # cold: 5 pivots, each adding a bound; from the fourth on the ratio
        # test picks its blocking bound by Bland's rule
        (None, 5, "_ratio", "block = min(near", 5),
        # from the lower vertex the drops run past half the budget too
        (-1, 8, "_multipliers", "drop = int(np.flatnonzero(", 7),
    ])
    def test_blands_rule_past_half_the_budget(self, warm, max_pivots, method,
                                              bland, pivots):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6))
        W = M @ M.T + 0.1 * np.eye(6)
        g = 10.0 * rng.standard_normal(6)
        qp = box_qp(W, g, lb=-np.ones(6), ub=np.ones(6))
        code = getattr(_Core, method).__code__
        source, first = inspect.getsourcelines(code)
        target = first + next(i for i, line in enumerate(source)
                              if bland in line)
        ran = set()

        def lines(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return lines

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     lines if frame.f_code is code else None)
        try:
            sol = solve_qp(qp, max_pivots=max_pivots,
                           warm_start=None if warm is None
                           else np.full(6, warm))
        finally:
            sys.settrace(previous)
        assert target in ran
        assert sol.status == "optimal"
        assert sol.n_pivots == pivots
        ref, _ = enumerate_qp_optimum(W, g, np.zeros((6, 0)), np.zeros(0),
                                      -np.ones(6), np.ones(6))
        assert np.isclose(qp_objective(qp, sol.x), ref, rtol=1e-10)
        assert_kkt(qp, sol)


def _counted(monkeypatch, owner, name):
    """Patch owner.name to log each call; returns the log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestFactorCache:
    def test_warm_equality_qp_factors_once(self, monkeypatch):
        # the warm EQP's factors serve the core's pass on the same free set
        rng = np.random.default_rng(5)
        n = 6
        M = rng.standard_normal((n, n))
        qp = box_qp(M @ M.T + np.eye(n), rng.standard_normal(n),
                    A=rng.standard_normal((n, 2)), b=[1.0, -1.0])
        qr_calls = _counted(monkeypatch, qp_module, "nullspace_basis")
        chol_calls = _counted(monkeypatch, qp_module, "certified_cholesky")
        sol = solve_qp(qp, warm_start=np.zeros(n, dtype=np.int8))
        assert sol.status == "optimal" and sol.n_pivots == 0
        assert np.all(sol.active == FREE)
        assert_kkt(qp, sol)
        assert (len(qr_calls), len(chol_calls)) == (1, 1)

    def test_pivoting_qp_factors_each_working_set_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        n = 8
        M = rng.standard_normal((n, n))
        A = rng.standard_normal((n, 1))
        x_feas = rng.uniform(-0.5, 0.5, size=n)
        qp = box_qp(M @ M.T + np.eye(n), 10.0 * rng.standard_normal(n),
                    lb=np.full(n, -0.6), ub=np.full(n, 0.6),
                    A=A, b=A.T @ x_feas)
        free_sets = []
        direction = _Core._direction

        def recording(self, x, grad, free):
            if free.size:
                free_sets.append(free.tobytes())
            return direction(self, x, grad, free)

        monkeypatch.setattr(_Core, "_direction", recording)
        qr_calls = _counted(monkeypatch, qp_module, "nullspace_basis")
        sol = solve_qp(qp, feasible_start=x_feas)
        assert sol.status == "optimal" and sol.n_pivots >= 3
        assert_kkt(qp, sol)
        changes = sum(1 for i, key in enumerate(free_sets)
                      if i == 0 or key != free_sets[i - 1])
        assert changes < len(free_sets)
        assert len(qr_calls) == changes

    def test_reduced_kept_for_the_last_working_set(self):
        rng = np.random.default_rng(9)
        n = 5
        M = rng.standard_normal((n, n))
        W = M @ M.T
        A = rng.standard_normal((n, 1))
        core = _Core(W, np.zeros(n), A, np.zeros(1), np.full(n, -INF),
                     np.full(n, INF), 100)
        every, some = np.arange(n), np.array([0, 2, 3])
        first = core.reduced(every)
        assert core.reduced(every.copy()) is first
        f = core.reduced(some)
        assert f is not first and f.qr is not first.qr
        Z = f.qr.Z
        assert Z.shape == (3, 2)
        assert np.allclose(A[some].T @ Z, 0.0)
        H = Z.T @ W[np.ix_(some, some)] @ Z
        assert np.allclose(f.chol @ f.chol.T, H)
        again = core.reduced(every)
        assert again is not first
        for a, b in [(again.qr.Z, first.qr.Z), (again.chol, first.chol)]:
            assert a is not b and np.array_equal(a, b)

    def test_positive_definite_reduced_hessian_skips_eigh(self, monkeypatch):
        rng = np.random.default_rng(10)
        n = 6
        M = rng.standard_normal((n, n))
        qp = box_qp(M @ M.T + np.eye(n), rng.standard_normal(n),
                    A=rng.standard_normal((n, 2)), b=[0.5, 1.0])
        eigh_calls = _counted(monkeypatch, np.linalg, "eigh")
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert_kkt(qp, sol)
        assert len(eigh_calls) == 0

    def test_indefinite_reduced_hessian_calls_eigh_once(self, monkeypatch):
        # W = diag(1, 1, -1) on the plane x0 + x1 + x2 = 0: indefinite, so
        # the Cholesky is refused and eigh finds the ray to the box
        qp = box_qp(np.diag([1.0, 1.0, -1.0]), [0.0, 0.0, 0.1],
                    lb=np.full(3, -1.0), ub=np.full(3, 1.0),
                    A=np.ones(3), b=[0.0])
        core = _Core(qp.W, qp.g, qp.A, qp.b, qp.lb, qp.ub, 100)
        eigh_calls = _counted(monkeypatch, np.linalg, "eigh")
        p, ray = core._direction(np.zeros(3), qp.g, np.arange(3))
        assert ray and abs(p.sum()) <= 1e-12
        assert len(eigh_calls) == 1
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert_kkt(qp, sol)

    def test_tiny_positive_curvature_takes_the_zero_curvature_ray(
            self, monkeypatch):
        # W = diag(1, 1e-13) is positive definite, but 1e-13 lies in the
        # zero band: eigh, not the Cholesky, must classify it, and the
        # gradient along it makes a descent ray rather than a 1e13 step
        W = np.diag([1.0, 1e-13])
        g = np.array([0.0, 1.0])
        core = _Core(W, g, np.zeros((2, 0)), np.zeros(0), np.full(2, -1.0),
                     np.full(2, 1.0), 100)
        eigh_calls = _counted(monkeypatch, np.linalg, "eigh")
        p, ray = core._direction(np.zeros(2), g, np.arange(2))
        assert ray
        assert np.allclose(p, [0.0, -1.0], rtol=0.0, atol=1e-15)
        assert len(eigh_calls) == 1
        sol = solve_qp(box_qp(W, g, lb=np.full(2, -1.0), ub=np.full(2, 1.0)))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.0, -1.0])


class TestFreeFactors:
    """free_factors, convexify's factors of A, pre-fill the factors of the
    working set with every variable free."""

    @given(st.integers(1, 8), st.integers(0, 10),
           st.sampled_from(["full", "deficient", "zero"]), st.booleans(),
           st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_seed_gives_the_unseeded_solution(self, n, m, kind, boxed, seed):
        # m >= n leaves no null space (k = 0); "deficient" and m > n give a
        # rank-deficient A
        rng = np.random.default_rng(seed)
        if kind == "deficient" and min(n, m) < 2:
            kind = "zero"
        A = _deficient_columns(rng, n, m, kind)
        M = rng.standard_normal((n, n))
        x_feas = rng.standard_normal(n)
        lb, ub = np.full(n, -INF), np.full(n, INF)
        if boxed:
            lb = x_feas - rng.uniform(0.1, 2.0, n)
            ub = x_feas + rng.uniform(0.1, 2.0, n)
        W, _, free = convexify(0.5 * (M + M.T), A, SubproblemParams())
        qp = box_qp(W, rng.standard_normal(n), lb, ub, A=A, b=A.T @ x_feas)
        plain = solve_qp(qp)
        seeded = solve_qp(qp, free_factors=free)
        assert seeded.status == plain.status

        def close(got, want):
            return np.max(np.abs(got - want), initial=0.0) <= 1e-10 * (
                1.0 + np.max(np.abs(want), initial=0.0))

        for got, want in [(seeded.x, plain.x), (seeded.lam, plain.lam),
                          (seeded.mu, plain.mu)]:
            assert close(got, want)

    def test_all_free_qp_factors_no_working_set(self, monkeypatch):
        rng = np.random.default_rng(12)
        n = 6
        M = rng.standard_normal((n, n))
        A = rng.standard_normal((n, 2))
        W, _, free = convexify(0.5 * (M + M.T), A, SubproblemParams())
        qp = box_qp(W, rng.standard_normal(n), A=A, b=[1.0, -1.0])
        qr_calls = _counted(monkeypatch, qp_module, "nullspace_basis")
        sol = solve_qp(qp, free_factors=free)
        assert sol.status == "optimal" and np.all(sol.active == FREE)
        assert_kkt(qp, sol)
        assert len(qr_calls) == 0

    def test_pinned_variable_leaves_the_seed_unused(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 5
        M = rng.standard_normal((n, n))
        A = rng.standard_normal((n, 2))
        x_feas = rng.standard_normal(n)
        lb, ub = x_feas - 0.5, x_feas + 0.5
        lb[1] = ub[1] = x_feas[1]
        W, _, free = convexify(0.5 * (M + M.T), A, SubproblemParams())
        qp = box_qp(W, 5.0 * rng.standard_normal(n), lb, ub, A=A,
                    b=A.T @ x_feas)
        qr_calls = _counted(monkeypatch, qp_module, "nullspace_basis")
        chol_calls = _counted(monkeypatch, qp_module, "certified_cholesky")
        plain = solve_qp(qp)
        counts = len(qr_calls), len(chol_calls)
        seeded = solve_qp(qp, free_factors=free)
        assert (len(qr_calls), len(chol_calls)) == (2 * counts[0],
                                                    2 * counts[1])
        assert all(H is not free[1] for H, _ in chol_calls)
        assert plain.status == seeded.status == "optimal"
        assert plain.n_pivots == seeded.n_pivots > 0
        assert qp_objective(qp, plain.x) == qp_objective(qp, seeded.x)
        for field_ in ("x", "lam", "mu", "active"):
            assert np.array_equal(getattr(seeded, field_),
                                  getattr(plain, field_))


class TestFace:
    """_Face owns a working set: its gathered rows, its factors and the
    class of its reduced Hessian, found by one zero-band test."""

    @staticmethod
    def _core(W, A=None):
        n = W.shape[0]
        A = np.zeros((n, 0)) if A is None else A
        return _Core(W, np.zeros(n), A, np.zeros(A.shape[1]),
                     np.full(n, -INF), np.full(n, INF), 100)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scale", [0.5, 1e3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_band_edges_classify_as_the_inline_tests_did(self, seed, scale,
                                                         sign, ulps):
        # t = +-ZERO_EIG_REL * max(1, max|w|), or one ulp either side, next
        # to a positive definite block: W's smallest eigenvalue, which eigh
        # returns exactly. Below 1 the block is a random rotation, with t
        # first or last; at 1e3 W is a permuted diagonal, so that eigh
        # returns max|w| = 1e3 exactly too
        rng = np.random.default_rng(seed)
        edge = sign * ZERO_EIG_REL * max(1.0, scale)
        t = edge if ulps == 0 else np.nextafter(edge, ulps * INF)
        if scale < 1.0:
            Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            block = Q @ np.diag(rng.uniform(0.1, scale, 4)) @ Q.T
            blocks = [0.5 * (block + block.T), [[t]]]
            W = scipy.linalg.block_diag(*blocks[::1 - 2 * (seed % 2)])
        else:
            W = np.diag(rng.permutation([scale, t,
                                         *rng.uniform(0.1, scale, 3)]))
        f = self._core(W).reduced(np.arange(5))
        # certified_cholesky certifies no band edge
        assert f.chol is None
        assert qp_module.certified_cholesky(W, ZERO_EIG_REL) is None
        w, V = np.linalg.eigh(0.5 * (W + W.T))
        assert _same_bits(f.w, w) and _same_bits(f.V, V)
        assert w[0] == t
        # the band test written out for each reader of the class
        eig_tol = ZERO_EIG_REL * max(1.0, float(np.abs(w).max()))
        assert np.array_equal(f.neg, w < -eig_tol)                 # _direction
        assert np.array_equal(f.zero, np.abs(w) <= eig_tol)
        assert bool(f.neg[0] or f.zero[0]) == (w[0] <= eig_tol)    # warm start
        assert bool(f.neg[0]) == (w[0] < -eig_tol)                 # face scan

    def test_gather_and_embed(self):
        rng = np.random.default_rng(2)
        n = 5
        A = rng.standard_normal((n, 1))
        core = self._core(np.eye(n), A)
        v, some = rng.standard_normal(n), np.array([1, 3, 4])
        every = core.reduced(np.arange(n))
        assert every.gather(v) is v and every.embed(v) is v
        assert every.rows is A
        part = core.reduced(some)
        assert np.array_equal(part.gather(v), v[some])
        assert _same_bits(part.rows, A[some])
        assert core.reduced(some.copy()) is part
        p = part.embed(np.array([-0.0, 2.0, -3.0]))
        assert _same_bits(p, np.array([0.0, -0.0, 0.0, 2.0, -3.0]))

    def test_seed_is_classified_only_when_reached(self):
        rng = np.random.default_rng(11)
        n = 5
        M = rng.standard_normal((n, n))
        A = rng.standard_normal((n, 2))
        x_feas = rng.standard_normal(n)
        W, _, free = convexify(0.5 * (M + M.T), A, SubproblemParams())
        for pinned in (True, False):
            lb, ub = x_feas - 0.5, x_feas + 0.5
            if pinned:
                lb[1] = ub[1] = x_feas[1]
            core = _Core(W, 5.0 * rng.standard_normal(n), A, A.T @ x_feas,
                         lb, ub, 100, free)
            seed = core.face
            status, *_ = core.run(x_feas.copy(),
                                  _initial_work(x_feas, lb, ub))
            assert status == "optimal"
            # a pinned variable is never free: no pass reaches the seed
            assert (seed.chol is None and seed.w is None) == pinned

    def test_face_scan_factors_each_free_set_once(self, monkeypatch):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((6, 6))
        qp = box_qp((M + M.T) / 2, rng.standard_normal(6),
                    lb=-np.ones(6), ub=np.ones(6))
        built = []
        scan, face_init = qp_module._face_enumeration, qp_module._Face.__init__

        def scanning(core):
            built.append(None)                  # the scan starts here
            return scan(core)

        def init(face, core, free, *seed):
            built.append(free.tobytes())
            face_init(face, core, free, *seed)

        monkeypatch.setattr(qp_module, "_face_enumeration", scanning)
        monkeypatch.setattr(qp_module._Face, "__init__", init)
        qr_calls = _counted(monkeypatch, qp_module, "nullspace_basis")
        sol = solve_qp(qp)
        during = built[built.index(None) + 1:]
        # every free set but the empty one, which has no face, and the
        # all-free one, which the gate before the scan factored
        assert len(during) == len(set(during)) == 2 ** 6 - 2
        assert len(qr_calls) == len(built) - 1 == 69
        # the solution of a scan that factors every face it visits afresh
        assert sol.status == "optimal" and sol.n_pivots == 6
        assert qp_objective(qp, sol.x).hex() == "-0x1.fc88affeff174p+2"
        assert np.array_equal(sol.x, [1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
        assert np.array_equal(sol.active, [1, 1, -1, 1, 1, -1])
        assert sol.lam.shape == (0,)
        assert [v.hex() for v in sol.mu.tolist()] == [
            "-0x1.867ad9339af2bp+1", "-0x1.a795a7ff26c5cp+0",
            "0x1.1e4fe972b56cbp+0", "-0x1.4a9e55b1f7027p+1",
            "-0x1.63423a82a5f08p+1", "0x1.f1e88221f0190p+0"]


def _deficient_columns(rng, rows, m, kind):
    """rows x m block of rank m or less ("full"), of rank 1 to m - 1
    ("deficient", m >= 2 and rows >= 2), or zero."""
    if kind == "zero":
        return np.zeros((rows, m))
    if kind == "full":
        return rng.standard_normal((rows, m))
    r = int(rng.integers(1, min(rows, m)))
    return rng.standard_normal((rows, r)) @ rng.standard_normal((r, m))


class TestWorkingSetSolves:
    def test_rank_deficient_multipliers_are_minimum_norm(self):
        # x0 = lb0 is both the equality and an active bound, so A[free] = 0:
        # any lam satisfies stationarity on the free rows, and the
        # minimum-norm one, 0, leaves the whole gradient on the bound
        qp = box_qp(np.eye(2), [1.0, -1.0], lb=[0.0, -INF], A=[1.0, 0.0],
                    b=[0.0])
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert np.array_equal(sol.active, [LOWER, FREE])
        assert np.array_equal(sol.lam, [0.0])
        assert np.allclose(sol.mu, [1.0, 0.0])
        assert_kkt(qp, sol)

    def test_rank_deficient_multipliers_match_lstsq(self):
        # A has full column rank, its free rows 2 and 3 only rank 1
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0], [-1.0, -2.0]])
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4))
        W, g = M @ M.T + np.eye(4), rng.standard_normal(4)
        x = np.array([0.5, -0.5, 0.3, 0.1])
        lb = np.array([0.5, -0.5, -INF, -INF])
        core = _Core(W, g, A, A.T @ x, lb, np.full(4, INF), 100)
        work = np.array([LOWER, LOWER, FREE, FREE], dtype=np.int8)
        free = np.array([2, 3])
        grad = W @ x + g
        core._direction(x, grad, free)
        lam, mu, _ = core._multipliers(grad, work, free)
        want = np.linalg.lstsq(A[free], grad[free], rcond=None)[0]
        assert np.allclose(lam, want, rtol=1e-12, atol=1e-14)
        assert np.allclose(mu, np.where(work == FREE, 0.0, grad - A @ want))

    @given(st.integers(1, 8), st.integers(0, 4),
           st.sampled_from(["full", "deficient", "zero"]),
           st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_warm_start_and_newton_step_match_lstsq_eigh(self, n, m, kind,
                                                         seed):
        rng = np.random.default_rng(seed)
        n_fixed = int(rng.integers(0, n))
        fixed = np.sort(rng.permutation(n)[:n_fixed])
        free = np.setdiff1d(np.arange(n), fixed)
        if kind == "full":
            m = min(m, free.size)
        elif kind == "deficient" and min(free.size, m) < 2:
            kind = "zero"
        A = np.zeros((n, m))
        A[free] = _deficient_columns(rng, free.size, m, kind)
        A[fixed] = rng.standard_normal((n_fixed, m))
        M = rng.standard_normal((n, n))
        W, g = M @ M.T + np.eye(n), rng.standard_normal(n)
        x_feas = rng.standard_normal(n)
        lb = np.full(n, -INF)
        lb[fixed] = x_feas[fixed]
        core = _Core(W, g, A, A.T @ x_feas, lb, np.full(n, INF), 100)
        codes = np.zeros(n, dtype=np.int8)
        codes[fixed] = LOWER

        # the formulas the QR and the Cholesky replace
        Af = A[free]
        Z = scipy.linalg.null_space(Af.T) if m else np.eye(free.size)
        w, V = np.linalg.eigh(Z.T @ W[np.ix_(free, free)] @ Z)

        def newton(q):
            return Z @ (V @ ((V.T @ -q) / w))

        def close(got, want):
            return np.max(np.abs(got - want), initial=0.0) <= 1e-10 * (
                1.0 + np.max(np.abs(want), initial=0.0))

        rhs = A.T @ x_feas - A[fixed].T @ x_feas[fixed]
        xf0 = np.linalg.lstsq(Af.T, rhs, rcond=None)[0] if m \
            else np.zeros(free.size)
        x_want = x_feas.copy()
        x_want[free] = xf0 + newton(
            Z.T @ (W[free] @ np.where(codes == FREE, 0.0, x_feas)
                   + W[np.ix_(free, free)] @ xf0 + g[free]))
        x, work = core.warm_start(codes)
        assert np.array_equal(work, codes)
        assert close(x, x_want)

        grad = W @ x_feas + g
        p_want = np.zeros(n)
        p_want[free] = newton(Z.T @ grad[free])
        move = core._direction(x_feas, grad, free)
        if move is None:
            assert Z.shape[1] == 0 or np.max(np.abs(p_want)) <= 1e-9
        else:
            assert not move[1]
            assert close(move[0], p_want)
class TestOracleBattery:
    def test_convex_matches_enumeration(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(0, 3))
            M = rng.standard_normal((n, n))
            W = M @ M.T + 0.3 * np.eye(n)
            g = rng.standard_normal(n) * 2.0
            lb = rng.uniform(-4.0, -0.5, size=n)
            ub = rng.uniform(0.5, 4.0, size=n)
            A = rng.standard_normal((n, m))
            x_feas = rng.uniform(lb, ub)
            b = A.T @ x_feas if m else np.zeros(0)
            qp = QpData(W=W, g=g, A=A, b=b, lb=lb, ub=ub)
            sol = solve_qp(qp)
            assert sol.status == "optimal"
            ref, _ = enumerate_qp_optimum(W, g, A, b, lb, ub)
            obj = qp_objective(qp, sol.x)
            assert abs(obj - ref) <= 1e-8 * (1.0 + abs(ref))
            assert_kkt(qp, sol)

    def test_indefinite_beats_grid(self):
        rng = np.random.default_rng(200)
        cases = []
        for _ in range(40):
            n = int(rng.integers(1, 5))
            W = rng.standard_normal((n, n))
            W = 0.5 * (W + W.T)
            g = rng.standard_normal(n)
            lb = rng.uniform(-3.0, -0.5, size=n)
            ub = rng.uniform(0.5, 3.0, size=n)
            cases.append((W, g, lb, ub))
        # x2 is pinned and couples to x0: the local solve stops at -0.945,
        # and the face scan finds x = (0.7, 3, -0.5) at -4.145
        cases.append((np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0],
                                [2.0, 0.0, 0.0]]), np.array([0.3, 0.2, 0.0]),
                      np.array([-2.0, -1.0, -0.5]), np.array([2.0, 3.0, -0.5])))
        for W, g, lb, ub in cases:
            n = g.size
            qp = QpData(W=W, g=g, A=np.zeros((n, 0)), b=np.zeros(0),
                        lb=lb, ub=ub)
            sol = solve_qp(qp)
            assert sol.status == "optimal"
            ref = grid_qp_minimum(W, g, lb, ub)
            assert qp_objective(qp, sol.x) <= ref + 1e-6
            assert_kkt(qp, sol, tol=1e-7 * (1.0 + np.max(np.abs(g))))

    def test_face_scan_visits_each_face_once(self, monkeypatch):
        # x2 is pinned: its one face leaves 3^2 faces of x0 and x1 to scan,
        # where enumerating all three codes of x2 made 3^3 warm starts
        W = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0], [2.0, 0.0, 0.0]])
        qp = QpData(W=W, g=np.array([0.3, 0.2, 0.0]), A=np.zeros((3, 0)),
                    b=np.zeros(0), lb=np.array([-2.0, -1.0, -0.5]),
                    ub=np.array([2.0, 3.0, -0.5]))
        faces = []
        warm_start = _Core.warm_start

        def counted(core, codes):
            faces.append(bytes(np.asarray(codes, dtype=np.int8)))
            return warm_start(core, codes)

        monkeypatch.setattr(_Core, "warm_start", counted)
        sol = solve_qp(qp)
        assert len(faces) == len(set(faces)) == 9
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.7, 3.0, -0.5], atol=1e-12)
        assert abs(qp_objective(qp, sol.x) - -4.145) <= 1e-12

    def test_equalities_hold_exactly(self):
        rng = np.random.default_rng(300)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(n, 3)))
            M = rng.standard_normal((n, n))
            W = M @ M.T + 0.5 * np.eye(n)
            g = rng.standard_normal(n)
            A = rng.standard_normal((n, m))
            x_feas = rng.uniform(-1.0, 1.0, size=n)
            b = A.T @ x_feas
            qp = QpData(W=W, g=g, A=A, b=b,
                        lb=np.full(n, -INF), ub=np.full(n, INF))
            sol = solve_qp(qp)
            assert sol.status == "optimal"
            assert np.max(np.abs(A.T @ sol.x - b)) <= 1e-8 * (
                1.0 + np.max(np.abs(b)))

    def test_solution_type(self):
        sol = solve_qp(box_qp(np.eye(1), [0.0]))
        assert isinstance(sol, QpSolution)
        assert sol.active.dtype == np.int8
        assert sol.active[0] == FREE


def probe_qp(A, b, lb, ub):
    """Phase-1 probe shape: zero W and g, so the optimum is the start."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return QpData(W=np.zeros((n, n)), g=np.zeros(n), A=A,
                  b=np.asarray(b, dtype=float),
                  lb=np.asarray(lb, dtype=float),
                  ub=np.asarray(ub, dtype=float))


class _NoLp(_Core):
    def __init__(self, *args, **kwargs):
        raise AssertionError("elastic LP ran")


class TestPhase1:
    def test_least_squares_point_without_lp(self, monkeypatch):
        rng = np.random.default_rng(41)
        A = rng.standard_normal((5, 2))
        b = np.array([3.0, -1.0])
        lb, ub = np.full(5, -INF), np.full(5, INF)
        monkeypatch.setattr(qp_module, "_Core", _NoLp)
        start, pivots, _ = _phase1(A, b, lb, ub, 100)
        x, work = start
        assert pivots == 0
        assert np.array_equal(x, np.linalg.lstsq(A.T, b, rcond=None)[0])
        assert np.all(work == FREE)

    def test_least_squares_solve_reports_no_pivots(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((6, 3))
        sol = solve_qp(probe_qp(A, [1.0, 2.0, -0.5],
                                np.full(6, -INF), np.full(6, INF)))
        assert sol.status == "optimal"
        assert sol.n_pivots == 0

    def test_clipping_falls_back_to_lp(self):
        # lstsq gives (1, 1); clipping x0 to 1.5 breaks x0 + x1 = 2
        A, b = np.array([[1.0], [1.0]]), np.array([2.0])
        lb, ub = np.array([1.5, -5.0]), np.full(2, INF)
        start, lp_pivots, _ = _phase1(A, b, lb, ub, 100)
        x, _ = start
        assert lp_pivots > 0
        assert np.all(x >= lb) and np.all(x <= ub)
        assert np.sum(np.abs(A.T @ x - b)) <= ELASTIC_TOL
        # a cold solve reports the LP's pivots (W = g = 0 adds none)
        sol = solve_qp(probe_qp(A, b, lb, ub))
        assert sol.status == "optimal"
        assert sol.n_pivots == lp_pivots

    def test_lp_point_clipped_to_box(self):
        # the LP ends with x0 one rounding error above its upper bound 2
        A = np.array([[0.0, -3.0, 0.0], [3.0, -2.0, 1.0],
                      [-3.0, 0.0, 0.0], [1.0, -3.0, 0.0]])
        b = np.array([1.0, 0.0, 0.0])
        lb = np.array([-INF, -INF, -1.0, -2.0])
        ub = np.array([2.0, 2.0, 0.0, -2.0])
        x_lp, _, _, _ = _elastic_lp(A, b, lb, ub, 100)
        assert x_lp[0] > ub[0]
        (x, work), _, _ = _phase1(A, b, lb, ub, 100)
        assert np.all(x >= lb) and np.all(x <= ub)
        assert work[0] == UPPER
        assert np.sum(np.abs(A.T @ x - b)) <= ELASTIC_TOL

    def test_inconsistent_rows_infeasible(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        lb, ub = np.full(2, -INF), np.full(2, INF)
        start, pivots, _ = _phase1(A, b, lb, ub, 100)
        assert start is None
        assert pivots > 0
        sol = solve_qp(probe_qp(A, b, lb, ub))
        assert sol.status == "infeasible"

    def test_infeasible_solve_counts_lp_pivots(self):
        A, b = np.array([[1.0], [1.0]]), np.array([10.0])
        lb, ub = np.zeros(2), np.ones(2)
        start, lp_pivots, _ = _phase1(A, b, lb, ub, 100)
        sol = solve_qp(probe_qp(A, b, lb, ub))
        assert start is None and sol.status == "infeasible"
        assert sol.n_pivots == lp_pivots > 0

    @staticmethod
    def assert_hands_over_the_lp(sol, A, b, lb, ub):
        """The LP's final z and working set start the elastic QP over the
        same constraints: z is feasible for it and the hint hits."""
        n, m = A.shape
        assert sol.status == "infeasible" and sol.lp is not None
        z, work = sol.lp
        elastic, z0 = elastic_problem(A, b, lb, ub, np.eye(n))
        assert z.shape == work.shape == (n + 2 * m,)
        assert np.allclose(elastic.A.T @ z, b)
        assert np.all(z >= elastic.lb) and np.all(z <= elastic.ub)
        cold = solve_qp(elastic, feasible_start=z0)
        warm = solve_qp(elastic, warm_start=work, feasible_start=z)
        assert warm.warm_start == "hit" and cold.warm_start is None
        assert warm.n_pivots == 0 < cold.n_pivots
        assert np.allclose(warm.x, cold.x)

    def test_infeasible_verdict_hands_over_the_lp(self):
        A, b = np.array([[1.0], [1.0]]), np.array([10.0])
        lb, ub = np.zeros(2), np.ones(2)
        sol = solve_qp(box_qp(np.eye(2), [1.0, -1.0], lb, ub, A, b))
        self.assert_hands_over_the_lp(sol, A, b, lb, ub)

    def test_dependent_columns_hand_over_the_lp(self):
        # the same row twice: the LP runs over both columns
        A, b = np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([10.0, 20.0])
        lb, ub = np.zeros(2), np.ones(2)
        sol = solve_qp(probe_qp(A, b, lb, ub))
        assert sol.n_pivots > 0
        self.assert_hands_over_the_lp(sol, A, b, lb, ub)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_verdict_matches_elastic_lp(self, data):
        # integer data keeps every LP residual either 0 or far from the tol
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        ints = st.integers(-3, 3)
        A = np.array(data.draw(st.lists(ints, min_size=n * m,
                                        max_size=n * m)),
                     dtype=float).reshape(n, m)
        b = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)),
                     dtype=float)
        lb = np.array([data.draw(st.sampled_from([-INF, -2.0, -1.0, 0.0, 1.0]))
                       for _ in range(n)])
        ub = np.array([data.draw(st.sampled_from([-1.0, 2.0, INF]))
                       if lo == -INF else
                       lo + data.draw(st.sampled_from([0.0, 1.0, 3.0, INF]))
                       for lo in lb])
        _, _, resid, _ = _elastic_lp(A, b, lb, ub, 50 * (n + 3 * m))
        assert np.isfinite(resid)
        start, _, _ = _phase1(A, b, lb, ub, 50 * (n + 3 * m))
        assert (start is None) == (resid > ELASTIC_TOL)
        if start is not None:
            x, work = start
            assert np.all(x >= lb) and np.all(x <= ub)
            assert np.sum(np.abs(A.T @ x - b)) <= ELASTIC_TOL
            assert np.array_equal(work, _initial_work(x, lb, ub))


class TestZeroHessian:
    def test_shortcut_matches_eigh_path(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(0, min(n, 4)))
            g = rng.standard_normal(n)
            lb = rng.uniform(-3.0, -0.5, size=n)
            ub = rng.uniform(0.5, 3.0, size=n)
            A = rng.standard_normal((n, m))
            x0 = rng.uniform(lb, ub)
            b = A.T @ x0
            runs = []
            for shortcut in (True, False):
                core = _Core(np.zeros((n, n)), g, A, b, lb, ub, 50 * (n + m))
                assert core.w_zero
                core.w_zero = shortcut
                out = core.run(x0.copy(), _initial_work(x0, lb, ub))
                runs.append((out, core.pivots))
            (fast, p_fast), (slow, p_slow) = runs
            assert fast[0] == slow[0] == "optimal"
            assert np.array_equal(fast[1], slow[1])
            assert np.array_equal(fast[4], slow[4])
            assert p_fast == p_slow


def kkt_residual_loop(qp, sol):
    """Per-variable reference for kkt_residual's sign and complementarity."""
    x, lam, mu = sol.x, sol.lam, sol.mu
    r_st = np.max(np.abs(qp.W @ x + qp.g - qp.A @ lam - mu), initial=0.0)
    r_eq = np.max(np.abs(qp.A.T @ x - qp.b), initial=0.0)
    r_lb = np.max(qp.lb - x, initial=0.0)
    r_ub = np.max(x - qp.ub, initial=0.0)
    r_sign = 0.0
    r_comp = 0.0
    for i in range(qp.n):
        if qp.lb[i] == qp.ub[i]:
            continue
        if mu[i] > 0.0:
            if qp.lb[i] == -INF:
                r_sign = max(r_sign, abs(mu[i]))
            r_comp = max(r_comp, mu[i] * min(x[i] - qp.lb[i], 1e10))
        elif mu[i] < 0.0:
            if qp.ub[i] == INF:
                r_sign = max(r_sign, abs(mu[i]))
            r_comp = max(r_comp, -mu[i] * min(qp.ub[i] - x[i], 1e10))
    return max(r_st, r_eq, r_lb, r_ub, r_sign, r_comp)


class TestKktResidual:
    def test_multiplier_on_missing_bound_flagged(self):
        # x = 0, g = mu keeps stationarity exact; x0 has only an upper and
        # x1 only a lower bound, each active at 0
        qp = box_qp(np.eye(2), [0.0, 0.0], lb=[-INF, 0.0], ub=[0.0, INF])
        x = np.zeros(2)
        for mu, bad in (([-0.5, 0.7], False), ([0.5, 0.0], True),
                        ([0.0, -0.7], True)):
            qp.g = np.asarray(mu)
            sol = QpSolution(status="optimal", x=x, lam=np.zeros(0),
                             mu=qp.g.copy(), n_pivots=0)
            assert (kkt_residual(qp, sol) >= 0.5) == bad

    def test_vectorized_matches_loop(self):
        rng = np.random.default_rng(91)
        choices = np.array([-INF, -2.0, -1.0, 0.0, 1.0])
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, 3))
            lb = rng.choice(choices, size=n)
            ub = np.where(np.isfinite(lb), lb, 0.0) + rng.choice(
                [0.0, 0.5, 2.0, INF], size=n)
            qp = QpData(W=np.eye(n), g=rng.standard_normal(n),
                        A=rng.standard_normal((n, m)),
                        b=rng.standard_normal(m), lb=lb, ub=ub)
            x = np.clip(rng.standard_normal(n) * 2.0, lb - 0.1, ub + 0.1)
            mu = rng.standard_normal(n) * rng.integers(0, 2, size=n)
            sol = QpSolution(status="optimal", x=x,
                             lam=rng.standard_normal(m), mu=mu,
                             n_pivots=0)
            assert kkt_residual(qp, sol) == kkt_residual_loop(qp, sol)

    def test_solver_output_passes_sign_check(self):
        rng = np.random.default_rng(92)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(0, 3))
            M = rng.standard_normal((n, n))
            lb = rng.choice([-INF, -1.0], size=n)
            ub = rng.choice([INF, 1.0], size=n)
            A = rng.standard_normal((n, m))
            b = A.T @ rng.uniform(-0.5, 0.5, size=n)
            qp = QpData(W=M @ M.T + 0.3 * np.eye(n),
                        g=rng.standard_normal(n) * 3.0,
                        A=A, b=b, lb=lb, ub=ub)
            sol = solve_qp(qp)
            assert sol.status == "optimal"
            assert_kkt(qp, sol)


def _general_warm_start(core, codes):
    """_Core.warm_start as the general path computes it for any working
    set: every block through fancy-index copies, the fixed block's terms
    included, and the pad test and the clip whatever the box."""
    W, g, A, b, lb, ub = core.W, core.g, core.A, core.b, core.lb, core.ub
    work = np.asarray(codes, dtype=np.int8).copy()
    work[lb == ub] = PINNED
    x = np.zeros(core.n)
    fixed = work != FREE
    x[work == LOWER] = lb[work == LOWER]
    x[work == UPPER] = ub[work == UPPER]
    x[work == PINNED] = lb[work == PINNED]
    if not np.isfinite(x[fixed]).all():
        return None
    free = np.flatnonzero(~fixed)
    rhs = b - A[fixed].T @ x[fixed]
    tol = 1e-9 * (1.0 + np.abs(b).max(initial=0.0))
    if free.size == 0:
        return None if np.abs(rhs).max(initial=0.0) > tol else (x, work)
    f = core.reduced(free)
    xf0 = f.qr.range_point(rhs)
    if np.abs(A[free].T @ xf0 - rhs).max(initial=0.0) > tol:
        return None
    xf, Z = xf0, f.qr.Z
    if Z.shape[1]:
        if f.chol is None and f.w[0] <= qp_module.ZERO_EIG_REL * max(
                1.0, float(np.abs(f.w).max())):
            return None
        gf = g[free] + W[np.ix_(free, fixed.nonzero()[0])] @ x[fixed] \
            + W[np.ix_(free, free)] @ xf0
        xf = xf0 + Z @ f.newton(Z.T @ gf)
    pad = 1e-10 * (1.0 + np.abs(xf).max(initial=0.0))
    if (xf < lb[free] - pad).any() or (xf > ub[free] + pad).any():
        return None
    x[free] = np.clip(xf, lb[free], ub[free])
    return x, work


def _ratio_numpy_scalars(core, x, p, alpha_cap):
    """_Core._ratio's loop over numpy scalars, the reference for its loop
    over Python floats."""
    candidates = []
    tol = 1e-14 * (1.0 + float(np.abs(p).max()))
    for i in np.flatnonzero(np.abs(p) > tol):
        if p[i] > 0.0:
            if np.isfinite(core.ub[i]):
                candidates.append((max(core.ub[i] - x[i], 0.0) / p[i], i))
        elif np.isfinite(core.lb[i]):
            candidates.append((max(x[i] - core.lb[i], 0.0) / (-p[i]), i))
    if not candidates:
        return alpha_cap, None
    a_min = min(a for a, _ in candidates)
    if a_min >= alpha_cap:
        return alpha_cap, None
    near = [(a, i) for a, i in candidates
            if a <= a_min + 1e-12 * (1.0 + a_min)]
    if core.pivots <= core.half:
        return a_min, max(near, key=lambda t: abs(p[t[1]]))[1]
    return a_min, min(near, key=lambda t: t[1])[1]


def _signed_zeros(rng, v, share=0.3):
    """v with about share of its entries replaced by -0.0."""
    v = v.copy()
    v[rng.random(v.shape) < share] = -0.0
    return v


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestHitPath:
    """The warm start's hit path skips copies and tests; every value it
    returns must keep the bits of the general path, signed zeros too."""

    @given(st.integers(0, 8), st.integers(0, 4),
           st.sampled_from(["none", "wide", "tight", "pinned"]),
           st.booleans(), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_warm_start_keeps_the_bits_of_the_general_path(
            self, n, m, box, fortran, seed):
        rng = np.random.default_rng(seed)
        m = min(m, n)
        M = rng.standard_normal((n, n))
        W = M @ M.T + np.eye(n)
        W = 0.5 * (W + W.T)
        g = _signed_zeros(rng, rng.standard_normal(n))
        A = _signed_zeros(rng, rng.standard_normal((n, m)))
        if fortran:
            A = np.asfortranarray(A)
        b = _signed_zeros(rng, rng.standard_normal(m))
        lb, ub = np.full(n, -INF), np.full(n, INF)
        if box != "none":
            half = 100.0 if box == "wide" else 0.3
            lb, ub = np.full(n, -half), np.full(n, half)
            if box == "pinned" and n:
                lb[0] = ub[0] = 0.1
        codes = np.zeros(n, dtype=np.int8)
        if n and rng.random() < 0.5:
            codes[rng.random(n) < 0.3] = LOWER
        if box == "none":
            codes[:] = FREE
        core = _Core(W, g, A, b, lb, ub, 100)
        got = core.warm_start(codes)
        want = _general_warm_start(_Core(W, g, A, b, lb, ub, 100), codes)
        assert (got is None) == (want is None)
        if got is not None:
            assert _same_bits(got[0], want[0])
            assert _same_bits(got[1], want[1])

    def test_all_free_multiplier_check_returns_zero_mu(self):
        rng = np.random.default_rng(3)
        n, m = 6, 2
        M = rng.standard_normal((n, n))
        A = rng.standard_normal((n, m))
        core = _Core(M @ M.T + np.eye(n), rng.standard_normal(n), A,
                     rng.standard_normal(m), np.full(n, -INF),
                     np.full(n, INF), 100)
        grad = _signed_zeros(rng, rng.standard_normal(n))
        work = np.zeros(n, dtype=np.int8)
        every = np.arange(n)
        lam, mu, drop = core._multipliers(grad, work, every)
        assert drop is None and _same_bits(mu, np.zeros(n))
        want = core.reduced(every).qr.multipliers(grad[every])
        assert _same_bits(lam, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_ratio_keeps_the_values_of_numpy_scalars(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        lb = rng.uniform(-2.0, 0.0, n)
        ub = rng.uniform(0.0, 2.0, n)
        lb[rng.random(n) < 0.2] = -INF
        ub[rng.random(n) < 0.2] = INF
        x = _signed_zeros(rng, rng.uniform(lb.clip(-2.0), ub.clip(None, 2.0)))
        # some at a finite lower bound: zero steps and ties
        at = (rng.random(n) < 0.3) & np.isfinite(lb)
        x[at] = lb[at]
        p = _signed_zeros(rng, rng.standard_normal(n))
        p[rng.random(n) < 0.2] = 1e-20
        core = _Core(np.eye(n), np.zeros(n), np.zeros((n, 0)), np.zeros(0),
                     lb, ub, 100)
        for pivots in (0, 60):
            core.pivots = pivots
            for cap in (1.0, INF):
                a, block = core._ratio(x, p, cap)
                a_ref, block_ref = _ratio_numpy_scalars(core, x, p, cap)
                assert block == block_ref
                assert np.float64(a).tobytes() == np.float64(a_ref).tobytes()

    def test_empty_qp_hits_its_warm_start(self):
        qp = QpData(W=np.zeros((0, 0)), g=np.zeros(0), A=np.zeros((0, 0)),
                    b=np.zeros(0), lb=np.zeros(0), ub=np.zeros(0))
        sol = solve_qp(qp, warm_start=np.zeros(0, dtype=np.int8))
        assert sol.status == "optimal" and sol.warm_start == "hit"
        assert sol.x.shape == (0,)

    @pytest.mark.parametrize("lb, ub, ok", [
        ([0.0, -INF], [1.0, INF], True), ([INF], [INF], False),
        ([-INF], [-INF], False), ([1.0], [0.0], False),
        ([np.nan], [1.0], False), ([0.0], [np.nan], False),
        ([-INF, 2.0], [INF, 2.0], True), ([], [], True)])
    def test_box_check_verdicts(self, lb, ub, ok):
        n = len(lb)
        qp = box_qp(np.eye(n), np.zeros(n), lb=lb, ub=ub)
        if ok:
            assert solve_qp(qp).status == "optimal"
        else:
            with pytest.raises(DimensionMismatch, match="empty box"):
                solve_qp(qp)

    def test_elastic_problem_keeps_the_bits_of_vstack(self):
        rng = np.random.default_rng(12)
        n, m = 4, 3
        A = np.asfortranarray(_signed_zeros(rng, rng.standard_normal((n, m))))
        b = _signed_zeros(rng, rng.standard_normal(m))
        lb, ub = np.full(n, -1.0), np.full(n, INF)
        W = rng.standard_normal((n, n))
        data, z0 = elastic_problem(A, b, lb, ub, W)
        want_A = np.vstack([A, -np.eye(m), np.eye(m)])
        assert _same_bits(data.A, want_A)
        assert data.A.flags.c_contiguous
        assert np.signbit(data.A[n:n + m]).sum() == m * m
        assert _same_bits(data.g, np.concatenate([np.zeros(n),
                                                  np.ones(2 * m)]))
        x0 = np.clip(np.zeros(n), lb, ub)
        r = A.T @ x0 - b
        assert _same_bits(z0, np.concatenate(
            [x0, np.maximum(r, 0.0), np.maximum(-r, 0.0)]))


class TestInputsUnwritten:
    """solve_qp writes none of its inputs, so a caller may hand it arrays
    it keeps using: the direction engine passes grad f and J in place."""

    def test_random_qps(self):
        rng = np.random.default_rng(31)
        statuses = collections.Counter()
        for trial in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, 3))
            M = rng.standard_normal((n, n))
            # every third W is indefinite, and then the box is finite
            indefinite = trial % 3 == 0
            W = 0.5 * (M + M.T) if indefinite else M @ M.T + 0.1 * np.eye(n)
            A = rng.standard_normal((n, m))
            x_feas = rng.uniform(-1.0, 1.0, n)
            if indefinite or trial % 3 == 1:
                lb, ub = x_feas - rng.uniform(0.1, 2.0, n), \
                    x_feas + rng.uniform(0.1, 2.0, n)
            else:
                lb, ub = np.full(n, -INF), np.full(n, INF)
            qp = QpData(W=W, g=rng.standard_normal(n), A=A, b=A.T @ x_feas,
                        lb=lb, ub=ub)
            cold = solve_unwritten(qp)
            statuses[cold.status] += 1
            if cold.status == "optimal":
                for hint in (cold.active.copy(),
                             np.where(cold.active == FREE, UPPER, FREE)):
                    warm = solve_unwritten(qp, warm_start=hint)
                    statuses[warm.warm_start] += 1
            solve_unwritten(qp, feasible_start=x_feas)
            Wc, _, free = convexify(W, A, SubproblemParams())
            solve_unwritten(QpData(Wc, qp.g, A, qp.b, lb, ub),
                             free_factors=free)
            # an elastic QP over constraints the box may not meet
            eqp, z0 = elastic_problem(A, rng.standard_normal(m), lb, ub,
                                      M @ M.T + np.eye(n))
            sol = solve_unwritten(eqp, feasible_start=z0)
            assert sol.status == "optimal"
            solve_unwritten(eqp, warm_start=sol.active.copy(),
                             feasible_start=z0)
        # warm starts that hit and that miss both ran
        assert statuses["optimal"] and statuses["hit"] and statuses["miss"]
