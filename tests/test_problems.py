"""Registry consistency, evaluator contracts, and ranged-form lowering."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradient, fd_hessian
from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import load_file
from funnel_sqp.errors import DimensionMismatch, NonFiniteValue, UnknownProblem
from funnel_sqp.problems import (EvalCounters, GeneralProblem, NcoProblem,
                                 evaluate_functions, evaluate_gradients,
                                 evaluate_lagrangian_hessian, from_expressions,
                                 get_problem, infeasibility, problem_names,
                                 to_standard_form)
from funnel_sqp.tape import TapeSet


class TestRegistry:
    def test_names_sorted_and_stable(self):
        names = problem_names()
        assert names == sorted(names)
        assert len(names) == len(set(names))
        for expected in ("maratos-fletcher", "powellbs", "circle",
                         "bounded-lp", "line-circle", "infeasible-quadratic",
                         "unbounded-cubic", "hs6", "hs7", "hs26", "box-qp"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownProblem):
            get_problem("nonesuch")

    @pytest.mark.parametrize("name", problem_names())
    def test_shapes_consistent(self, name):
        p = get_problem(name)
        x = p.start_point()
        assert x.shape == (p.n,)
        assert np.all(x >= p.lb) and np.all(x <= p.ub)
        fx, cx = evaluate_functions(p, x)
        assert isinstance(fx, float)
        assert cx.shape == (p.m,)
        g, J = evaluate_gradients(p, x)
        assert g.shape == (p.n,)
        assert J.shape == (p.n, p.m)
        lam = p.start_multipliers()
        assert lam.shape == (p.m,)
        W = evaluate_lagrangian_hessian(p, x, 1.0, lam)
        assert W.shape == (p.n, p.n)
        assert np.allclose(W, W.T)

    @pytest.mark.parametrize("name", problem_names())
    def test_registry_derivatives_vs_fd(self, name):
        # tape derivatives of the registry's f and c checked against
        # central differences
        p = get_problem(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(5):
            x = p.start_point() + rng.uniform(-0.3, 0.3, size=p.n)
            x = np.clip(x, p.lb, p.ub)
            g_fd = fd_gradient(p.f, x)
            g = np.asarray(p.grad_f(x), dtype=float)
            assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-5)
            J = np.asarray(p.jac_c(x), dtype=float)
            for j in range(p.m):
                cj_fd = fd_gradient(lambda z: float(p.c(z)[j]), x)
                assert np.allclose(J[:, j], cj_fd, rtol=1e-5, atol=1e-5)

    def test_known_solutions_feasible(self):
        for name in problem_names():
            p = get_problem(name)
            if p.known_solution is None:
                continue
            xs = np.asarray(p.known_solution, dtype=float)
            _, cx = evaluate_functions(p, xs)
            assert infeasibility(cx) <= 1e-5
            assert np.all(xs >= p.lb - 1e-9) and np.all(xs <= p.ub + 1e-9)

    def test_maratos_start_data(self):
        p = get_problem("maratos-fletcher")
        assert p.n == 2 and p.m == 1
        x0 = p.start_point()
        assert np.allclose(x0, [0.707106781, 0.707106781])
        assert np.allclose(p.start_multipliers(), [1.5])

    def test_default_multipliers_zero(self):
        p = get_problem("circle")
        assert p.lambda0 is None
        assert np.array_equal(p.start_multipliers(), np.zeros(p.m))

    def test_start_point_clips_into_box(self):
        p = get_problem("bounded-lp")
        q = NcoProblem(name=p.name, n=p.n, m=p.m, f=p.f, c=p.c,
                       grad_f=p.grad_f, jac_c=p.jac_c, hess_f=p.hess_f,
                       hess_c=p.hess_c, lb=p.lb, ub=p.ub,
                       x0=p.ub + 5.0)
        assert np.array_equal(q.start_point(), p.ub)


class TestEvaluators:
    def test_counters_bump(self):
        p = get_problem("circle")
        counters = EvalCounters()
        x = p.start_point()
        evaluate_functions(p, x, counters)
        evaluate_functions(p, x, counters)
        evaluate_gradients(p, x, counters)
        evaluate_lagrangian_hessian(p, x, 1.0, np.zeros(p.m), counters)
        assert counters.n_f == 2 and counters.n_c == 2
        assert counters.n_grad_f == 1 and counters.n_jac_c == 1
        assert counters.n_hess == 1
        d = counters.as_dict()
        assert d["n_f"] == 2 and d["n_hess"] == 1

    def test_lagrangian_hessian_combination(self):
        p = get_problem("maratos-fletcher")
        x = p.start_point()
        lam = np.array([0.7])
        W = evaluate_lagrangian_hessian(p, x, 2.0, lam)
        expected = 2.0 * p.hess_f(x) - 0.7 * p.hess_c(x)[0]
        assert np.allclose(W, expected)

    @staticmethod
    def _stack_problem(Hf, Hc):
        n, m = Hf.shape[0], Hc.shape[0]
        return NcoProblem(
            name="stack", n=n, m=m, f=lambda x: 0.0,
            c=lambda x: np.zeros(m), grad_f=lambda x: np.zeros(n),
            jac_c=lambda x: np.zeros((n, m)), hess_f=lambda x: Hf,
            hess_c=lambda x: Hc, lb=np.full(n, -np.inf),
            ub=np.full(n, np.inf), x0=np.zeros(n))

    def test_lagrangian_hessian_matches_row_loop(self):
        rng = np.random.default_rng(17)
        n, m = 7, 5
        Hf = rng.standard_normal((n, n))
        Hc = rng.standard_normal((m, n, n))
        lam = rng.standard_normal(m)
        x = np.zeros(n)
        expected = 1.5 * Hf
        for j in range(m):
            expected = expected - lam[j] * Hc[j]
        p = self._stack_problem(Hf, Hc)
        W = evaluate_lagrangian_hessian(p, x, 1.5, lam)
        np.testing.assert_allclose(W, expected, rtol=1e-14, atol=1e-14)
        # a list of multipliers is read like the array
        assert np.array_equal(
            evaluate_lagrangian_hessian(p, x, 1.5, lam.tolist()), W)
        empty = self._stack_problem(Hf, np.zeros((0, n, n)))
        assert np.array_equal(
            evaluate_lagrangian_hessian(empty, x, 1.5, []), 1.5 * Hf)

    def test_rho_zero_drops_objective_curvature(self):
        p = get_problem("maratos-fletcher")
        x = p.start_point()
        W = evaluate_lagrangian_hessian(p, x, 0.0, np.zeros(1))
        assert np.allclose(W, np.zeros((2, 2)))

    def test_rho_zero_never_evaluates_objective_hessian(self):
        # restoration's Hessian has rho = 0: an objective Hessian that is
        # not finite (or costly) is never asked for; rho = 1 still checks it
        calls = []

        def hess_f(x):
            calls.append(x)
            return np.full((2, 2), np.inf)

        Hc = np.array([[[2.0, 1.0], [1.0, 0.0]]])
        p = self._stack_problem(np.zeros((2, 2)), Hc)
        p.hess_f = hess_f
        counters = EvalCounters()
        W = evaluate_lagrangian_hessian(p, np.zeros(2), 0.0, [0.5], counters)
        assert np.array_equal(W, -0.5 * Hc[0])
        assert calls == [] and counters.n_hess == 1
        with pytest.raises(NonFiniteValue):
            evaluate_lagrangian_hessian(p, np.zeros(2), 1.0, [0.5])
        assert len(calls) == 1

    def test_zero_multipliers_never_evaluate_constraint_hessians(self):
        # lam = 0 at the first iterate and at each restoration entry: a
        # callable problem's hess_c is not asked for there
        calls = []

        def hess_c(x):
            calls.append(x)
            return np.full((1, 2, 2), np.inf)

        Hf = np.array([[2.0, 1.0], [1.0, 4.0]])
        p = self._stack_problem(Hf, np.zeros((1, 2, 2)))
        p.hess_c = hess_c
        counters = EvalCounters()
        W = evaluate_lagrangian_hessian(p, np.zeros(2), 1.5, [0.0], counters)
        assert np.array_equal(W, 1.5 * Hf)
        W = evaluate_lagrangian_hessian(p, np.zeros(2), 0.0, np.zeros(1))
        assert np.array_equal(W, np.zeros((2, 2)))
        assert calls == [] and counters.n_hess == 1
        with pytest.raises(NonFiniteValue):
            evaluate_lagrangian_hessian(p, np.zeros(2), 1.5, [0.5])
        assert len(calls) == 1

    def test_weighted_hessian_skips_zero_weight_groups(self):
        # sqrt(x0) has a non-finite Hessian at 0; the row is not evaluated
        # while its multiplier is 0, and raises as soon as it is not
        p = from_expressions("t", 2, lambda x: x[0] ** 2 + x[1] ** 2,
                             [lambda x: np.sqrt(x[0]),
                              lambda x: x[1] ** 3 - 1.0])
        x = np.array([0.0, 2.0])
        W = evaluate_lagrangian_hessian(p, x, 1.0, [0.0, 0.5])
        assert np.array_equal(W, [[2.0, 0.0], [0.0, 2.0 - 0.5 * 12.0]])
        with pytest.raises(NonFiniteValue):
            evaluate_lagrangian_hessian(p, x, 1.0, [0.5, 0.0])

    def test_nonfinite_derivatives_are_counted_then_rejected(self):
        # the tape returns what it computes; evaluate_* counts the call and
        # then rejects an inf or NaN, as it does for f and c
        p = from_expressions("t", 2, lambda x: np.sqrt(x[0]) + x[1] ** 1.5,
                             [lambda x: x[1] ** 1.5 - x[0]])
        x = np.zeros(2)
        counters = EvalCounters()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.grad_f(x)[0] == np.inf
            with pytest.raises(NonFiniteValue, match="objective gradient"):
                evaluate_gradients(p, x, counters)
            assert counters.n_grad_f == 1 and counters.n_jac_c == 1
            # both Hessians read +inf at (1, 1), so W reads inf - inf there
            assert np.isnan(p.hess_lag(x, 1.0, np.ones(1))[1, 1])
            with pytest.raises(NonFiniteValue, match="Lagrangian Hessian"):
                evaluate_lagrangian_hessian(p, x, 1.0, np.ones(1), counters)
            assert counters.n_hess == 1

    def test_nonfinite_objective_raises(self):
        p = get_problem("powellbs")
        # exp(-x0) overflows for very negative x0
        with pytest.raises(NonFiniteValue):
            evaluate_functions(p, np.array([-1e6, 0.0]))

    @pytest.mark.parametrize("name, x", [
        ("powellbs", [-1e6, 0.0]),       # exp(-x0) overflows
        ("hs7", [1e200, 0.0]),           # x0^2 overflows
        ("hs26", [0.0, 1e200, 1e100]),   # (x0 - x1)^2 overflows
    ])
    def test_domain_fault_is_nonfinite_value_not_warning(self, name, x):
        p = get_problem(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                evaluate_functions(p, np.array(x))

    def test_wrong_constraint_count_raises(self):
        p = get_problem("circle")
        bad = NcoProblem(name="bad", n=p.n, m=2, f=p.f, c=p.c,
                         grad_f=p.grad_f, jac_c=p.jac_c, hess_f=p.hess_f,
                         hess_c=p.hess_c, lb=p.lb, ub=p.ub, x0=p.x0)
        with pytest.raises(DimensionMismatch):
            evaluate_functions(bad, p.start_point())

    def test_infeasibility_is_l1(self):
        assert infeasibility(np.array([1.0, -2.0, 0.5])) == 3.5
        assert infeasibility(np.zeros(3)) == 0.0


def _quad_expr(x):
    return x[0] ** 2 + 2.0 * x[1] ** 2 + x[0] * x[1]


class TestFromExpressions:
    def test_derivatives_from_hyperduals(self):
        p = from_expressions("quad", 2, _quad_expr,
                             [lambda x: x[0] + x[1] - 1.0])
        x = np.array([0.3, -0.4])
        assert np.allclose(p.grad_f(x), [2 * 0.3 - 0.4, -4 * 0.4 + 0.3])
        assert np.allclose(p.hess_f(x), [[2.0, 1.0], [1.0, 4.0]])
        assert np.allclose(p.jac_c(x), [[1.0], [1.0]])
        assert np.allclose(p.hess_c(x)[0], np.zeros((2, 2)))

    def test_unconstrained_shapes(self):
        p = from_expressions("free", 2, _quad_expr, [])
        x = np.array([1.0, 1.0])
        assert p.m == 0
        assert p.c(x).shape == (0,)
        assert p.jac_c(x).shape == (2, 0)
        assert p.hess_c(x).shape == (0, 2, 2)

    def test_defaults(self):
        p = from_expressions("free", 2, _quad_expr, [])
        assert np.all(np.isinf(p.lb)) and np.all(np.isinf(p.ub))
        assert np.array_equal(p.x0, np.zeros(2))


class TestNoHessianStack:
    @pytest.mark.parametrize("mechanism", ["trust-region", "line-search"])
    def test_registry_and_model_solves_form_no_stack(self, monkeypatch,
                                                      mechanism):
        def hessians(self, x):
            raise AssertionError("a solve formed a per-row Hessian stack")

        monkeypatch.setattr(TapeSet, "hessians", hessians)
        models = sorted((Path(__file__).resolve().parents[1]
                         / "models").glob("*.nco"))
        assert models
        problems = [get_problem(name) for name in problem_names()]
        problems += [load_file(path) for path in models]
        for strategy in ("funnel", "filter"):
            config = SolverConfig(strategy=strategy, mechanism=mechanism)
            for p in problems:
                assert solve(p, config).counters.n_hess > 0


class TestToStandardForm:
    def _ranged(self):
        # one equality row, one ranged row, one one-sided row
        return GeneralProblem(
            name="ranged",
            n=2,
            f_expr=lambda x: x[0] ** 2 + x[1] ** 2,
            con_exprs=[
                lambda x: x[0] + x[1],
                lambda x: x[0] - x[1],
                lambda x: x[0] * x[1],
            ],
            lb=np.array([-5.0, -5.0]),
            ub=np.array([5.0, 5.0]),
            cl=np.array([2.0, -1.0, -np.inf]),
            cu=np.array([2.0, 1.0, 4.0]),
            x0=np.array([1.0, 1.0]),
        )

    def test_slack_count_and_bounds(self):
        p = to_standard_form(self._ranged())
        # rows 1 and 2 get slacks, row 0 is already an equality
        assert p.n == 4 and p.m == 3
        assert np.array_equal(p.lb[2:], [-1.0, -np.inf])
        assert np.array_equal(p.ub[2:], [1.0, 4.0])

    def test_equality_row_shifted(self):
        p = to_standard_form(self._ranged())
        x = np.array([1.5, 0.5, 0.0, 0.0])
        cx = p.c(x)
        assert np.isclose(cx[0], 1.5 + 0.5 - 2.0)

    def test_slack_rows_subtract_slack(self):
        p = to_standard_form(self._ranged())
        x = np.array([1.5, 0.5, 1.0, 0.75])
        cx = p.c(x)
        assert np.isclose(cx[1], (1.5 - 0.5) - 1.0)
        assert np.isclose(cx[2], (1.5 * 0.5) - 0.75)

    def test_slack_start_clipped_into_range(self):
        p = to_standard_form(self._ranged())
        x0 = p.start_point()
        # row 1 value at x0 is 0 (inside [-1,1]); row 2 value is 1 (<= 4)
        assert np.isclose(x0[2], 0.0)
        assert np.isclose(x0[3], 1.0)
        # a start outside the range lands on the nearer end
        gp = self._ranged()
        gp.x0 = np.array([3.0, 3.0])
        q = to_standard_form(gp)
        assert np.isclose(q.start_point()[2], 0.0)   # x0-x1 = 0
        assert np.isclose(q.start_point()[3], 4.0)   # x0*x1 = 9 clipped to cu

    def test_lowered_derivatives_vs_fd(self):
        p = to_standard_form(self._ranged())
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=4)
            assert np.allclose(p.grad_f(x), fd_gradient(p.f, x),
                               rtol=1e-5, atol=1e-6)
            H_fd = fd_hessian(p.f, x)
            assert np.allclose(p.hess_f(x), H_fd, rtol=1e-4, atol=1e-4)

    def test_all_equalities_passthrough(self):
        gp = self._ranged()
        gp.cl = np.array([2.0, 0.0, 1.0])
        gp.cu = np.array([2.0, 0.0, 1.0])
        p = to_standard_form(gp)
        assert p.n == 2 and p.m == 3
