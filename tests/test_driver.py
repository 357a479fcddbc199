"""End-to-end solves: frozen iteration traces, termination kinds, events."""

import math
import warnings

import numpy as np
import pytest

from conftest import bench_chain, two_sig
import funnel_sqp.driver as driver_mod
import funnel_sqp.subproblems as subproblems
from funnel_sqp.config import (SolverConfig, TrustRegionParams,
                               apply_overrides)
from funnel_sqp.driver import (complementarity, format_trace,
                               lagrangian_gradient, solve)
from funnel_sqp.dsl import load_source
import funnel_sqp.problems as problems_mod
from funnel_sqp.problems import NcoProblem, from_expressions, get_problem
from funnel_sqp.strategies import (LABEL_H_TYPE, LABEL_INFEASIBLE,
                                   LABEL_OPTIMAL, FunnelStrategy, StepVerdict)
from funnel_sqp.subproblems import Phase


def _config(strategy="funnel", mechanism="trust-region", **extra):
    over = {"strategy": strategy, "mechanism": mechanism}
    over.update(extra)
    return apply_overrides(SolverConfig(), over)


def _solve(name, strategy="funnel", mechanism="trust-region", **extra):
    return solve(get_problem(name), _config(strategy, mechanism, **extra))


@pytest.fixture(scope="module")
def maratos_tr():
    return _solve("maratos-fletcher")


@pytest.fixture(scope="module")
def maratos_ls():
    return _solve("maratos-fletcher", mechanism="line-search")


@pytest.fixture(scope="module")
def line_circle_tr():
    return _solve("line-circle")


# columns: k, l, radius, |d|, f, h, |gradL|, label; None marks a blank cell
TR_ROWS = [
    (0, None, 10.0, None, -0.7071068, 5.28e-10, 7.65e-01, "initial point"),
    (1, 1, 10.0, 0.5, -0.2071068, 0.5, None, "rejected (Armijo)"),
    (None, 2, 0.25, 0.25, -0.7071068, 0.125, None, "rejected (Armijo)"),
    (None, 3, 0.125, 0.125, -0.7696068, 3.12e-02, 8.59e-01, "f-type step"),
    (2, 1, 0.25, 0.25, -0.8144768, 8.69e-02, 4.18e-01, "f-type step"),
    (3, 1, 0.5, 2.72e-01, -0.8834735, 7.60e-02, 5.86e-02, "f-type step"),
    (4, 1, 0.5, 6.30e-02, -0.9924060, 5.06e-03, 2.86e-03, "f-type step"),
    (5, 1, 0.5, 2.55e-03, -0.9999807, 1.28e-05, 1.37e-05, "f-type step"),
    (6, 1, 0.5, 9.77e-06, -1.0, 1.37e-10, 1.88e-10, "eps-optimal"),
]

# columns: k, l, alpha, reg, |alpha d|, f, h, |gradL|, label
LS_ROWS = [
    (0, None, None, None, None,
     -0.7071068, 5.28e-10, 7.65e-01, "initial point"),
    (1, 1, 1.0, 1e-4, 0.5, -0.2072568, 0.5, None, "rejected (Armijo)"),
    (None, 2, 0.5, None, 0.25, -0.7071318, 0.125, 4.31e-01, "f-type step"),
    (2, 1, 1.0, 1e-4, 4.81e-01,
     -0.6047698, 2.58e-01, None, "rejected (Armijo)"),
    (None, 2, 0.5, None, 2.40e-01,
     -0.7851383, 1.27e-01, 2.10e-01, "f-type step"),
    (3, 1, 1.0, 1e-4, 2.40e-01, -0.9125416, 5.79e-02, 2.30e-02, "f-type step"),
    (4, 1, 1.0, 1e-4, 2.76e-02, -0.9979745, 1.35e-03, 9.91e-04, "f-type step"),
    (5, 1, 1.0, 1e-4, 6.74e-04, -0.9999987, 8.86e-07, 1.24e-06, "f-type step"),
    (6, 1, 1.0, 1e-4, 8.65e-07, -1.0, 9.44e-13, 9.59e-11, "eps-optimal"),
]


class TestGoldenTrustRegion:
    def test_outcome(self, maratos_tr):
        res = maratos_tr
        assert res.status == "kkt_point"
        assert res.success
        assert res.n_outer == 6
        assert len(res.iterations) == len(TR_ROWS)
        assert res.step_counts == {"f_type": 6, "h_type": 0,
                                   "restoration": 0, "kkt_zero": 0}
        assert res.events == []

    def test_rows(self, maratos_tr):
        for rec, (k, l, delta, dn, f, h, gl, label) in zip(
                maratos_tr.iterations, TR_ROWS):
            assert rec.k == k and rec.l == l
            assert rec.label == label
            # radii carry the start point's last-digit noise, nothing more
            assert rec.delta == pytest.approx(delta, rel=1e-8)
            assert rec.tau == 100.0
            assert rec.alpha is None and rec.regularization is None
            if dn is None:
                assert rec.step_norm is None
            else:
                assert two_sig(rec.step_norm, dn)
            assert two_sig(rec.f_trial, f)
            assert two_sig(rec.h_trial, h)
            if gl is None:
                assert rec.grad_lag is None
            else:
                assert two_sig(rec.grad_lag, gl)

    def test_final_point(self, maratos_tr):
        res = maratos_tr
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-8)
        assert res.lam[0] == pytest.approx(1.5, abs=1e-6)
        assert res.f == pytest.approx(-1.0, abs=1e-8)
        assert res.h <= 1e-9

    def test_grad_lag_only_on_kept_rows(self, maratos_tr):
        for rec in maratos_tr.iterations:
            if rec.label.startswith("rejected"):
                assert rec.grad_lag is None
            else:
                assert isinstance(rec.grad_lag, float)

    def test_all_rows_optimality_phase(self, maratos_tr):
        assert all(r.phase == "optimality" for r in maratos_tr.iterations)


class TestGoldenLineSearch:
    def test_outcome(self, maratos_ls):
        res = maratos_ls
        assert res.status == "kkt_point"
        assert res.n_outer == 6
        assert len(res.iterations) == len(LS_ROWS)
        assert res.step_counts["f_type"] == 6

    def test_rows(self, maratos_ls):
        for rec, (k, l, alpha, reg, dn, f, h, gl, label) in zip(
                maratos_ls.iterations, LS_ROWS):
            assert rec.k == k and rec.l == l
            assert rec.label == label
            assert rec.delta is None
            if alpha is None:
                assert rec.alpha is None
            else:
                assert rec.alpha == alpha
            # the regularizer column only appears on fresh directions
            assert rec.regularization == reg
            assert rec.tau == 100.0
            if dn is None:
                assert rec.step_norm is None
            else:
                assert two_sig(rec.step_norm, dn)
            assert two_sig(rec.f_trial, f)
            assert two_sig(rec.h_trial, h)
            if gl is None:
                assert rec.grad_lag is None
            else:
                assert two_sig(rec.grad_lag, gl)

    def test_final_point(self, maratos_ls):
        res = maratos_ls
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-8)
        assert res.lam[0] == pytest.approx(1.5, abs=1e-6)
        assert res.iterations[-1].grad_lag <= 1e-9


class TestTermination:
    def test_circle_converges_in_one_step(self):
        res = _solve("circle")
        assert res.status == "kkt_point"
        assert res.n_outer == 1
        assert res.success
        assert res.iterations[-1].label == LABEL_OPTIMAL

    def test_infeasible_stationary(self):
        res = _solve("infeasible-quadratic")
        assert res.status == "infeasible_stationary"
        assert res.success
        assert res.n_outer == 2
        assert abs(res.x[0]) <= 1e-8
        assert res.h > 1e-6
        assert res.iterations[-1].label == LABEL_INFEASIBLE
        assert res.step_counts["h_type"] == 1
        assert res.step_counts["kkt_zero"] == 1

    def test_unbounded(self):
        res = _solve("unbounded-cubic")
        assert res.status == "unbounded"
        assert not res.success
        assert res.f < -1e20
        assert res.h <= 1e-6

    def test_max_iterations(self):
        res = _solve("hs26", max_outer=3)
        assert res.status == "max_iterations"
        assert not res.success
        assert res.n_outer == 3

    @pytest.mark.parametrize("name, status, error_kind", [
        ("bounded-lp", "small_feasible_step", None),
        ("circle", "error", "small_step_infeasible"),
    ])
    def test_radius_below_its_floor(self, name, status, error_kind):
        # the first radius 10 is already under delta_min: a feasible start
        # ends small_feasible_step, an infeasible one is an error
        config = SolverConfig(trust_region=TrustRegionParams(delta_min=20.0))
        res = solve(get_problem(name), config)
        assert res.status == status
        assert res.error_kind == error_kind
        assert res.n_outer == 0
        assert not res.success

    def test_line_search_lands_on_infeasible_point(self):
        res = _solve("line-circle", mechanism="line-search")
        assert res.status == "infeasible_stationary"
        assert res.n_outer == 5
        root = math.sqrt(2.5)
        assert np.allclose(res.x, [root, root], atol=1e-4)


class TestRestorationEvents:
    def test_entry_event(self, line_circle_tr):
        ev = line_circle_tr.events[0]
        assert ev["type"] == "restoration_entry"
        assert ev["k"] == 1
        assert ev["source"] == "infeasible_qp"
        assert ev["lambda_reset"] is True
        assert np.allclose(ev["x_resto"], [1.0, 1.0])
        assert ev["h_resto"] == pytest.approx(4.0, rel=1e-12)

    def test_exit_event(self, line_circle_tr):
        exits = [e for e in line_circle_tr.events
                 if e["type"] == "restoration_exit"]
        assert len(exits) == 1
        ev = exits[0]
        assert ev["k"] == 26
        assert two_sig(ev["h_trial"], 0.1444)
        assert ev["tau_before"] == 100.0
        assert two_sig(ev["tau_after"], 50.072)
        assert ev["h_resto"] == pytest.approx(4.0, rel=1e-12)
        # the gate that let the solver leave restoration
        assert ev["h_trial"] <= 0.99 * min(ev["tau_before"], ev["h_resto"])

    def test_k_is_the_last_key(self, line_circle_tr):
        assert len(line_circle_tr.events) == 2
        for ev in line_circle_tr.events:
            assert list(ev)[-1] == "k"

    def test_entry_precedes_exit_in_one_iteration(self, monkeypatch):
        class ExitAtOnce(FunnelStrategy):
            def decide(self, state, trial):
                if trial.phase is Phase.RESTORATION:
                    return StepVerdict(True, LABEL_H_TYPE, step_type="h-type",
                                       new_phase=Phase.OPTIMALITY)
                return super().decide(state, trial)

        monkeypatch.setattr(driver_mod, "FunnelStrategy", ExitAtOnce)
        res = _solve("line-circle")
        assert [(e["type"], e["k"]) for e in res.events][:2] == \
            [("restoration_entry", 1), ("restoration_exit", 1)]

    @pytest.mark.parametrize("strategy, mechanism", [
        ("funnel", "trust-region"), ("funnel", "line-search"),
        ("filter", "trust-region"), ("filter", "line-search")])
    def test_zero_step_leaves_restoration(self, strategy, mechanism):
        # restoration reaches the feasible x = 1, where the elastic
        # subproblem is clean and its step zero; that step must exit
        src = ("var x start 0; minimize x^2; subject_to x^2 == 1; "
               "subject_to x == 1;")
        res = solve(load_source(src), _config(strategy, mechanism))
        assert res.status == "kkt_point"
        assert res.x == pytest.approx([1.0])

    def test_outcome(self, line_circle_tr):
        res = line_circle_tr
        assert res.status == "kkt_point"
        assert res.n_outer == 29
        assert np.allclose(res.x, [2.0, -1.0], atol=1e-6)
        assert res.f == pytest.approx(2.0, abs=1e-6)
        assert res.step_counts == {"f_type": 3, "h_type": 1,
                                   "restoration": 25, "kkt_zero": 0}

    def test_funnel_width_never_grows(self, line_circle_tr):
        taus = [r.tau for r in line_circle_tr.iterations if r.tau is not None]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_phases_recorded(self, line_circle_tr):
        phases = [r.phase for r in line_circle_tr.iterations]
        assert "restoration" in phases
        assert line_circle_tr.iterations[-1].phase == "optimality"


class TestBookkeeping:
    def test_counters(self, maratos_tr):
        cnt = maratos_tr.counters
        assert cnt.n_f == cnt.n_c
        assert cnt.n_grad_f == cnt.n_jac_c
        assert cnt.n_grad_f >= maratos_tr.n_outer + 1
        assert cnt.n_hess >= maratos_tr.n_outer
        assert cnt.n_f > cnt.n_grad_f

    def test_default_config(self):
        res = solve(get_problem("circle"))
        assert res.strategy == "funnel"
        assert res.mechanism == "trust-region"
        assert res.status == "kkt_point"
        assert res.problem_name == "circle"

    def test_filter_runs_through_driver(self):
        res = _solve("maratos-fletcher", strategy="filter")
        assert res.status == "kkt_point"
        assert res.strategy == "filter"
        # filter traces report the envelope size, not a width
        assert res.iterations[0].tau == 0.0

    @pytest.mark.parametrize("name, mechanism", [
        ("line-circle", "trust-region"), ("line-circle", "line-search"),
        ("maratos-fletcher", "line-search")])
    def test_qp_telemetry_on_first_trials(self, monkeypatch, name,
                                          mechanism):
        # every QP pivot the solve spends shows on the first trial of the
        # direction it was spent for, an infeasible optimality QP's included
        real = subproblems.solve_qp
        pivots = []

        def counted(qp, **kwargs):
            sol = real(qp, **kwargs)
            pivots.append(sol.n_pivots)
            return sol

        monkeypatch.setattr(subproblems, "solve_qp", counted)
        res = _solve(name, mechanism=mechanism)
        rows = res.iterations[1:]
        # every trust-region trial has its own direction; a line-search
        # direction's first trial is the one showing its shift
        fresh = [r for r in rows if mechanism == "trust-region"
                 or r.regularization is not None]
        assert res.iterations[0].qp_pivots is None
        assert all(r.qp_pivots is not None for r in fresh)
        assert all(r.qp_pivots is None and r.warm_start is None
                   for r in rows if r not in fresh)
        assert sum(r.qp_pivots for r in fresh) == sum(pivots)
        assert {r.warm_start for r in rows} <= {"hit", "miss", None}
        # only the first direction and one after each restoration entry or
        # exit may start without a hint
        assert [r.warm_start for r in fresh].count(None) \
            <= 1 + len(res.events)

    def test_kkt_zero_step_counted(self):
        prob = from_expressions("pinned", 1, lambda x: x[0] ** 2,
                                [lambda x: x[0] - 1.0],
                                x0=np.array([1.0]), lambda0=np.array([2.0]))
        res = solve(prob, _config())
        assert res.status == "kkt_point"
        assert res.step_counts["kkt_zero"] == 1


class TestErrorPaths:
    def test_initial_evaluation_failure(self):
        prob = NcoProblem(
            name="bad-start", n=1, m=0,
            f=lambda x: math.nan,
            c=lambda x: np.zeros(0),
            grad_f=lambda x: np.zeros(1),
            jac_c=lambda x: np.zeros((1, 0)),
            hess_f=lambda x: np.zeros((1, 1)),
            hess_c=lambda x: np.zeros((0, 1, 1)),
            lb=np.array([-np.inf]), ub=np.array([np.inf]),
            x0=np.array([0.0]))
        res = solve(prob, _config())
        assert res.status == "error"
        assert res.error_kind == "non_finite_value"
        assert not res.success
        assert res.n_outer == 0
        assert math.isnan(res.f)
        assert res.iterations == []
        assert res.message

    def test_gradient_failure_after_accept(self):
        def grad_f(x):
            if abs(x[0] - 2.0) < 1e-9:
                return np.array([2.0 * (x[0] - 1.0)])
            return np.array([math.nan])

        prob = NcoProblem(
            name="bad-gradient", n=1, m=0,
            f=lambda x: (x[0] - 1.0) ** 2,
            c=lambda x: np.zeros(0),
            grad_f=grad_f,
            jac_c=lambda x: np.zeros((1, 0)),
            hess_f=lambda x: np.array([[2.0]]),
            hess_c=lambda x: np.zeros((0, 1, 1)),
            lb=np.array([-np.inf]), ub=np.array([np.inf]),
            x0=np.array([2.0]))
        res = solve(prob, _config())
        assert res.status == "error"
        assert res.error_kind == "non_finite_value"
        # the accepted point survives into the report
        assert res.x[0] == pytest.approx(1.0)
        assert len(res.iterations) >= 2


class TestDomainFaults:
    """A fault in a model's domain ends the solve as an error result."""

    @pytest.mark.parametrize("src", [
        # sqrt is finite at 0 but its derivative is not
        "var x in [0, 1] start 0; minimize sqrt(x) - x;",
        # a negative base with a fractional exponent has no real value
        "var x start -1; minimize x^0.5; subject_to x >= -2;",
        "var x start 0; minimize log(x);",
    ])
    @pytest.mark.parametrize("strategy, mechanism", [
        ("funnel", "trust-region"), ("funnel", "line-search"),
        ("filter", "trust-region"), ("filter", "line-search")])
    def test_fault_becomes_non_finite_value(self, src, strategy, mechanism):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(load_source(src), _config(strategy, mechanism))
        assert res.status == "error"
        assert res.error_kind == "non_finite_value"


class TestOverflow:
    """A Lagrangian gradient past the float range's square root: its norm
    reads inf in the trace, and no warning escapes solve()."""

    SRC = ("var x in [0, 1] start 0.5; var y start 0; "
           "minimize 1e160 * x + y^2;")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("strategy", ["funnel", "filter"])
    def test_gradient_norm_overflow(self, strategy):
        res = solve(load_source(self.SRC), _config(strategy, "line-search"))
        assert (res.status, res.n_outer) == ("kkt_point", 1)
        assert np.array_equal(res.x, [0.0, 0.0])
        assert math.isinf(res.iterations[0].grad_lag)


class TestKnownLimits:
    """Current outcomes where a constraint qualification fails.

    x^2 + y^2 == 0 holds only at the origin, where its gradient vanishes, so
    LICQ fails at the solution. Trust region reports a KKT point only after
    783 outer iterations and line search after 775, 711 of them KKT zero
    steps under both; there W grows past 1e12 while the constraint gradient
    shrinks below 1e-12. A fix that changes either outcome updates this
    table.
    """

    LICQ = ("var x start 1; var y start 1; minimize x + y; "
            "subject_to x^2 + y^2 == 0;")

    @pytest.mark.parametrize("strategy, mechanism, status, kind, n_outer", [
        ("funnel", "trust-region", "kkt_point", None, 783),
        ("filter", "trust-region", "kkt_point", None, 783),
        ("funnel", "line-search", "kkt_point", None, 775),
        ("filter", "line-search", "kkt_point", None, 775)])
    def test_licq_failure(self, strategy, mechanism, status, kind, n_outer):
        res = solve(load_source(self.LICQ), _config(strategy, mechanism))
        assert (res.status, res.error_kind, res.n_outer) == \
            (status, kind, n_outer)


def _duplicated_rows(name):
    """The registry problem with every constraint twice, lambda0 halved on
    both copies: the same problem with a rank-deficient Jacobian."""
    n, f, cons, arrays = problems_mod._REGISTRY[name]
    arrays = {k: v.copy() for k, v in arrays.items()}
    if "lambda0" in arrays:
        half = 0.5 * arrays["lambda0"]
        arrays["lambda0"] = np.concatenate([half, half])
    return from_expressions(name, n, f, cons + cons, **arrays)


def _rows(label, reverse):
    """A registry problem or the n=24 .nco chain from the start of a seed
    ("dsl-chain-24/seed-S"), its constraint rows (and lambda0) in reverse
    order when reverse is set."""
    order = slice(None, None, -1 if reverse else 1)
    if label.startswith("dsl-chain-24/seed-"):
        chain = bench_chain()
        x0 = chain.start_point(24, int(label.rpartition("-")[2]))
        lines = chain.nco_text(x0).splitlines()
        rows = [ln for ln in lines if ln.startswith("subject_to")]
        rest = [ln for ln in lines if not ln.startswith("subject_to")]
        return load_source("\n".join(rest + rows[order]) + "\n")
    n, f, cons, arrays = problems_mod._REGISTRY[label]
    arrays = {k: v.copy() for k, v in arrays.items()}
    if "lambda0" in arrays:
        arrays["lambda0"] = arrays["lambda0"][order]
    return from_expressions(label, n, f, cons[order], **arrays)


class TestMetamorphic:
    """Duplicating every constraint or reversing their order changes no
    solution: the first makes every Jacobian rank-deficient, the second
    moves every QR's column pivots, end to end."""

    @pytest.mark.parametrize("strategy", ["funnel", "filter"])
    @pytest.mark.parametrize("mechanism", ["trust-region", "line-search"])
    @pytest.mark.parametrize("label", [
        name for name in problems_mod.problem_names()
        if get_problem(name).m >= 2] + ["dsl-chain-24/seed-0",
                                        "dsl-chain-24/seed-4099"])
    def test_permuted_rows_same_solution(self, label, strategy, mechanism):
        config = _config(strategy, mechanism)
        res = solve(_rows(label, reverse=False), config)
        rev = solve(_rows(label, reverse=True), config)
        assert (rev.status, rev.n_outer) == (res.status, res.n_outer)
        if label == "line-circle" and mechanism == "trust-region":
            # two KKT points, (2, -1) and (-1, 2); the reversed rows take
            # the funnel and the filter to the other one
            assert rev.status == "kkt_point"
            assert min(np.max(np.abs(rev.x - p)) for p in
                       ([2.0, -1.0], [-1.0, 2.0])) <= 1e-6
        else:
            assert np.max(np.abs(rev.x - res.x)) <= 1e-10
            assert np.max(np.abs(rev.lam[::-1] - res.lam)) <= 1e-10

    @pytest.mark.parametrize("strategy", ["funnel", "filter"])
    @pytest.mark.parametrize("mechanism", ["trust-region", "line-search"])
    @pytest.mark.parametrize("name", [
        name for name in problems_mod.problem_names()
        if get_problem(name).m >= 1])
    def test_duplicated_rows_same_solution(self, name, strategy, mechanism):
        config = _config(strategy, mechanism)
        res = solve(get_problem(name), config)
        dup = solve(_duplicated_rows(name), config)
        assert dup.status == res.status
        if name == "line-circle" and mechanism == "trust-region":
            # two KKT points, (2, -1) and (-1, 2); the doubled h takes the
            # funnel and the filter down another path
            assert dup.status == "kkt_point"
            assert min(np.max(np.abs(dup.x - p)) for p in
                       ([2.0, -1.0], [-1.0, 2.0])) <= 1e-6
        else:
            assert np.max(np.abs(dup.x - res.x)) <= 1e-6


class TestFormatTrace:
    def test_trust_region_layout(self, maratos_tr):
        lines = format_trace(maratos_tr).splitlines()
        assert "radius" in lines[0]
        assert "alpha" not in lines[0]
        assert len(lines) == 2 + len(maratos_tr.iterations)
        assert lines[2].split()[0] == "0"
        assert lines[2].endswith("initial point")
        assert "1.00e+01" in lines[3]
        assert "--" in lines[3]

    def test_line_search_layout(self, maratos_ls):
        lines = format_trace(maratos_ls).splitlines()
        assert "alpha" in lines[0]
        assert "reg" in lines[0]
        assert "radius" not in lines[0]
        assert "1.00e-04" in lines[3]
        assert lines[4].split()[0] == "--"


class TestResidualHelpers:
    def test_complementarity_sides(self):
        x = np.array([0.5])
        lb, ub = np.array([0.0]), np.array([1.0])
        assert complementarity(x, lb, ub, np.array([2.0])) == 1.0
        assert complementarity(x, lb, ub, np.array([-2.0])) == 1.0
        assert complementarity(x, lb, ub, np.array([0.0])) == 0.0

    def test_complementarity_skips_pinned(self):
        x = np.array([1.0])
        assert complementarity(x, np.array([1.0]), np.array([1.0]),
                               np.array([5.0])) == 0.0

    def test_complementarity_caps_infinite_gap(self):
        x = np.array([0.5])
        val = complementarity(x, np.array([-np.inf]), np.array([np.inf]),
                              np.array([2.0]))
        assert val == 2.0e10

    def test_complementarity_matches_loop(self):
        def loop(x, lb, ub, mu):
            worst = 0.0
            for i in range(x.shape[0]):
                if lb[i] == ub[i] or mu[i] == 0.0:
                    continue
                gap = (x[i] - lb[i]) if mu[i] > 0.0 else (ub[i] - x[i])
                worst = max(worst, abs(mu[i]) * min(gap, 1e10))
            return worst

        rng = np.random.default_rng(57)
        for _ in range(300):
            n = int(rng.integers(0, 7))
            lb = np.where(rng.random(n) < 0.3, -np.inf,
                          rng.uniform(-2.0, 0.0, n))
            ub = np.where(rng.random(n) < 0.3, np.inf,
                          rng.uniform(0.0, 2.0, n))
            pinned = rng.random(n) < 0.2
            ub[pinned] = lb[pinned] = rng.uniform(-1.0, 1.0, pinned.sum())
            x = rng.uniform(-3.0, 3.0, n)
            mu = rng.standard_normal(n) * (rng.random(n) < 0.7)
            assert complementarity(x, lb, ub, mu) == loop(x, lb, ub, mu)

    def test_lagrangian_gradient(self):
        g = np.array([1.0, 2.0])
        J = np.array([[1.0], [0.0]])
        lam = np.array([3.0])
        mu = np.array([0.5, 0.0])
        got = lagrangian_gradient(g, J, lam, mu)
        assert np.allclose(got, [1.0 - 3.0 - 0.5, 2.0])
        got0 = lagrangian_gradient(g, J, lam, mu, rho=0.0)
        assert np.allclose(got0, [-3.5, 0.0])
