"""Trust-region and line-search inner loops driven one outer step at a time."""

import math

import numpy as np
import pytest

from funnel_sqp.config import SolverConfig, apply_overrides
from funnel_sqp.errors import RestorationStall, SmallStepInfeasible
from funnel_sqp.mechanisms import (InnerOutcome, LineSearchMechanism,
                                   OuterState, TrustRegionMechanism)
from funnel_sqp.problems import (EvalCounters, NcoProblem, evaluate_functions,
                                 evaluate_gradients, get_problem,
                                 infeasibility)
from funnel_sqp.strategies import (LABEL_F_TYPE, LABEL_REJ_ARMIJO,
                                   LABEL_REJ_EVAL, FunnelStrategy,
                                   StepVerdict)
from funnel_sqp.subproblems import DirectionEngine, Phase


def _setup(problem, mechanism="trust-region"):
    if isinstance(problem, str):
        problem = get_problem(problem)
    config = apply_overrides(SolverConfig(), {"mechanism": mechanism})
    counters = EvalCounters()
    engine = DirectionEngine(problem, config, counters, [])
    strategy = FunnelStrategy(config.funnel, config.subproblem.zero_step_tol)
    cls = TrustRegionMechanism if mechanism == "trust-region" \
        else LineSearchMechanism
    mech = cls(problem, config, engine, strategy, counters)
    x = problem.start_point()
    f, c = evaluate_functions(problem, x, counters)
    g, J = evaluate_gradients(problem, x, counters)
    os = OuterState(x=x, f=f, c=c, h=infeasibility(c), grad_f=g, J=J,
                    lam=problem.start_multipliers(), mu=np.zeros(problem.n))
    sstate = strategy.init_state(os.h)
    return mech, os, sstate


class _AlwaysReject:
    """Strategy stub that refuses every trial."""

    def trace_value(self, state):
        return 0.0

    def decide(self, state, trial):
        return StepVerdict(accepted=False, label=LABEL_REJ_ARMIJO)


def _log_wall_problem():
    # objective pulls right, the constraint curve ends at x = 4; long trial
    # steps walk off the domain and must be rejected by evaluation
    def f(x):
        return -x[0]

    def c(x):
        return np.array([np.log(4.0 - x[0])])

    def grad_f(x):
        return np.array([-1.0])

    def jac_c(x):
        return np.array([[-1.0 / (4.0 - x[0])]])

    def hess_f(x):
        return np.zeros((1, 1))

    def hess_c(x):
        return np.array([[[-1.0 / (4.0 - x[0]) ** 2]]])

    return NcoProblem(name="log-wall", n=1, m=1, f=f, c=c, grad_f=grad_f,
                      jac_c=jac_c, hess_f=hess_f, hess_c=hess_c,
                      lb=np.array([-np.inf]), ub=np.array([np.inf]),
                      x0=np.array([0.0]))


class TestTrustRegion:
    def test_golden_first_iteration_radii(self):
        mech, os, sstate = _setup("maratos-fletcher")
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        # the start point is written to 9 digits, so radii carry ~1e-10 noise
        assert [r.delta for r in records] == \
            pytest.approx([10.0, 0.25, 0.125], rel=1e-8)
        assert [r.label for r in records] == \
            [LABEL_REJ_ARMIJO, LABEL_REJ_ARMIJO, LABEL_F_TYPE]
        assert [r.l for r in records] == [1, 2, 3]
        assert [r.k for r in records] == [1, None, None]
        assert out.verdict.accepted
        # the accepted step filled the shrunken radius, so it doubles
        assert mech.delta == pytest.approx(0.25, rel=1e-8)
        assert out.record is records[-1]

    def test_rejection_shrinks_from_step_norm(self):
        mech, os, sstate = _setup("maratos-fletcher")
        records = []
        mech.run(os, sstate, k=1, records=records)
        # first shrink: 0.5 * min(10, |d|=0.5) = 0.25
        assert records[0].step_norm == pytest.approx(0.5)
        assert records[1].delta == pytest.approx(0.25, rel=1e-8)
        assert records[1].delta == 0.5 * min(10.0, records[0].step_norm)

    def test_accept_at_boundary_grows_radius(self):
        mech, os, sstate = _setup("circle")
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        assert out.verdict.accepted
        dn = records[-1].step_norm
        if dn >= mech.config.trust_region.delta_init * (1 - 1e-8):
            assert mech.delta == 20.0
        else:
            assert mech.delta == 10.0

    def test_small_radius_feasible_terminates(self):
        mech, os, sstate = _setup("maratos-fletcher")   # start is feasible
        mech.delta = 1e-17
        out = mech.run(os, sstate, k=1, records=[])
        assert out.terminated
        assert out.status == "small_feasible_step"

    def test_small_radius_infeasible_raises(self):
        mech, os, sstate = _setup("line-circle")        # h = 4 at start
        mech.delta = 1e-17
        with pytest.raises(SmallStepInfeasible):
            mech.run(os, sstate, k=1, records=[])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evaluation_failure_rejects_and_shrinks(self):
        mech, os, sstate = _setup(_log_wall_problem())
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        assert records[0].label == LABEL_REJ_EVAL
        assert math.isnan(records[0].f_trial)
        assert records[0].k == 1 and records[1].k is None
        assert out.verdict.accepted
        assert out.x[0] < 4.0

    def test_restoration_entry_zeroes_multipliers(self):
        mech, os, sstate = _setup("line-circle")
        os.lam = np.array([3.0, -2.0])
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        assert np.array_equal(os.lam, [0.0, 0.0])
        assert out.direction.phase is Phase.RESTORATION
        assert records[-1].phase == "restoration"

    def test_kkt_zero_step(self):
        from funnel_sqp.problems import from_expressions
        prob = from_expressions("pinned", 1, lambda x: x[0] ** 2,
                                [lambda x: x[0] - 1.0],
                                x0=np.array([1.0]), lambda0=np.array([2.0]))
        mech, os, sstate = _setup(prob)
        out = mech.run(os, sstate, k=1, records=[])
        assert out.verdict.accepted
        assert out.verdict.step_type == "kkt-zero"

    def test_radius_persists_across_runs(self):
        mech, os, sstate = _setup("maratos-fletcher")
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        # commit like the driver would, then run again
        os.x, os.f, os.c, os.h = out.x, out.f, out.c, out.h
        os.lam, os.mu = out.lam, out.mu
        os.grad_f, os.J = evaluate_gradients(mech.problem, os.x)
        sstate = mech.strategy.commit(sstate, out.verdict)
        mech.engine.apply_verdict(out.verdict, out.record, 1)
        records2 = []
        mech.run(os, sstate, k=2, records=records2)
        assert records2[0].delta == pytest.approx(0.25, rel=1e-8)


class TestLineSearch:
    def test_golden_first_iteration_backtrack(self):
        mech, os, sstate = _setup("maratos-fletcher", mechanism="line-search")
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        assert [r.alpha for r in records] == [1.0, 0.5]
        assert [r.label for r in records] == [LABEL_REJ_ARMIJO, LABEL_F_TYPE]
        # regularization is reported once per fresh direction
        assert records[0].regularization == 1e-4
        assert records[1].regularization is None
        assert records[0].delta is None
        assert out.verdict.accepted

    def test_step_norm_is_scaled(self):
        mech, os, sstate = _setup("maratos-fletcher", mechanism="line-search")
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        full = float(np.max(np.abs(out.direction.d)))
        assert records[0].step_norm == pytest.approx(full)
        assert records[1].step_norm == pytest.approx(0.5 * full)

    def test_multipliers_interpolated(self):
        mech, os, sstate = _setup("maratos-fletcher", mechanism="line-search")
        lam0 = os.lam.copy()
        out = mech.run(os, sstate, k=1, records=[])
        alpha = out.record.alpha
        expected = lam0 + alpha * (out.direction.lam - lam0)
        assert np.allclose(out.lam, expected)
        assert np.allclose(out.mu, alpha * out.direction.mu)

    def test_alpha_floor_enters_restoration_then_stalls(self):
        problem = get_problem("circle")
        config = apply_overrides(SolverConfig(),
                                 {"mechanism": "line-search"})
        counters = EvalCounters()
        events = []
        engine = DirectionEngine(problem, config, counters, events)
        mech = LineSearchMechanism(problem, config, engine,
                                   _AlwaysReject(), counters)
        x = problem.start_point()
        f, c = evaluate_functions(problem, x, counters)
        g, J = evaluate_gradients(problem, x, counters)
        os = OuterState(x=x, f=f, c=c, h=infeasibility(c), grad_f=g, J=J,
                        lam=problem.start_multipliers(),
                        mu=np.zeros(problem.n))
        records = []
        with pytest.raises(RestorationStall):
            mech.run(os, None, k=1, records=records)
        entries = [e for e in events if e["type"] == "restoration_entry"]
        assert len(entries) == 1
        assert entries[0]["source"] == "alpha_min"
        assert entries[0]["k"] == 1
        assert np.array_equal(os.lam, np.zeros(problem.m))
        # ~30 halvings from 1.0 down to 1e-9, twice
        assert len(records) > 40

    def test_entry_counter_resets_on_accept(self):
        mech, os, sstate = _setup("line-circle", mechanism="line-search")
        out = mech.run(os, sstate, k=1, records=[])
        assert out.verdict.accepted
        assert mech.engine.entries == 1
        # the driver applies the accepted step's verdict, which resets it
        mech.engine.apply_verdict(out.verdict, out.record, 1)
        assert mech.engine.entries == 0
        assert out.direction.phase is Phase.RESTORATION

    def test_infeasible_probe_enters_restoration(self):
        mech, os, sstate = _setup("line-circle", mechanism="line-search")
        os.lam = np.array([1.0, 1.0])
        records = []
        out = mech.run(os, sstate, k=1, records=records)
        assert out.direction.phase is Phase.RESTORATION
        assert np.array_equal(os.lam, [0.0, 0.0])
        events = mech.engine.events
        assert events and events[0]["source"] == "infeasible_qp"
        assert events[0]["k"] == 1
