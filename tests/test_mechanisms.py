"""Trust-region and line-search inner loops driven one outer step at a time.

A run moves the iterate os to the accepted trial point and returns that
step's (verdict, trace row), or None when the trust radius collapses at a
feasible point. _directions records the directions a run computes; the last
one is the accepted step's."""

import math

import numpy as np
import pytest

import funnel_sqp.mechanisms as mechanisms
import funnel_sqp.subproblems as subproblems
from funnel_sqp.config import SolverConfig, apply_overrides
from funnel_sqp.errors import RestorationStall, SmallStepInfeasible
from funnel_sqp.driver import solve
from funnel_sqp.mechanisms import (LineSearchMechanism, OuterState,
                                   TrustRegionMechanism)
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
    x = problem.start_point()
    f, c = evaluate_functions(problem, x, counters)
    g, J = evaluate_gradients(problem, x, counters)
    os = OuterState(x=x, f=f, c=c, h=infeasibility(c), grad_f=g, J=J,
                    lam=problem.start_multipliers(), mu=np.zeros(problem.n))
    strategy = FunnelStrategy(config.funnel, os.h,
                              config.subproblem.zero_step_tol)
    cls = TrustRegionMechanism if mechanism == "trust-region" \
        else LineSearchMechanism
    return cls(problem, config, engine, strategy, counters), os


def _directions(mech):
    """The list that mech's engine appends each direction it computes to."""
    seen = []
    compute = mech.engine.compute

    def recording(*args):
        seen.append(compute(*args))
        return seen[-1]

    mech.engine.compute = recording
    return seen


class _AlwaysReject:
    """Strategy stub that refuses every trial."""

    def trace_value(self):
        return 0.0

    def decide(self, trial):
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
        mech, os = _setup("maratos-fletcher")
        records = []
        verdict, record = mech.run(os, k=1, records=records)
        # the start point is written to 9 digits, so radii carry ~1e-10 noise
        assert [r.delta for r in records] == \
            pytest.approx([10.0, 0.25, 0.125], rel=1e-8)
        assert [r.label for r in records] == \
            [LABEL_REJ_ARMIJO, LABEL_REJ_ARMIJO, LABEL_F_TYPE]
        assert [r.l for r in records] == [1, 2, 3]
        assert [r.k for r in records] == [1, None, None]
        assert verdict.accepted
        # the accepted step filled the shrunken radius, so it doubles
        assert mech.delta == pytest.approx(0.25, rel=1e-8)
        assert record is records[-1]

    def test_rejection_shrinks_from_step_norm(self):
        mech, os = _setup("maratos-fletcher")
        records = []
        mech.run(os, k=1, records=records)
        # first shrink: 0.5 * min(10, |d|=0.5) = 0.25
        assert records[0].step_norm == pytest.approx(0.5)
        assert records[1].delta == pytest.approx(0.25, rel=1e-8)
        assert records[1].delta == 0.5 * min(10.0, records[0].step_norm)

    def test_accept_at_boundary_grows_radius(self):
        mech, os = _setup("circle")
        records = []
        verdict, _ = mech.run(os, k=1, records=records)
        assert verdict.accepted
        dn = records[-1].step_norm
        if dn >= mech.config.trust_region.delta_init * (1 - 1e-8):
            assert mech.delta == 20.0
        else:
            assert mech.delta == 10.0

    def test_small_radius_feasible_terminates(self):
        mech, os = _setup("maratos-fletcher")   # start is feasible
        mech.delta = 1e-17
        assert mech.run(os, k=1, records=[]) is None
        # the driver reports a collapse at a feasible point as this status
        config = apply_overrides(SolverConfig(),
                                 {"trust_region.delta_init": "1e-17"})
        res = solve(get_problem("maratos-fletcher"), config)
        assert (res.status, res.n_outer) == ("small_feasible_step", 0)

    def test_small_radius_infeasible_raises(self):
        mech, os = _setup("line-circle")        # h = 4 at start
        mech.delta = 1e-17
        with pytest.raises(SmallStepInfeasible):
            mech.run(os, k=1, records=[])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evaluation_failure_rejects_and_shrinks(self):
        mech, os = _setup(_log_wall_problem())
        records = []
        verdict, _ = mech.run(os, k=1, records=records)
        assert records[0].label == LABEL_REJ_EVAL
        assert math.isnan(records[0].f_trial)
        assert records[0].k == 1 and records[1].k is None
        assert verdict.accepted
        assert os.x[0] < 4.0

    def test_restoration_entry_zeroes_multipliers(self):
        mech, os = _setup("line-circle")
        os.lam = lam = np.array([3.0, -2.0])
        records = []
        directions = _directions(mech)
        mech.run(os, k=1, records=records)
        direction = directions[-1]
        # entry zeroed the iterate's multipliers in place; the accepted
        # step then took the restoration QP's
        assert np.array_equal(lam, [0.0, 0.0])
        assert np.array_equal(os.lam, direction.lam)
        assert direction.phase is Phase.RESTORATION
        assert records[-1].phase == "restoration"

    def test_kkt_zero_step(self):
        from funnel_sqp.problems import from_expressions
        prob = from_expressions("pinned", 1, lambda x: x[0] ** 2,
                                [lambda x: x[0] - 1.0],
                                x0=np.array([1.0]), lambda0=np.array([2.0]))
        mech, os = _setup(prob)
        verdict, _ = mech.run(os, k=1, records=[])
        assert verdict.accepted
        assert verdict.step_type == "kkt-zero"

    def test_radius_persists_across_runs(self):
        mech, os = _setup("maratos-fletcher")
        records = []
        verdict, record = mech.run(os, k=1, records=records)
        # commit like the driver would, then run again
        os.grad_f, os.J = evaluate_gradients(mech.problem, os.x)
        mech.strategy.commit(verdict)
        mech.engine.apply_verdict(verdict, record, 1)
        records2 = []
        mech.run(os, k=2, records=records2)
        assert records2[0].delta == pytest.approx(0.25, rel=1e-8)


class TestLineSearch:
    def test_golden_first_iteration_backtrack(self):
        mech, os = _setup("maratos-fletcher", mechanism="line-search")
        records = []
        verdict, _ = mech.run(os, k=1, records=records)
        assert [r.alpha for r in records] == [1.0, 0.5]
        assert [r.label for r in records] == [LABEL_REJ_ARMIJO, LABEL_F_TYPE]
        # regularization is reported once per fresh direction
        assert records[0].regularization == 1e-4
        assert records[1].regularization is None
        assert records[0].delta is None
        assert verdict.accepted

    def test_step_norm_is_scaled(self):
        mech, os = _setup("maratos-fletcher", mechanism="line-search")
        records = []
        directions = _directions(mech)
        mech.run(os, k=1, records=records)
        direction = directions[-1]
        full = float(np.max(np.abs(direction.d)))
        assert records[0].step_norm == pytest.approx(full)
        assert records[1].step_norm == pytest.approx(0.5 * full)

    def test_multipliers_interpolated(self):
        mech, os = _setup("maratos-fletcher", mechanism="line-search")
        lam0 = os.lam.copy()
        directions = _directions(mech)
        _, record = mech.run(os, k=1, records=[])
        direction = directions[-1]
        alpha = record.alpha
        expected = lam0 + alpha * (direction.lam - lam0)
        assert np.allclose(os.lam, expected)
        assert np.allclose(os.mu, alpha * direction.mu)

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
            mech.run(os, k=1, records=records)
        entries = [e for e in events if e["type"] == "restoration_entry"]
        assert len(entries) == 1
        assert entries[0]["source"] == "alpha_min"
        assert entries[0]["k"] == 1
        assert np.array_equal(os.lam, np.zeros(problem.m))
        # ~30 halvings from 1.0 down to 1e-9, twice
        assert len(records) > 40

    def test_entry_counter_resets_on_accept(self):
        mech, os = _setup("line-circle", mechanism="line-search")
        directions = _directions(mech)
        verdict, record = mech.run(os, k=1, records=[])
        direction = directions[-1]
        assert verdict.accepted
        assert mech.engine.entries == 1
        # the driver applies the accepted step's verdict, which resets it
        mech.engine.apply_verdict(verdict, record, 1)
        assert mech.engine.entries == 0
        assert direction.phase is Phase.RESTORATION

    def test_infeasible_probe_enters_restoration(self):
        mech, os = _setup("line-circle", mechanism="line-search")
        os.lam = lam = np.array([1.0, 1.0])
        records = []
        directions = _directions(mech)
        mech.run(os, k=1, records=records)
        direction = directions[-1]
        assert direction.phase is Phase.RESTORATION
        # entry zeroed the iterate's multipliers in place, so the accepted
        # step interpolated from zero
        assert np.array_equal(lam, [0.0, 0.0])
        assert np.allclose(os.lam, records[-1].alpha * direction.lam)
        events = mech.engine.events
        assert events and events[0]["source"] == "infeasible_qp"
        assert events[0]["k"] == 1


class TestIterateContract:
    """An accepted trial becomes the iterate in place; a run that ends
    without one leaves the iterate as it was."""

    @pytest.mark.parametrize("mechanism", ["trust-region", "line-search"])
    def test_accepted_step_moves_iterate(self, mechanism):
        mech, os = _setup("maratos-fletcher", mechanism)
        x0, lam0, mu0 = os.x.copy(), os.lam.copy(), os.mu.copy()
        records = []
        directions = _directions(mech)
        verdict, record = mech.run(os, k=1, records=records)
        direction = directions[-1]
        assert verdict.accepted and record is records[-1]
        alpha = 1.0 if record.alpha is None else record.alpha
        assert np.array_equal(os.x, x0 + alpha * direction.d)
        f, c = evaluate_functions(mech.problem, os.x)
        assert (os.f, os.h) == (f, infeasibility(c)) == \
            (record.f_trial, record.h_trial)
        assert np.array_equal(os.c, c)
        if mechanism == "trust-region":
            # the QP's multipliers, copied
            assert np.array_equal(os.lam, direction.lam)
            assert np.array_equal(os.mu, direction.mu)
            assert os.lam is not direction.lam and os.mu is not direction.mu
        else:
            assert np.array_equal(os.lam,
                                  lam0 + alpha * (direction.lam - lam0))
            assert np.array_equal(os.mu, mu0 + alpha * (direction.mu - mu0))

    def test_small_feasible_step_leaves_iterate(self):
        mech, os = _setup("maratos-fletcher")
        before = dict(vars(os))
        copies = {key: np.copy(value) for key, value in before.items()}
        mech.delta = 1e-17
        records = []
        assert mech.run(os, k=1, records=records) is None
        assert records == []
        for key, value in vars(os).items():
            assert value is before[key]
            assert np.array_equal(value, copies[key])

    @pytest.mark.parametrize("mechanism, problem, error", [
        ("trust-region", "line-circle", SmallStepInfeasible),
        ("line-search", "circle", RestorationStall)])
    def test_raising_run_leaves_iterate(self, mechanism, problem, error):
        mech, os = _setup(problem, mechanism)
        mech.strategy = _AlwaysReject()
        x, f, c, h = os.x, os.f, os.c, os.h
        x0, c0 = x.copy(), c.copy()
        records = []
        with pytest.raises(error):
            mech.run(os, k=1, records=records)
        # every trial was evaluated and rejected
        assert len(records) > 40
        assert all(r.label == LABEL_REJ_ARMIJO for r in records)
        assert os.x is x and np.array_equal(os.x, x0)
        assert os.c is c and np.array_equal(os.c, c0)
        assert (os.f, os.h) == (f, h)


class TestOneScorePerDirection:
    """The engine scores each direction once; every trial along it reads
    the direction's |d|_inf and models, and the radius reads no trace row."""

    @pytest.mark.parametrize("strategy", ["funnel", "filter"])
    def test_backtracks_reuse_the_models(self, monkeypatch, strategy):
        scores = []
        real = subproblems.progress_models

        def counted(*args):
            scores.append(None)
            return real(*args)

        monkeypatch.setattr(subproblems, "progress_models", counted)
        config = apply_overrides(SolverConfig(), {
            "mechanism": "line-search", "strategy": strategy})
        res = solve(get_problem("maratos-fletcher"), config)
        trials = res.iterations[1:]
        directions = sum(r.qp_pivots is not None for r in trials)
        # 6 directions over 8 trials
        assert len(scores) == directions < len(trials)

    def test_radius_reads_no_trace_row(self, monkeypatch):
        config = apply_overrides(SolverConfig(),
                                 {"mechanism": "trust-region"})
        want = solve(get_problem("maratos-fletcher"), config).iterations
        record = mechanisms.IterationRecord

        def unreadable(**fields):
            rec = record(**fields)
            rec.step_norm = math.nan
            return rec

        monkeypatch.setattr(mechanisms, "IterationRecord", unreadable)
        got = solve(get_problem("maratos-fletcher"), config).iterations
        assert all(math.isnan(r.step_norm) for r in got[1:])
        radii = [r.delta for r in want]
        assert [r.delta for r in got] == radii
        # a rejection shrinks the radius to half the step, below half the
        # radius, and an accepted step that fills it grows it
        assert any(b < 0.5 * a for a, b in zip(radii, radii[1:]))
        assert any(b > a for a, b in zip(radii, radii[1:]))
