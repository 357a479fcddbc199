"""Terminal verdicts checked by tests/certify.py, which reads only the
problem's callables and the SolveResult."""

import dataclasses
import itertools

import numpy as np
import pytest

from certify import infeasibility_rate, kkt_residual, unbounded_residual
from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import load_source
from funnel_sqp.problems import get_problem
from test_acceptance import _random_model_source

VARIANTS = list(itertools.product(("funnel", "filter"),
                                  ("trust-region", "line-search")))
RATE_MAX = 0.01


def _fuzz_source(index):
    """Model fuzz-index of scripts/fuzz_sweep.py (seed 7007)."""
    rng = np.random.default_rng(7007)
    for _ in range(index):
        _random_model_source(rng)
    return _random_model_source(rng)


class TestCertificates:
    def test_rate_reads_the_violation_slope(self):
        # c = x - 1 at x = 0: a step d cuts h = |c| by d, so the rate is 1
        src = "var x start 0; minimize x; subject_to x == 1;"
        problem = load_source(src)
        assert infeasibility_rate(problem, np.zeros(1)) == \
            pytest.approx(1.0, abs=1e-6)

    def test_rate_respects_the_bounds(self):
        # the only direction that cuts the violation is blocked by x <= 0
        src = "var x in [-inf, 0] start 0; minimize x; subject_to x == 1;"
        problem = load_source(src)
        assert infeasibility_rate(problem, np.zeros(1)) == \
            pytest.approx(0.0, abs=1e-6)

    def test_rate_is_zero_at_a_stationary_violation(self):
        # c = x^2 + 1 has a zero gradient at x = 0
        problem = get_problem("infeasible-quadratic")
        assert infeasibility_rate(problem, np.zeros(1)) == \
            pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["hs26", "box-qp"])
    def test_kkt_residual_reads_the_multipliers(self, name):
        problem = get_problem(name)
        res = solve(problem)
        assert res.status == "kkt_point"
        assert kkt_residual(problem, res) <= 1e-6
        for field in ("lam", "mu"):
            value = getattr(res, field)
            if value.size:
                wrong = dataclasses.replace(res, **{field: value + 1e-3})
                assert kkt_residual(problem, wrong) > 1e-6
        # on box-qp, mu claims the bounds x1 <= 1 and x2 >= 0; flipped, it
        # pushes against bounds 1 away
        if name == "box-qp":
            flipped = dataclasses.replace(res, mu=-res.mu)
            assert kkt_residual(problem, flipped) >= np.max(np.abs(res.mu))


class TestUnbounded:
    @pytest.mark.parametrize("strategy, mechanism", VARIANTS)
    def test_unbounded_cubic_passes(self, strategy, mechanism):
        # -x0^3 falls without bound along x0 = x1
        problem = get_problem("unbounded-cubic")
        config = SolverConfig(strategy=strategy, mechanism=mechanism)
        res = solve(problem, config)
        assert res.status == "unbounded"
        assert unbounded_residual(problem, res.x,
                                  config.unbounded_threshold) <= config.tol

    def test_points_that_fail(self):
        problem = get_problem("unbounded-cubic")
        threshold = SolverConfig().unbounded_threshold
        # feasible, but f = -1 is far above the threshold
        assert unbounded_residual(problem, np.array([1.0, 1.0]),
                                  threshold) == np.inf
        # f = -1e21 is below it, but c = x0 - x1 = 1e7
        assert unbounded_residual(problem, np.array([1e7, 0.0]),
                                  threshold) == 1e7

    def test_the_box_counts(self):
        # f = -x is below the threshold at x = 2e20, 1e20 past x <= 1e20
        problem = load_source("var x in [0, 1e20] start 0; minimize -x;")
        assert unbounded_residual(problem, np.array([2e20]), -1e20) == 1e20
        assert unbounded_residual(problem, np.array([1e20]), -1e19) == 0.0


@pytest.mark.parametrize("index", [0, 4, 5, 13, 236])
def test_fuzz_verdicts_pass_their_certificates(index):
    # fuzz-4, 5, 13 and 236 once ended infeasible_stationary where the
    # violation still fell at a rate of 5-7.7; fuzz-0 ends kkt_point
    problem = load_source(_fuzz_source(index), name=f"fuzz-{index}")
    statuses = []
    for strategy, mechanism in VARIANTS:
        config = SolverConfig(strategy=strategy, mechanism=mechanism,
                              max_outer=300)
        res = solve(problem, config)
        statuses.append(res.status)
        if res.status == "infeasible_stationary":
            assert infeasibility_rate(problem, res.x) <= RATE_MAX, \
                (strategy, mechanism)
        elif res.status == "kkt_point":
            assert kkt_residual(problem, res) <= config.tol, \
                (strategy, mechanism)
    assert set(statuses) & {"infeasible_stationary", "kkt_point"}
