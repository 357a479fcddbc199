"""Outcome of every registry problem and model, and of the n=24 benchmark
chain from seed 0's start, under all four variants.

Each row is (status, outer iterations, inner trials, step counts, evaluation
counters); step counts are (f-type, h-type, restoration, kkt-zero) and
counters (n_f, n_c, n_grad_f, n_jac_c, n_hess). A refactor of the trial
pipeline must leave every row as it is.
"""

import itertools
from pathlib import Path

import pytest

from conftest import bench_chain
from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import load_file, load_source
from funnel_sqp.problems import get_problem, problem_names

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"
VARIANTS = list(itertools.product(("funnel", "filter"),
                                  ("trust-region", "line-search")))

# (problem, strategy, mechanism): (status, n_outer, n_inner, step_counts,
# counters); a problem ending in .nco is the model file of that name
OUTCOMES = {
    ("bounded-lp", "funnel", "trust-region"):
        ("kkt_point", 1, 1, (1, 0, 0, 0), (2, 2, 2, 2, 1)),
    ("bounded-lp", "funnel", "line-search"):
        ("kkt_point", 2, 2, (1, 0, 0, 1), (3, 3, 3, 3, 2)),
    ("bounded-lp", "filter", "trust-region"):
        ("kkt_point", 1, 1, (1, 0, 0, 0), (2, 2, 2, 2, 1)),
    ("bounded-lp", "filter", "line-search"):
        ("kkt_point", 2, 2, (1, 0, 0, 1), (3, 3, 3, 3, 2)),
    ("box-qp", "funnel", "trust-region"):
        ("kkt_point", 1, 1, (1, 0, 0, 0), (2, 2, 2, 2, 1)),
    ("box-qp", "funnel", "line-search"):
        ("kkt_point", 2, 2, (1, 0, 0, 1), (3, 3, 3, 3, 2)),
    ("box-qp", "filter", "trust-region"):
        ("kkt_point", 1, 1, (1, 0, 0, 0), (2, 2, 2, 2, 1)),
    ("box-qp", "filter", "line-search"):
        ("kkt_point", 2, 2, (1, 0, 0, 1), (3, 3, 3, 3, 2)),
    ("circle", "funnel", "trust-region"):
        ("kkt_point", 1, 1, (0, 1, 0, 0), (2, 2, 2, 2, 1)),
    ("circle", "funnel", "line-search"):
        ("kkt_point", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 2)),
    ("circle", "filter", "trust-region"):
        ("kkt_point", 1, 1, (0, 1, 0, 0), (2, 2, 2, 2, 1)),
    ("circle", "filter", "line-search"):
        ("kkt_point", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 2)),
    ("hs26", "funnel", "trust-region"):
        ("kkt_point", 18, 18, (15, 3, 0, 0), (19, 19, 19, 19, 18)),
    ("hs26", "funnel", "line-search"):
        ("kkt_point", 18, 18, (15, 3, 0, 0), (19, 19, 19, 19, 18)),
    ("hs26", "filter", "trust-region"):
        ("kkt_point", 18, 18, (15, 3, 0, 0), (19, 19, 19, 19, 18)),
    ("hs26", "filter", "line-search"):
        ("kkt_point", 18, 18, (15, 3, 0, 0), (19, 19, 19, 19, 18)),
    ("hs6", "funnel", "trust-region"):
        ("kkt_point", 2, 2, (0, 2, 0, 0), (3, 3, 3, 3, 2)),
    ("hs6", "funnel", "line-search"):
        ("kkt_point", 4, 4, (1, 3, 0, 0), (5, 5, 5, 5, 4)),
    ("hs6", "filter", "trust-region"):
        ("kkt_point", 2, 2, (0, 2, 0, 0), (3, 3, 3, 3, 2)),
    ("hs6", "filter", "line-search"):
        ("kkt_point", 4, 4, (1, 3, 0, 0), (5, 5, 5, 5, 4)),
    ("hs7", "funnel", "trust-region"):
        ("kkt_point", 8, 11, (0, 8, 0, 0), (12, 12, 9, 9, 11)),
    ("hs7", "funnel", "line-search"):
        ("kkt_point", 9, 14, (0, 9, 0, 0), (15, 15, 10, 10, 9)),
    ("hs7", "filter", "trust-region"):
        ("kkt_point", 8, 11, (0, 8, 0, 0), (12, 12, 9, 9, 11)),
    ("hs7", "filter", "line-search"):
        ("kkt_point", 9, 14, (0, 9, 0, 0), (15, 15, 10, 10, 9)),
    ("infeasible-quadratic", "funnel", "trust-region"):
        ("infeasible_stationary", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 3)),
    ("infeasible-quadratic", "funnel", "line-search"):
        ("infeasible_stationary", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 3)),
    ("infeasible-quadratic", "filter", "trust-region"):
        ("infeasible_stationary", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 3)),
    ("infeasible-quadratic", "filter", "line-search"):
        ("infeasible_stationary", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 3)),
    ("line-circle", "funnel", "trust-region"):
        ("kkt_point", 29, 52, (3, 1, 25, 0), (53, 53, 30, 30, 53)),
    ("line-circle", "funnel", "line-search"):
        ("infeasible_stationary", 5, 5, (0, 0, 5, 0), (6, 6, 6, 6, 6)),
    ("line-circle", "filter", "trust-region"):
        ("kkt_point", 29, 52, (3, 1, 25, 0), (53, 53, 30, 30, 53)),
    ("line-circle", "filter", "line-search"):
        ("infeasible_stationary", 5, 5, (0, 0, 5, 0), (6, 6, 6, 6, 6)),
    ("maratos-fletcher", "funnel", "trust-region"):
        ("kkt_point", 6, 8, (6, 0, 0, 0), (9, 9, 7, 7, 8)),
    ("maratos-fletcher", "funnel", "line-search"):
        ("kkt_point", 6, 8, (6, 0, 0, 0), (9, 9, 7, 7, 6)),
    ("maratos-fletcher", "filter", "trust-region"):
        ("kkt_point", 6, 8, (6, 0, 0, 0), (9, 9, 7, 7, 8)),
    ("maratos-fletcher", "filter", "line-search"):
        ("kkt_point", 6, 8, (6, 0, 0, 0), (9, 9, 7, 7, 6)),
    ("powellbs", "funnel", "trust-region"):
        ("kkt_point", 11, 11, (0, 11, 0, 0), (12, 12, 12, 12, 11)),
    ("powellbs", "funnel", "line-search"):
        ("kkt_point", 12, 12, (0, 12, 0, 0), (13, 13, 13, 13, 12)),
    ("powellbs", "filter", "trust-region"):
        ("kkt_point", 60, 115, (0, 8, 52, 0), (116, 116, 61, 61, 116)),
    ("powellbs", "filter", "line-search"):
        ("kkt_point", 54, 220, (0, 54, 0, 0), (221, 221, 55, 55, 54)),
    ("unbounded-cubic", "funnel", "trust-region"):
        ("unbounded", 19, 19, (19, 0, 0, 0), (20, 20, 20, 20, 19)),
    ("unbounded-cubic", "funnel", "line-search"):
        ("unbounded", 56, 56, (56, 0, 0, 0), (57, 57, 57, 57, 56)),
    ("unbounded-cubic", "filter", "trust-region"):
        ("unbounded", 19, 19, (19, 0, 0, 0), (20, 20, 20, 20, 19)),
    ("unbounded-cubic", "filter", "line-search"):
        ("unbounded", 56, 56, (56, 0, 0, 0), (57, 57, 57, 57, 56)),
    ("circle.nco", "funnel", "trust-region"):
        ("kkt_point", 1, 1, (0, 1, 0, 0), (2, 2, 2, 2, 1)),
    ("circle.nco", "funnel", "line-search"):
        ("kkt_point", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 2)),
    ("circle.nco", "filter", "trust-region"):
        ("kkt_point", 1, 1, (0, 1, 0, 0), (2, 2, 2, 2, 1)),
    ("circle.nco", "filter", "line-search"):
        ("kkt_point", 2, 2, (0, 1, 0, 1), (3, 3, 3, 3, 2)),
    ("powellbs.nco", "funnel", "trust-region"):
        ("kkt_point", 11, 11, (0, 11, 0, 0), (12, 12, 12, 12, 11)),
    ("powellbs.nco", "funnel", "line-search"):
        ("kkt_point", 12, 12, (0, 12, 0, 0), (13, 13, 13, 13, 12)),
    ("powellbs.nco", "filter", "trust-region"):
        ("kkt_point", 60, 115, (0, 8, 52, 0), (116, 116, 61, 61, 116)),
    ("powellbs.nco", "filter", "line-search"):
        ("kkt_point", 54, 220, (0, 54, 0, 0), (221, 221, 55, 55, 54)),
    ("ranged.nco", "funnel", "trust-region"):
        ("kkt_point", 2, 2, (1, 1, 0, 0), (3, 3, 3, 3, 2)),
    ("ranged.nco", "funnel", "line-search"):
        ("kkt_point", 3, 3, (2, 1, 0, 0), (4, 4, 4, 4, 3)),
    ("ranged.nco", "filter", "trust-region"):
        ("kkt_point", 2, 2, (1, 1, 0, 0), (3, 3, 3, 3, 2)),
    ("ranged.nco", "filter", "line-search"):
        ("kkt_point", 3, 3, (2, 1, 0, 0), (4, 4, 4, 4, 3)),
}


# the .nco chain of solverbench/chain.py at n=24 from seed 0's start gives
# this row, and this objective value, under every variant
CHAIN_OUTCOME = ("kkt_point", 8, 8, (7, 1, 0, 0), (9, 9, 9, 9, 8))
CHAIN_F = 3.989952630675714


def _problem(name):
    return load_file(MODELS / name) if name.endswith(".nco") \
        else get_problem(name)


def _outcome(res):
    sc, cnt = res.step_counts, res.counters.as_dict()
    return (res.status, res.n_outer,
            sum(1 for r in res.iterations if r.l is not None),
            (sc["f_type"], sc["h_type"], sc["restoration"], sc["kkt_zero"]),
            (cnt["n_f"], cnt["n_c"], cnt["n_grad_f"], cnt["n_jac_c"],
             cnt["n_hess"]))


def test_table_covers_every_problem():
    names = set(problem_names()) | {p.name for p in MODELS.glob("*.nco")}
    assert {key[0] for key in OUTCOMES} == names
    for name in names:
        assert {key[1:] for key in OUTCOMES if key[0] == name} \
            == set(VARIANTS)


@pytest.mark.parametrize("key", sorted(OUTCOMES), ids="/".join)
def test_outcome_pinned(key):
    name, strategy, mechanism = key
    res = solve(_problem(name),
                SolverConfig(strategy=strategy, mechanism=mechanism))
    assert _outcome(res) == OUTCOMES[key]


@pytest.mark.parametrize("strategy, mechanism", VARIANTS, ids="/".join)
def test_chain_outcome_pinned(strategy, mechanism):
    chain = bench_chain()
    problem = load_source(chain.nco_text(chain.start_point(24, 0)))
    res = solve(problem, SolverConfig(strategy=strategy, mechanism=mechanism))
    assert _outcome(res) == CHAIN_OUTCOME
    assert res.f == pytest.approx(CHAIN_F, rel=1e-12, abs=0.0)


# fuzz-164 of scripts/fuzz_sweep.py. Under filter line search the direction
# from restoration's anchor is exhausted too, and that second restoration
# entry without an accepted step ends the solve as a stall. Each row is the
# outcome row above, error_kind, then the events' (type, k).
STALL = ("var x start -0.19; var y start -0.97; "
         "minimize 0.47 * y * x + -0.43 * cos(x + x); "
         "subject_to -0.5 * x * x + -0.65 * exp(0.4 * y) == 0.51; "
         "subject_to -0.83 * y * y + -1.9 * cos(y + x) == -0.53;")
ENTRY, EXIT = "restoration_entry", "restoration_exit"
STALL_OUTCOMES = {
    ("funnel", "trust-region"):
        (("infeasible_stationary", 9, 11, (0, 3, 6, 0),
          (12, 12, 10, 10, 12)), None, [(ENTRY, 4)]),
    ("funnel", "line-search"):
        (("infeasible_stationary", 23, 160, (2, 15, 6, 0),
          (161, 161, 24, 24, 26)), None,
         [(ENTRY, 6), (EXIT, 6), (ENTRY, 11), (EXIT, 11), (ENTRY, 18)]),
    ("filter", "trust-region"):
        (("infeasible_stationary", 5, 8, (0, 0, 5, 0), (9, 9, 6, 6, 9)),
         None, [(ENTRY, 1)]),
    ("filter", "line-search"):
        (("error", 3, 80, (0, 3, 0, 0), (81, 81, 4, 4, 5)),
         "restoration_stall", [(ENTRY, 4)]),
}


@pytest.mark.parametrize("strategy, mechanism", VARIANTS, ids="/".join)
def test_restoration_stall_outcome_pinned(strategy, mechanism):
    res = solve(load_source(STALL, name="fuzz-164"),
                SolverConfig(strategy=strategy, mechanism=mechanism))
    assert (_outcome(res), res.error_kind,
            [(e["type"], e["k"]) for e in res.events]) == \
        STALL_OUTCOMES[strategy, mechanism]


# fuzz-3 and fuzz-221 of scripts/fuzz_sweep.py. Trust-region steps run down
# the unbounded objective until the QP's gradient W x + g (fuzz-3) and its
# objective (fuzz-221) overflow; those read inf, no warning escapes solve(),
# and the solve ends unbounded. Each row is the outcome row above and the
# events' (type, k), at the sweep's max_outer = 300.
OVERFLOW = {
    "fuzz-3": ("var x start 0.78; var y start -0.22; "
               "minimize -1.1 * exp(0.4 * y) + -0.68 * sin(y) "
               "+ -1.9 * sin(y) + -1.56 * y; "
               "subject_to 1.11 * cos(y + y) + 0.46 * y + -1.68 * x^2 "
               "== -0.64;"),
    "fuzz-221": ("var x start -0.04; var y start 0.3; var z start -0.87; "
                 "minimize -1.8 * exp(0.4 * x) + -1.17 * z^2 + 1.89 * z^2; "
                 "subject_to -0.92 * y^2 + 1.38 * exp(0.4 * z) "
                 "+ 0.73 * cos(x + z) + -1.03 * y^2 == -0.57;"),
}
OVERFLOW_OUTCOMES = {
    ("fuzz-3", "funnel"):
        (("unbounded", 74, 158, (73, 1, 0, 0), (159, 159, 75, 75, 158)),
         []),
    ("fuzz-3", "filter"):
        (("unbounded", 40, 90, (39, 1, 0, 0), (91, 91, 41, 41, 90)), []),
    ("fuzz-221", "funnel"):
        (("unbounded", 33, 78, (32, 1, 0, 0), (79, 79, 34, 34, 78)), []),
    ("fuzz-221", "filter"):
        (("unbounded", 34, 80, (31, 2, 1, 0), (81, 81, 35, 35, 81)),
         [(ENTRY, 24), (EXIT, 25)]),
}


@pytest.mark.parametrize("name, strategy", sorted(OVERFLOW_OUTCOMES))
def test_trust_region_overflow_outcome_pinned(name, strategy):
    res = solve(load_source(OVERFLOW[name], name=name),
                SolverConfig(strategy=strategy, mechanism="trust-region",
                             max_outer=300))
    assert (_outcome(res), [(e["type"], e["k"]) for e in res.events]) == \
        OVERFLOW_OUTCOMES[name, strategy]


# fuzz-7 of scripts/fuzz_sweep.py. Line search follows the concave objective
# out along z until a QP's Newton step falls within the rounding of x: that
# QP used to flip x between adjacent doubles until its pivot budget ran out
# (error/qp_max_pivots at 61 outer iterations). Such a step is now a zero
# step and the solve runs on to unbounded. The row is the outcome row above,
# at the sweep's max_outer = 300; no events.
ROUNDING = ("var x start -0.88; var y start -0.55; var z start -0.07; "
            "minimize -1.33 * z^2 + -0.59 * z; "
            "subject_to -0.65 * y + -0.98 * sin(x) + -1.41 * sin(y) "
            "== 0.84;")


@pytest.mark.parametrize("strategy", ["funnel", "filter"])
def test_newton_step_under_rounding_outcome_pinned(strategy):
    res = solve(load_source(ROUNDING, name="fuzz-7"),
                SolverConfig(strategy=strategy, mechanism="line-search",
                             max_outer=300))
    assert (_outcome(res), res.events) == \
        (("unbounded", 81, 81, (80, 1, 0, 0), (82, 82, 82, 82, 81)), [])
