"""The rules of scripts/ab_bench.py. Gain: pairs won, ties, direction, and
the median gap against the parent's interquartile range. No regression: the
median against the metric's relative bound, and a parent spread wider than
the bound."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


class TestVerdict:
    def test_ties_count_for_neither_side(self):
        assert ab_bench.verdict(PARENT, PARENT, "lower") == (0, False)
        assert ab_bench.verdict(PARENT, PARENT, "higher") == (0, False)

    def test_higher_is_better_flips_the_sign(self):
        faster = [v - 1.0 for v in PARENT]
        assert ab_bench.verdict(PARENT, faster, "lower") == (10, True)
        assert ab_bench.verdict(PARENT, faster, "higher") == (0, False)
        assert ab_bench.verdict(faster, PARENT, "higher") == (10, True)

    def test_nine_of_ten_pairs_needed(self):
        change = [v - 1.0 for v in PARENT]
        change[0] = PARENT[0]                     # one tie: 9 of 10
        assert ab_bench.verdict(PARENT, change, "lower") == (9, True)
        change[1] = PARENT[1] + 0.01              # one loss more: 8 of 10
        assert ab_bench.verdict(PARENT, change, "lower") == (8, False)

    def test_median_gap_must_exceed_parent_iqr(self):
        # parent quartiles 1.225 and 1.675: IQR 0.45
        q1, med, q3 = ab_bench.quartiles(PARENT)
        assert (q1, q3) == pytest.approx((1.225, 1.675))
        small = [v - 0.4 for v in PARENT]         # wins every pair
        assert ab_bench.verdict(PARENT, small, "lower") == (10, False)
        large = [v - 0.5 for v in PARENT]
        assert ab_bench.verdict(PARENT, large, "lower") == (10, True)

    def test_quartiles_of_a_single_value(self):
        assert ab_bench.quartiles([0.25]) == (0.25, 0.25, 0.25)
        # one pair: the IQR is 0, so any win is a gain
        assert ab_bench.verdict([0.25], [0.24], "lower") == (1, True)


NARROW = [1.0 + 0.01 * i for i in range(10)]     # median 1.045, IQR 0.045


class TestRegression:
    def test_median_past_the_bound_is_worse(self):
        # bound 0.25 allows the median to rise to 1.045 * 1.25 = 1.306
        assert ab_bench.regression(NARROW, [v + 0.25 for v in NARROW],
                                   "lower", 0.25) == "ok"
        assert ab_bench.regression(NARROW, [v + 0.27 for v in NARROW],
                                   "lower", 0.25) == "worse"

    def test_higher_is_better_flips_the_sign(self):
        lower = [v - 0.27 for v in NARROW]
        assert ab_bench.regression(NARROW, lower, "higher", 0.25) == "worse"
        assert ab_bench.regression(NARROW, lower, "lower", 0.25) == "ok"

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        # PARENT's IQR 0.45 exceeds 0.25 * 1.45 = 0.3625
        assert ab_bench.regression(PARENT, PARENT, "lower", 0.25) \
            == "unresolved"
        assert ab_bench.regression(PARENT, PARENT, "lower", 0.35) == "ok"
        # a change that wins every pair but not against every parent run
        assert ab_bench.regression(PARENT, [v - 0.5 for v in PARENT],
                                   "lower", 0.25) == "unresolved"

    def test_every_change_run_beating_every_parent_run_resolves(self):
        change = [v - 1.0 for v in PARENT]        # all below PARENT's min
        assert ab_bench.regression(PARENT, change, "lower", 0.25) == "ok"
        assert ab_bench.regression(PARENT, [v + 1.0 for v in PARENT],
                                   "higher", 0.25) == "ok"
