"""The rules of scripts/ab_bench.py. Gain: pairs won, ties, direction, and
the median gap against the parent's interquartile range. Paired gain: pairs
won and the quartiles of the per-pair ratio. No regression: the median
against the metric's relative bound, and a parent spread wider than the
bound."""

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


class TestPaired:
    # a first dsl-chain series of an earlier change: the machine ran about
    # 2x faster in pairs 8-10, and the change won every pair by 18-33%
    DRIFT = [0.047, 0.046, 0.048, 0.047, 0.049, 0.046, 0.047,
             0.024, 0.023, 0.025]
    CUT = [0.75, 0.80, 0.70, 0.82, 0.67, 0.78, 0.72, 0.80, 0.75, 0.70]

    def test_drift_between_pairs_hides_the_pooled_gain_only(self):
        change = [p * r for p, r in zip(self.DRIFT, self.CUT)]
        assert ab_bench.verdict(self.DRIFT, change, "lower") == (10, False)
        (q1, med, q3), gain = ab_bench.paired(self.DRIFT, change, "lower")
        assert gain
        assert (q1, med, q3) == pytest.approx(
            ab_bench.quartiles(sorted(self.CUT)))
        rows = ab_bench.summary(
            {"parent": [{"metrics": {"tr_s": {"value": v}}}
                        for v in self.DRIFT],
             "change": [{"metrics": {"tr_s": {"value": v}}}
                        for v in change]},
            [("tr_s", "lower", 0.25)])
        cells = rows[0].split()
        assert cells[-1] == "yes"
        assert cells[cells.index("10/10") + 1] == "no"

    def test_no_gain_reads_no(self):
        # the change wins half the pairs by noise around a ratio of 1
        noise = [0.98, 1.03, 0.97, 1.02, 0.99, 1.01, 0.96, 1.04, 0.99, 1.02]
        change = [p * r for p, r in zip(self.DRIFT, noise)]
        (q1, _, q3), gain = ab_bench.paired(self.DRIFT, change, "lower")
        assert not gain and q1 < 1.0 < q3
        assert not ab_bench.verdict(self.DRIFT, change, "lower")[1]

    def test_nine_tenths_of_the_pairs_needed(self):
        # every pair won by a hair holds; two losses drop the wins to 8 of
        # 10, though the upper quartile stays below 1
        change = [0.999 * p for p in PARENT]
        assert ab_bench.paired(PARENT, change, "lower")[1]
        change[0] = change[1] = 2.0 * PARENT[0]
        (_, _, q3), gain = ab_bench.paired(PARENT, change, "lower")
        assert q3 < 1.0 and not gain

    def test_higher_is_better_reads_the_lower_quartile(self):
        higher = [1.25 * p for p in PARENT]
        assert ab_bench.paired(PARENT, higher, "higher")[1]
        assert not ab_bench.paired(PARENT, higher, "lower")[1]

    def test_zero_parent_values(self):
        (q1, _, q3), gain = ab_bench.paired([0.0, 0.0], [0.0, 0.0], "lower")
        assert (q1, q3) == (1.0, 1.0) and not gain


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
