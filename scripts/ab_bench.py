#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark in two checkouts.

    python3 scripts/ab_bench.py PARENT CHANGE --workload W --pairs N \
        --seconds S [--seed K]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
`solverbench/run.py --workload W --seed K --seconds S --trace 0` once in
each, one process at a time; the parent goes first on even pairs and the
change on odd ones. Each run's last line of output is read as JSON. For
every end-to-end metric in PARENT's BENCHMARK.json the script prints each
side's median and quartiles, the change/parent ratio of the medians and the
number of pairs the change won (ties count for neither). A gain holds when
the change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range; the gain column says so. The
bound column applies the metric's relative `bound`: `worse` when the change's
median is worse than the parent's by more than bound times the parent's
median, `unresolved` when the parent's interquartile range is wider than
that unless every change run beats every parent run, else `ok`.

The last two columns pair the runs. The gain rule pools each side's runs,
so a machine that speeds up or slows down between pairs widens the
parent's quartiles and can hide a change that wins every pair. The paired
statistic is the change/parent ratio within each pair, which that drift
moves much less: the script prints its median and quartiles, and the
paired column reads yes when the change wins at least nine tenths of the
pairs and the ratio's upper quartile is below 1 (its lower quartile above
1 for a higher-is-better metric).
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in root; returns its final JSON object."""
    cmd = [sys.executable, "solverbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{root}: run failed (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better):
    """(pairs the change won, whether a gain holds) for one metric's paired
    values; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0.0)
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    return won, won >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1


def paired(parent, change, better):
    """((q1, median, q3) of the per-pair change/parent ratio, whether a
    paired gain holds) for one metric's paired values; better is "lower" or
    "higher". A zero parent value gives the ratio 1 against a zero change
    value and an infinite one otherwise."""
    ratios = [c / p if p else (1.0 if c == p else math.copysign(math.inf, c))
              for p, c in zip(parent, change)]
    q = quartiles(ratios)
    won, _ = verdict(parent, change, better)
    beyond = q[2] < 1.0 if better == "lower" else q[0] > 1.0
    return q, won >= 0.9 * len(parent) and beyond


def regression(parent, change, better, bound):
    """The no-regression verdict for one metric's runs under its relative
    bound: "worse", "unresolved" or "ok"; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    allowed = bound * abs(pm)
    if sign * (cm - pm) > allowed:
        return "worse"
    if p3 - p1 > allowed and not max(sign * c for c in change) < min(
            sign * p for p in parent):
        return "unresolved"
    return "ok"


def summary(runs, metrics):
    """One row per metric over the paired runs {"parent": [...], ...}."""
    pairs = len(runs["parent"])
    rows = []
    for name, better, bound in metrics:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        won, gain = verdict(p, c, better)
        (r1, rm, r3), pair_gain = paired(p, c, better)
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        ratio = cm / pm if pm else float("nan")
        parent = f"{pm:.4g} [{p1:.4g}, {p3:.4g}]"
        change = f"{cm:.4g} [{c1:.4g}, {c3:.4g}]"
        pair_ratio = f"{rm:.3f} [{r1:.3f}, {r3:.3f}]"
        rows.append(f"{name:12s}  {parent:32s}  {change:32s}  {ratio:6.3f}"
                    f"  {won:2d}/{pairs}  {'yes' if gain else 'no':4s}"
                    f"  {regression(p, c, better, bound):10s}"
                    f"  {pair_ratio:22s}  {'yes' if pair_gain else 'no'}")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    roots = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(roots[side], args.workload, args.seed,
                           args.seconds)
            runs[side].append(out)
            values = " ".join(f"{name}={out['metrics'][name]['value']:.4g}"
                              for name, _, _ in metrics)
            ok = "ok" if out["correct"] else f"FAILED {out['failed']}"
            print(f"pair {i + 1} {side}: {values} {ok}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s: median [quartiles], parent then change")
    print(f"{'metric':12s}  {'parent':32s}  {'change':32s}  {'c/p':>6s}"
          f"  {'won':>5s}  gain  {'bound':10s}  {'c/p per pair':22s}  paired")
    print("\n".join(summary(runs, metrics)))
    failed = sum(not r["correct"] for side in runs.values() for r in side)
    print(f"runs not correct: {failed} of {2 * args.pairs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
