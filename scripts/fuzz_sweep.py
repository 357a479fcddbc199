#!/usr/bin/env python3
"""Solve seeded random models under all four variants and print one outcome
line per solve, then the count of each outcome class, so two versions of the
solver can be shown to behave the same with one diff of this script's output.

The models are tests/test_acceptance.py's _random_model_source drawn in turn
from one numpy default_rng(seed): model i is named fuzz-i. Each line holds
the solve's status, error_kind, outer and inner iteration counts, counters,
the sha256 of repr(events) and repr(f), then the model and variant. A class
is the status, or status/error_kind for an error. The default is the sweep
of 300 models from seed 7007 with max_outer = 300: 1,200 solves.

Usage: python3 scripts/fuzz_sweep.py [--models N] [--seed S]
           [--max-outer K] > sweep.txt
"""

import argparse
import collections
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from funnel_sqp import SolverConfig, solve  # noqa: E402
from funnel_sqp.dsl import load_source  # noqa: E402
from test_acceptance import _random_model_source  # noqa: E402

VARIANTS = list(itertools.product(("funnel", "filter"),
                                  ("trust-region", "line-search")))


def outcome(res) -> str:
    events = hashlib.sha256(repr(res.events).encode()).hexdigest()
    return "  ".join([res.status, repr(res.error_kind),
                      f"outer={res.n_outer}",
                      f"inner={len(res.iterations) - 1}",
                      repr(res.counters.as_dict()), f"events={events}",
                      f"f={res.f!r}"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7007)
    parser.add_argument("--max-outer", type=int, default=300)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    classes = collections.Counter()
    for i in range(args.models):
        source = _random_model_source(rng)
        for strategy, mechanism in VARIANTS:
            config = SolverConfig(strategy=strategy, mechanism=mechanism,
                                  max_outer=args.max_outer)
            res = solve(load_source(source, name=f"fuzz-{i}"), config)
            classes[res.status if res.error_kind is None
                    else f"{res.status}/{res.error_kind}"] += 1
            print(f"{outcome(res)}  fuzz-{i} {strategy} {mechanism}")
    for name, count in sorted(classes.items()):
        print(f"{count:6d}  {name}")


if __name__ == "__main__":
    main()
