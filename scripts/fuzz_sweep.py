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

With --certify, tests/certify.py also checks each verdict that has a
certificate: kkt_residual every kkt_point and infeasibility_rate every
infeasible_stationary. After the class counts, one line per such class
gives the worst value (NaN if an LP failed), the number of verdicts
checked and the solve that read the worst value.

Usage: python3 scripts/fuzz_sweep.py [--models N] [--seed S]
           [--max-outer K] [--certify] > sweep.txt
"""

import argparse
import collections
import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from certify import infeasibility_rate, kkt_residual  # noqa: E402
from funnel_sqp import SolverConfig, solve  # noqa: E402
from funnel_sqp.dsl import load_source  # noqa: E402
from test_acceptance import _random_model_source  # noqa: E402

VARIANTS = list(itertools.product(("funnel", "filter"),
                                  ("trust-region", "line-search")))
# status -> (name of its certificate, the value it reads for a solve)
CERTIFICATES = {
    "kkt_point": ("kkt_residual", kkt_residual),
    "infeasible_stationary": (
        "infeasibility_rate",
        lambda problem, res: infeasibility_rate(problem, res.x)),
}


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
    parser.add_argument("--certify", action="store_true",
                        help="check kkt_point and infeasible_stationary "
                             "verdicts and print the worst value per class")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    classes = collections.Counter()
    # status -> [(value, label)] of every verdict certified
    certified = collections.defaultdict(list)
    for i in range(args.models):
        source = _random_model_source(rng)
        for strategy, mechanism in VARIANTS:
            config = SolverConfig(strategy=strategy, mechanism=mechanism,
                                  max_outer=args.max_outer)
            problem = load_source(source, name=f"fuzz-{i}")
            res = solve(problem, config)
            classes[res.status if res.error_kind is None
                    else f"{res.status}/{res.error_kind}"] += 1
            label = f"fuzz-{i} {strategy} {mechanism}"
            print(f"{outcome(res)}  {label}")
            if args.certify and res.status in CERTIFICATES:
                value = CERTIFICATES[res.status][1](problem, res)
                certified[res.status].append((value, label))
    for name, count in sorted(classes.items()):
        print(f"{count:6d}  {name}")
    for status, rows in sorted(certified.items()):
        # a NaN (a failed LP) is the worst value
        value, label = max(rows, key=lambda r: (math.isnan(r[0]), r[0]))
        print(f"worst {CERTIFICATES[status][0]} {value:.3e}  "
              f"over {len(rows)} {status}  ({label})")


if __name__ == "__main__":
    main()
