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
certificate: kkt_residual every kkt_point, infeasibility_rate every
infeasible_stationary and unbounded_residual every unbounded. After the
class counts, one line per such class gives the worst value (NaN if an LP
failed), the number of verdicts checked and the solve that read the worst
value.

With --nudge, each solve is also run from its start x0 moved by one ulp
up and one ulp down (np.nextafter toward +inf and -inf, then clipped into
the box as every start is). A solve is stable when all three starts end in
the same class. After the lines above come the class counts of the stable
solves, each line marked "stable", and then one "unstable" line per other
solve with its classes from x0, x0 up and x0 down. A change that moves the
rounding of a solve can change an unstable class without a fault; a stable
class that changes is a finding.

Usage: python3 scripts/fuzz_sweep.py [--models N] [--seed S]
           [--max-outer K] [--certify] [--nudge] > sweep.txt
"""

import argparse
import collections
import dataclasses
import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from certify import (infeasibility_rate, kkt_residual,  # noqa: E402
                     unbounded_residual)
from funnel_sqp import SolverConfig, solve  # noqa: E402
from funnel_sqp.dsl import load_source  # noqa: E402
from test_acceptance import _random_model_source  # noqa: E402

VARIANTS = list(itertools.product(("funnel", "filter"),
                                  ("trust-region", "line-search")))
# status -> (name of its certificate, the value it reads for a solve); every
# sweep solve has the default unbounded_threshold
CERTIFICATES = {
    "kkt_point": ("kkt_residual", kkt_residual),
    "infeasible_stationary": (
        "infeasibility_rate",
        lambda problem, res: infeasibility_rate(problem, res.x)),
    "unbounded": (
        "unbounded_residual",
        lambda problem, res: unbounded_residual(
            problem, res.x, SolverConfig().unbounded_threshold)),
}


def solve_class(res) -> str:
    """The status, or status/error_kind for an error."""
    return res.status if res.error_kind is None \
        else f"{res.status}/{res.error_kind}"


def nudged(problem, direction: float):
    """problem with its start x0 moved one ulp toward direction."""
    return dataclasses.replace(
        problem, x0=np.nextafter(np.asarray(problem.x0, dtype=float),
                                 direction))


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
                        help="check kkt_point, infeasible_stationary and "
                             "unbounded verdicts and print the worst value "
                             "per class")
    parser.add_argument("--nudge", action="store_true",
                        help="also solve from x0 moved one ulp up and down "
                             "and print the classes stable under both")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    classes = collections.Counter()
    # status -> [(value, label)] of every verdict certified
    certified = collections.defaultdict(list)
    stable = collections.Counter()
    unstable = []
    for i in range(args.models):
        source = _random_model_source(rng)
        for strategy, mechanism in VARIANTS:
            config = SolverConfig(strategy=strategy, mechanism=mechanism,
                                  max_outer=args.max_outer)
            problem = load_source(source, name=f"fuzz-{i}")
            res = solve(problem, config)
            classes[solve_class(res)] += 1
            label = f"fuzz-{i} {strategy} {mechanism}"
            print(f"{outcome(res)}  {label}")
            if args.certify and res.status in CERTIFICATES:
                value = CERTIFICATES[res.status][1](problem, res)
                certified[res.status].append((value, label))
            if args.nudge:
                three = [solve_class(res)] + [
                    solve_class(solve(nudged(problem, d), config))
                    for d in (np.inf, -np.inf)]
                if len(set(three)) == 1:
                    stable[three[0]] += 1
                else:
                    unstable.append(f"unstable {label}: {' / '.join(three)}")
    for name, count in sorted(classes.items()):
        print(f"{count:6d}  {name}")
    for status, rows in sorted(certified.items()):
        # a NaN (a failed LP) is the worst value
        value, label = max(rows, key=lambda r: (math.isnan(r[0]), r[0]))
        print(f"worst {CERTIFICATES[status][0]} {value:.3e}  "
              f"over {len(rows)} {status}  ({label})")
    if args.nudge:
        for name, count in sorted(stable.items()):
            print(f"{count:6d}  stable {name}")
        print("\n".join(unstable) if unstable else "no unstable solves")


if __name__ == "__main__":
    main()
