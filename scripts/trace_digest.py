#!/usr/bin/env python3
"""Print one sha256 per solve, so two versions of the solver can be shown to
behave the same with one diff of this script's output.

Each digest covers the solve's iteration trace (format_trace), status,
error_kind, evaluation counters, step counts, events, repr(f) and the
repr of every entry of x. With --outcomes, each line instead spells out
the solve's status, error_kind, outer and inner iteration counts, counters,
step counts and event types, then f and every entry of x in %.8e, so a
change that moves only the last bits of f and x shows as an empty diff.
With --pivots, each line instead counts the solve's directions per phase
with their QP pivots, and its warm-start hits and misses, from the trace
records; a direction that entered restoration counts as a restoration QP and
carries the infeasible optimality QP's pivots.
With --factors, each line instead counts the solve's pivoted QRs (calls of
linalg.pivoted_qr, which every nullspace_basis of a nonzero matrix makes)
and the working sets the QP factored itself (calls of qp.nullspace_basis);
convexify's QR of J, which seeds the line-search optimality QP's all-free
working set, counts as a QR only.
The 136 solves, each under all four strategy/mechanism variants:

  - every registry problem and every models/*.nco model (56);
  - the chained Rosenbrock of solverbench/chain.py from the starts of seeds
    0-3 and 4099: the .nco form and the numpy form at n=24, and the numpy
    form at n=200 (60);
  - the n=24 .nco chain from the Armijo-rounding-cycle start, max_outer=100
    (4);
  - the LICQ failure x + y subject to x^2 + y^2 = 0 (4);
  - a fuzz model whose line-search elastic QPs can be unbounded below, so
    that the elastic re-solve is covered (4);
  - fuzz-164 of scripts/fuzz_sweep.py, whose filter line-search solve ends
    restoration_stall (4);
  - a bounded objective whose gradient's norm overflows, as does the norm
    of the trust-region QP's zero-curvature ray (4).

Usage: python3 scripts/trace_digest.py [--outcomes | --pivots | --factors]
           > digest.txt
"""

import argparse
import collections
import functools
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solverbench")]

import chain  # noqa: E402
from funnel_sqp import SolverConfig, format_trace, solve  # noqa: E402
from funnel_sqp import linalg, qp  # noqa: E402
from funnel_sqp.dsl import load_file, load_source  # noqa: E402
from funnel_sqp.problems import get_problem, problem_names  # noqa: E402

VARIANTS = list(itertools.product(("funnel", "filter"),
                                  ("trust-region", "line-search")))
SEEDS = (0, 1, 2, 3, 4099)
LICQ = ("var x start 1; var y start 1; minimize x + y; "
        "subject_to x^2 + y^2 == 0;")
UNBOUNDED_ELASTIC = (
    "var x start -0.38; var y start -0.51; "
    "minimize -0.48 * sin(x) + -0.55 * cos(y + x); "
    "subject_to -0.61 * exp(0.4 * y) + 1.26 * cos(x + x) + -1.34 * x == -0.88; "
    "subject_to 0.91 * x * x + 1.21 * exp(0.4 * x) + -0.68 * cos(x + y) "
    "+ 0.49 * cos(y + y) == 0.54;")
RESTORATION_STALL = (
    "var x start -0.19; var y start -0.97; "
    "minimize 0.47 * y * x + -0.43 * cos(x + x); "
    "subject_to -0.5 * x * x + -0.65 * exp(0.4 * y) == 0.51; "
    "subject_to -0.83 * y * y + -1.9 * cos(y + x) == -0.53;")
GRADIENT_OVERFLOW = ("var x in [0, 1] start 0.5; var y start 0; "
                     "minimize 1e160 * x + y^2;")


def problems():
    """(label, problem factory, max_outer) for every solved problem."""
    for name in problem_names():
        yield name, lambda name=name: get_problem(name), None
    for path in sorted((ROOT / "models").glob("*.nco")):
        yield path.name, lambda path=path: load_file(path), None
    for seed in SEEDS:
        for n in (24, 200):
            x0 = chain.start_point(n, seed)
            if n == 24:
                yield (f"dsl-chain-{n}/seed-{seed}",
                       lambda x0=x0: load_source(chain.nco_text(x0)), None)
            yield (f"analytic-chain-{n}/seed-{seed}",
                   lambda x0=x0: chain.analytic_problem(x0), None)
    base = np.where(np.arange(24) % 2 == 0, -1.2, 1.0)
    x0 = base + np.random.default_rng([22, 1]).uniform(-0.1, 0.1, 24)
    yield ("armijo-cycle", lambda: load_source(chain.nco_text(x0)), 100)
    yield "licq-failure", lambda: load_source(LICQ), None
    yield ("unbounded-elastic", lambda: load_source(UNBOUNDED_ELASTIC),
           None)
    yield ("restoration-stall", lambda: load_source(RESTORATION_STALL),
           None)
    yield ("gradient-overflow", lambda: load_source(GRADIENT_OVERFLOW),
           None)


def digest(res) -> str:
    parts = [format_trace(res), res.status, repr(res.error_kind),
             repr(res.counters.as_dict()), repr(sorted(res.step_counts.items())),
             repr(res.events), repr(res.f), repr(res.x.tolist())]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def outcome(res) -> str:
    """Every count and status of the solve, then f and x to 9 digits."""
    parts = [res.status, repr(res.error_kind),
             f"outer={res.n_outer}", f"inner={len(res.iterations) - 1}",
             repr(res.counters.as_dict()), repr(sorted(res.step_counts.items())),
             repr([ev["type"] for ev in res.events]),
             "f=%.8e" % res.f, "x=" + " ".join("%.8e" % v for v in res.x)]
    return "  ".join(parts)


def pivots(res) -> str:
    """QPs and their pivots per phase, then warm-start hits and misses."""
    parts = []
    for phase in ("optimality", "restoration"):
        qps = [r.qp_pivots for r in res.iterations
               if r.phase == phase and r.qp_pivots is not None]
        parts.append(f"{phase}={len(qps)}/{sum(qps)}")
    warm = [r.warm_start for r in res.iterations]
    parts.append(f"hit={warm.count('hit')} miss={warm.count('miss')}")
    return "  ".join(parts)


def factors(counts, res) -> str:
    """Pivoted QRs and QP working sets factored, counted over the solve."""
    return f"qr={counts['qr']}  qp_sets={counts['sets']}"


def counted(fn, counts, key):
    """fn, adding one to counts[key] per call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--outcomes", action="store_true",
                      help="print each solve's outcome instead of a digest")
    mode.add_argument("--pivots", action="store_true",
                      help="print each solve's QP counts, pivots and warm "
                           "starts instead of a digest")
    mode.add_argument("--factors", action="store_true",
                      help="print each solve's pivoted QRs and QP working "
                           "sets factored instead of a digest")
    args = parser.parse_args()
    show = outcome if args.outcomes else pivots if args.pivots else digest
    counts = collections.Counter()
    if args.factors:
        linalg.pivoted_qr = counted(linalg.pivoted_qr, counts, "qr")
        qp.nullspace_basis = counted(qp.nullspace_basis, counts, "sets")
        show = functools.partial(factors, counts)
    for label, make, max_outer in problems():
        for strategy, mechanism in VARIANTS:
            config = SolverConfig(strategy=strategy, mechanism=mechanism)
            if max_outer is not None:
                config.max_outer = max_outer
            counts.clear()
            res = solve(make(), config)
            print(f"{show(res)}  {label} {strategy} {mechanism}")


if __name__ == "__main__":
    main()
