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
With --passes, each line instead counts the solve's forward passes of the
derivative tape (calls of tape.forward) at order 0, 1 and 2.
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

With --parse, the script solves nothing: it prints one sha256 per model
source instead, so two versions of the model language can be shown to read
text the same. Each digest covers the parsed model (variables, bounds,
starts, and every expression tree in pre-order) or else the error's class,
message, line and column, and then tokenize()'s (kind, text, line, col)
list or its error. The 338 sources: models/*.nco (3); the chain's .nco text
at n=24 and n=200 for seeds 0-3 and 4099, and at n=800 for seed 0 (11);
the 300 fuzz models of scripts/fuzz_sweep.py; and 24 malformed sources,
at least one per ParseError raise site of dsl.py.

Usage: python3 scripts/trace_digest.py
           [--outcomes | --pivots | --factors | --passes | --parse]
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solverbench"),
                str(ROOT / "tests")]

import chain  # noqa: E402
from funnel_sqp import SolverConfig, format_trace, solve  # noqa: E402
from funnel_sqp import linalg, qp, tape  # noqa: E402
from funnel_sqp.dsl import (Binary, Call, Num, Unary, Var,  # noqa: E402
                            load_file, load_source, parse_model, tokenize)
from funnel_sqp.errors import ParseError  # noqa: E402
from funnel_sqp.problems import get_problem, problem_names  # noqa: E402
from test_acceptance import _random_model_source  # noqa: E402

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
# each is rejected, most of them past line 1 so that positions are checked
MALFORMED = (
    "var x;\nminimize x @ 2;",                    # unexpected character
    "var x;\r\n\tminimize x²;",                   # a digit, not a decimal
    "var é;",                                     # a letter, not ASCII
    "var x;\nminimize .;",                        # a lone point
    "var 1.5;",                                   # expected a variable name
    "var x\nvar y;",                              # expected ';'
    "var x;\nminimize x +",                       # found end of input
    "var x;\n# a comment\n  minimize (x + 1;",    # expected ')'
    "var x;\n;",                                  # expected a statement
    "var x;\nvar sin;",                           # reserved
    "var x;\n\nvar x;",                           # duplicate declaration
    "var x in [3, 1];",                           # empty bound interval
    "var x in [inf, inf];",                       # no real point
    "var x in [a, 1];",                           # expected a number or inf
    "var x start -;",                             # expected a number
    "var x;\nminimize x;\nminimize x;",           # duplicate objective
    "var x;\nsubject_to x + 1;",                  # expected a relation
    "var x;\nsubject_to 1 <= x >= 0;",            # ranged with >=
    "var x; var y;\nsubject_to y <= x <= 2;",     # no numeric lower end
    "var x; var y;\nsubject_to 0 <= x <= y;",     # no numeric upper end
    "var x;\nsubject_to 4 <= x <= 2;",            # empty constraint range
    "var x;\nminimize start;",                    # unexpected keyword
    "var x;\nminimize x * zz;",                   # undeclared variable
    "var x;\nminimize x * ;",                     # expected an expression
)


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


def sources():
    """(label, text) for every source --parse reads."""
    for path in sorted((ROOT / "models").glob("*.nco")):
        yield path.name, path.read_text()
    for n, seeds in ((24, SEEDS), (200, SEEDS), (800, (0,))):
        for seed in seeds:
            yield (f"dsl-chain-{n}/seed-{seed}",
                   chain.nco_text(chain.start_point(n, seed)))
    rng = np.random.default_rng(7007)
    for i in range(300):
        yield f"fuzz-{i}", _random_model_source(rng)
    for i, text in enumerate(MALFORMED):
        yield f"malformed-{i}", text


def tree(e) -> str:
    """An expression tree in pre-order. A long sum is a left spine as deep
    as it has terms, so the walk keeps its own stack."""
    out, stack = [], [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Binary):
            out.append(f"B{e.op}")
            stack += [e.right, e.left]
        elif isinstance(e, Unary):
            out.append(f"U{e.op}")
            stack.append(e.operand)
        elif isinstance(e, Call):
            out.append(f"C{e.fn}")
            stack.append(e.arg)
        elif isinstance(e, Num):
            out.append(f"N{e.value!r}")
        else:
            assert isinstance(e, Var)
            out.append(f"V{e.name}")
    return " ".join(out)


def parsed(text) -> str:
    """sha256 of the model parsed from text and of tokenize(text)."""
    def error(exc):
        return f"{type(exc).__name__}: {exc}  {exc.line}:{exc.column}"
    try:
        m = parse_model(text)
        parts = [m.name] + [repr((v.name, v.lb, v.ub, v.start))
                            for v in m.variables]
        parts.append("None" if m.objective is None else tree(m.objective))
        parts += [f"{r.lo!r} {r.hi!r} {tree(r.body)}" for r in m.constraints]
    except ParseError as exc:
        parts = [error(exc)]
    try:
        parts += [repr((t.kind, t.text, t.line, t.col))
                  for t in tokenize(text)]
    except ParseError as exc:
        parts.append(error(exc))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


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


def passes(counts, res) -> str:
    """Forward passes of the tape per order, counted over the solve."""
    return "  ".join(f"order{k}={counts[k]}" for k in range(3))


def by_order(fn, counts):
    """tape.forward, adding one to counts[order] per call."""
    @functools.wraps(fn)
    def wrapper(ops, X, order):
        counts[order] += 1
        return fn(ops, X, order)
    return wrapper


def counted(fn, counts, key):
    """fn, adding one to counts[key] per call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def main(argv=None):
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
    mode.add_argument("--passes", action="store_true",
                      help="print each solve's tape forward passes per "
                           "order instead of a digest")
    mode.add_argument("--parse", action="store_true",
                      help="print one digest per model source, parsed and "
                           "tokenized, and solve nothing")
    args = parser.parse_args(argv)
    if args.parse:
        for label, text in sources():
            print(f"{parsed(text)}  {label}")
        return
    show = outcome if args.outcomes else pivots if args.pivots else digest
    counts = collections.Counter()
    # the counting wrappers are put back when the solves end
    originals = linalg.pivoted_qr, qp.nullspace_basis, tape.forward
    if args.factors:
        linalg.pivoted_qr = counted(linalg.pivoted_qr, counts, "qr")
        qp.nullspace_basis = counted(qp.nullspace_basis, counts, "sets")
        show = functools.partial(factors, counts)
    if args.passes:
        tape.forward = by_order(tape.forward, counts)
        show = functools.partial(passes, counts)
    try:
        for label, make, max_outer in problems():
            for strategy, mechanism in VARIANTS:
                config = SolverConfig(strategy=strategy, mechanism=mechanism)
                if max_outer is not None:
                    config.max_outer = max_outer
                counts.clear()
                res = solve(make(), config)
                print(f"{show(res)}  {label} {strategy} {mechanism}")
    finally:
        linalg.pivoted_qr, qp.nullspace_basis, tape.forward = originals


if __name__ == "__main__":
    main()
