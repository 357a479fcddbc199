"""Command line front end.

Subcommands:
  run       solve one problem and print its iteration trace
  compare   run strategy/mechanism combinations over problems, emit CSV
  profile   performance profile of the combinations over the registry

FUNNEL_SQP_LOG={trace,info,quiet} controls verbosity. Exit status: 0 when the
solve ends at a stationary point (optimal or infeasible), 1 for any other
solver outcome, 2 for bad arguments or model parse failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

from .config import SolverConfig, apply_overrides
from .driver import SolveResult, format_trace, solve
from .dsl import load_file
from .errors import ParseError, UnknownProblem
from .problems import get_problem, problem_names

log = logging.getLogger("funnel_sqp")

COMBOS = [("funnel", "trust-region"), ("funnel", "line-search"),
          ("filter", "trust-region"), ("filter", "line-search")]

CSV_FIELDS = ["problem", "strategy", "mechanism", "status", "success",
              "n_outer", "n_inner", "f", "h", "n_f", "n_c", "n_grad_f",
              "n_jac_c", "n_hess", "f_type", "h_type", "restoration",
              "kkt_zero"]


def _setup_logging():
    level = {"trace": logging.DEBUG, "info": logging.INFO,
             "quiet": logging.WARNING}.get(
        os.environ.get("FUNNEL_SQP_LOG", "info").lower(), logging.INFO)
    logging.basicConfig(format="%(levelname)s %(message)s")
    # the level lives on the package logger so repeated in-process calls
    # keep honoring the environment variable
    log.setLevel(level)
    return level


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"expected KEY=VAL, got {pair!r}")
        key, _, val = pair.partition("=")
        overrides[key.strip()] = val.strip()
    return overrides


def _make_config(args) -> SolverConfig:
    cfg = SolverConfig()
    if getattr(args, "strategy", None):
        cfg.strategy = args.strategy
    if getattr(args, "mechanism", None):
        cfg.mechanism = args.mechanism
    if getattr(args, "tol", None) is not None:
        cfg.tol = args.tol
    if getattr(args, "max_iter", None) is not None:
        cfg.max_outer = args.max_iter
    cfg = apply_overrides(cfg, _parse_overrides(getattr(args, "seed_params",
                                                        None)))
    return cfg.validated()


def _load_problem(args):
    if getattr(args, "model", None):
        return load_file(args.model)
    if getattr(args, "problem", None):
        return get_problem(args.problem)
    raise ValueError("one of --problem or --model is required")


def build_report(result: SolveResult, config: SolverConfig) -> dict:
    warm = [r.warm_start for r in result.iterations]
    return {
        "schema_version": 1,
        "problem": result.problem_name,
        "strategy": result.strategy,
        "mechanism": result.mechanism,
        "tol": config.tol,
        "status": result.status,
        "success": result.success,
        "n_outer": result.n_outer,
        "n_inner": max(len(result.iterations) - 1, 0),
        "f": result.f,
        "h": result.h,
        "x": [float(v) for v in result.x],
        "lam": [float(v) for v in result.lam],
        "mu": [float(v) for v in result.mu],
        "counters": result.counters.as_dict(),
        "step_counts": dict(result.step_counts),
        "events": result.events,
        "qp_pivots": sum(r.qp_pivots or 0 for r in result.iterations),
        "warm_start_hits": warm.count("hit"),
        "warm_start_misses": warm.count("miss"),
        "error_kind": result.error_kind,
        "message": result.message,
    }


def _csv_row(result: SolveResult) -> dict:
    cnt = result.counters.as_dict()
    return {
        "problem": result.problem_name, "strategy": result.strategy,
        "mechanism": result.mechanism, "status": result.status,
        "success": int(result.success), "n_outer": result.n_outer,
        "n_inner": max(len(result.iterations) - 1, 0),
        "f": repr(result.f), "h": repr(result.h),
        "n_f": cnt["n_f"], "n_c": cnt["n_c"], "n_grad_f": cnt["n_grad_f"],
        "n_jac_c": cnt["n_jac_c"], "n_hess": cnt["n_hess"],
        "f_type": result.step_counts["f_type"],
        "h_type": result.step_counts["h_type"],
        "restoration": result.step_counts["restoration"],
        "kkt_zero": result.step_counts["kkt_zero"],
    }


def cmd_run(args) -> int:
    config = _make_config(args)
    problem = _load_problem(args)
    result = solve(problem, config)
    if log.getEffectiveLevel() <= logging.INFO:
        print(format_trace(result))
        print(f"status: {result.status}  outer: {result.n_outer}  "
              f"f: {result.f:.8e}  h: {result.h:.3e}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(build_report(result, config), fh, indent=2)
        log.info("wrote %s", args.json)
    return 0 if result.success else 1


def _registry_problems(args):
    names = args.problems or problem_names()
    return [get_problem(name) for name in names]


def _run_grid(problems, args):
    """Solve every problem under every strategy/mechanism combination."""
    rows = []
    for problem in problems:
        for strategy, mechanism in COMBOS:
            cfg = _make_config(args)
            cfg.strategy, cfg.mechanism = strategy, mechanism
            rows.append(solve(problem, cfg))
    return rows


def cmd_compare(args) -> int:
    problems = _registry_problems(args)
    results = _run_grid(problems, args)
    out = args.csv or "compare.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for result in results:
            writer.writerow(_csv_row(result))
    n_ok = sum(1 for r in results if r.success)
    print(f"wrote {out}: {len(results)} runs, {n_ok} converged")
    for result in results:
        print(f"  {result.problem_name:24s} {result.strategy:7s} "
              f"{result.mechanism:12s} {result.status:22s} "
              f"outer={result.n_outer}")
    return 0


def _metric_value(result: SolveResult, metric: str):
    if not result.success:
        return None
    if metric == "outer":
        return max(result.n_outer, 1)
    cnt = result.counters.as_dict()
    if metric == "evals":
        return max(cnt["n_f"] + cnt["n_c"], 1)
    if metric == "gradients":
        return max(cnt["n_grad_f"] + cnt["n_jac_c"], 1)
    raise ValueError(f"unknown metric {metric!r}")


def performance_profile(costs: dict[str, list]) -> dict[str, list]:
    """Cost table -> per-solver monotone profile points (alpha, fraction).

    costs maps solver name to a per-problem list of costs, None for failures.
    Ratios are taken against the per-problem best; a solver's profile is the
    fraction of problems it solved within a factor alpha of the best, one
    point per distinct ratio from alpha = 1 to the largest ratio of any solver.
    """
    ratios: dict[str, list] = {s: [] for s in costs}
    problems = list(zip(*costs.values()))
    for col in problems:
        best = min((v for v in col if v is not None), default=None)
        for s, v in zip(costs, col):
            if v is not None:
                ratios[s].append(v / best)
    cap = max([1.0] + [max(r) for r in ratios.values() if r])
    n = max(len(problems), 1)
    profiles = {}
    for s, done in ratios.items():
        points = {1.0: 0.0}
        for i, r in enumerate(sorted(done), 1):
            points[r] = i / n
        points[cap] = len(done) / n
        profiles[s] = list(points.items())
    return profiles


def cmd_profile(args) -> int:
    problems = _registry_problems(args)
    results = _run_grid(problems, args)
    by_combo: dict[str, dict[str, SolveResult]] = {}
    for result in results:
        key = f"{result.strategy}+{result.mechanism}"
        by_combo.setdefault(key, {})[result.problem_name] = result
    names = [p.name for p in problems]
    costs = {}
    for key, runs in by_combo.items():
        costs[key] = [
            _metric_value(runs[name], args.metric) if name in runs else None
            for name in names]
    profiles = performance_profile(costs)
    out = args.csv or "profile.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "alpha", "fraction"])
        for key, points in profiles.items():
            for alpha, frac in points:
                writer.writerow([key, repr(float(alpha)), repr(float(frac))])
    print(f"wrote {out}: metric={args.metric}, {len(names)} problems")
    for key, points in profiles.items():
        final = points[-1][1] if points else 0.0
        print(f"  {key:24s} solved {final * 100:5.1f}%")
    return 0


def _add_common(p, single_problem):
    if single_problem:
        p.add_argument("--problem", help="registry problem name")
        p.add_argument("--model", help="path to a .nco model file")
    else:
        p.add_argument("--problems", nargs="*",
                       help="registry subset (default: whole registry)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed-params", nargs="*", metavar="KEY=VAL",
                   help="dotted config overrides, e.g. funnel.kappa=0.4")
    if not single_problem:
        p.add_argument("--csv", help="CSV output path")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funnel-sqp",
        description="Restoration SQP solver with funnel/filter globalization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem")
    _add_common(p_run, single_problem=True)
    p_run.add_argument("--strategy", choices=["funnel", "filter"],
                       default="funnel")
    p_run.add_argument("--mechanism",
                       choices=["trust-region", "line-search"],
                       default="trust-region")
    p_run.add_argument("--json", help="write a run report to this path")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="all strategy/mechanism combos, CSV out")
    _add_common(p_cmp, single_problem=False)
    p_cmp.set_defaults(fn=cmd_compare)

    p_prof = sub.add_parser("profile", help="performance profile CSV")
    _add_common(p_prof, single_problem=False)
    p_prof.add_argument("--metric", choices=["outer", "evals", "gradients"],
                        default="outer")
    p_prof.set_defaults(fn=cmd_profile)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UnknownProblem, ValueError, OSError) as e:
        log.error("%s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
