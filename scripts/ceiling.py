#!/usr/bin/env python3
"""Size sweep of the dense ceiling: one solve per subprocess, so that each
solve's peak RSS is its own.

The workloads are the chained Rosenbrock of solverbench/chain.py from the
seed-0 start: its .nco text at n = 200, 400, 800 and 1600, and its numpy
form with every upper bound at 1 (the bounded chain, whose QPs pivot) at
n = 200 and 400. Each is solved with the funnel strategy under both
mechanisms and the default configuration, on one BLAS thread. Each line
gives the solve's status, outer iterations, total QP pivots, the wall time
of solve() alone (the model is built before the clock starts) and the
child process's peak RSS, which includes the interpreter, numpy and the
model.

Usage: python3 scripts/ceiling.py [--n N]
    --n N   solve each workload at size N only (N even, N >= 4)
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = {"nco": (200, 400, 800, 1600), "bounded": (200, 400)}
MECHANISMS = ("trust-region", "line-search")
COLUMNS = ("workload", "n", "mechanism", "status", "outer", "pivots",
           "solve_s", "peak_rss_mb")


def solve_one(workload: str, n: int, mechanism: str) -> dict:
    """Build the workload at size n, solve it once and measure the solve."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solverbench")]
    import chain
    from funnel_sqp import SolverConfig, dsl, solve

    x0 = chain.start_point(n, 0)
    if workload == "nco":
        problem = dsl.load_source(chain.nco_text(x0), name=f"chain-{n}")
    else:
        problem = chain.analytic_problem(x0)
        problem.ub[:] = 1.0
    config = SolverConfig(strategy="funnel", mechanism=mechanism)
    t0 = time.perf_counter()
    res = solve(problem, config)
    seconds = time.perf_counter() - t0
    status = res.status if res.error_kind is None \
        else f"{res.status}/{res.error_kind}"
    return {"status": status, "outer": res.n_outer,
            "pivots": sum(r.qp_pivots or 0 for r in res.iterations),
            "solve_s": round(seconds, 3),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def run_child(workload: str, n: int, mechanism: str) -> dict:
    """solve_one in a fresh interpreter with OpenBLAS on one thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, __file__, "--child", workload, str(n), mechanism]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd[2:])}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int)
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        workload, n, mechanism = args.child
        print(json.dumps(solve_one(workload, int(n), mechanism)))
        return
    print("  ".join(f"{c:>12}" for c in COLUMNS), flush=True)
    for workload, sizes in SIZES.items():
        for n in (args.n,) if args.n else sizes:
            for mechanism in MECHANISMS:
                row = {"workload": workload, "n": n, "mechanism": mechanism,
                       **run_child(workload, n, mechanism)}
                print("  ".join(f"{row[c]!s:>12}" for c in COLUMNS),
                      flush=True)


if __name__ == "__main__":
    main()
