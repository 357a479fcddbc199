#!/usr/bin/env python3
"""Solver benchmark: end-to-end timings per workload, or per-layer spans.

    python3 solverbench/run.py --workload registry-grid --seed 0 \
        --seconds 30 --trace 0

Run it from the root of a checkout; it imports the solver from src/. One
process solves the workload's solve list in a closed loop (one solve at a
time, the next starting when the previous returns) and repeats whole passes
over the list for about --seconds. Every solve is checked against its stored
expected outcome (oracle.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and traced
passes in turn and prints the per-layer metrics, writing the spans to
.solverbench_out/. The last line of output is one JSON object with the keys
correct, attempted, failed and metrics. See solverbench/README.md.
"""

import os

# OpenBLAS's default pool of one thread per core made the n=100 line-search
# chain about 8x slower on 2 cores (README.md), so BLAS is pinned to one
# thread before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse    # noqa: E402
import json        # noqa: E402
import platform    # noqa: E402
import resource    # noqa: E402
import statistics  # noqa: E402
import sys         # noqa: E402
import time        # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".solverbench_out"

END_TO_END = [("tr_s", "s"), ("ls_s", "s"), ("pass_s_tail", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("outer_iters", "count"), ("inner_trials", "count")]

SETUP_WINDOWS = 5        # set-up samples per run
SETUP_WINDOW_S = 0.3     # each sample repeats the build for this long


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("registry-grid", "dsl-chain", "analytic-chain"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_libraries() -> list:
    """Name, configuration and live thread count of each loaded OpenBLAS."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_loaded": blas_libraries(),
        "blas_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "cpu": cpu_model(),
    }


def tail(values: list) -> tuple:
    """Highest order statistic with at least ten values above it.

    Returns (value, percentile, number above). With fewer than eleven
    values none qualifies and the maximum is returned.
    """
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def time_setup(workload) -> float:
    """Seconds for one build of the workload's problems.

    The machine's speed swings by up to 2x within a second, so each sample
    is the mean over a window of repeated builds; the median of the windows
    is returned.
    """
    windows = []
    for _ in range(SETUP_WINDOWS):
        builds = 0
        t0 = time.perf_counter()
        while builds == 0 or time.perf_counter() - t0 < SETUP_WINDOW_S:
            workload.setup()
            builds += 1
        windows.append((time.perf_counter() - t0) / builds)
    return statistics.median(windows)


def run_pass(workload, problems, configs, solve_fn):
    """One closed-loop pass: (solve, result or exception, seconds) per solve."""
    rows = []
    for i, (s, config) in enumerate(zip(workload.solves, configs)):
        t0 = time.perf_counter()
        try:
            res = solve_fn(i, problems[s.key], config, s.mechanism)
        except Exception as e:   # a raising solve is a failed solve
            res = e
        rows.append((s, res, time.perf_counter() - t0))
    return rows


def measure(seconds, one):
    """Call one() at least once, and again while a call of average length
    would still end within `seconds`."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(one())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def solved(rows):
    return [r for _, r, _ in rows if not isinstance(r, BaseException)]


def end_to_end(passes, setup_s, peak_rss_mb, counts):
    pass_s = [sum(dt for _, _, dt in rows) for rows in passes]
    tr_s = [sum(dt for s, _, dt in rows if s.mechanism == "trust-region")
            for rows in passes]
    ls_s = [sum(dt for s, _, dt in rows if s.mechanism == "line-search")
            for rows in passes]
    tail_s, pct, above = tail(pass_s)
    n = len(passes)
    metrics = {
        "tr_s": statistics.median(tr_s), "ls_s": statistics.median(ls_s),
        "pass_s_tail": tail_s, "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "outer_iters": counts[0][0], "inner_trials": counts[0][1],
    }
    notes = {
        "tr_s": f"median of {n} passes", "ls_s": f"median of {n} passes",
        "pass_s_tail": f"p{pct:.0f} of {n} passes, {above} above it",
        "setup_s": f"median of {SETUP_WINDOWS} windows of repeated builds",
        "peak_rss_mb": "whole process",
        "outer_iters": "per pass", "inner_trials": "per pass",
    }
    return metrics, notes


def per_layer(layers, tracer, pairs, setup_spans):
    per_pass = [layers.layer_metrics(tracer.spans, first, stop,
                                     sum(len(r.iterations) - 1
                                         for r in solved(rows)))
                for _, rows, first, stop in pairs]
    metrics = {k: statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    metrics["dsl.load_s"] = sum(
        s[layers.END] - s[layers.START] for s in tracer.spans[:setup_spans]
        if s[layers.NAME] == "dsl.load")
    untraced_s = statistics.median(sum(dt for _, _, dt in p[0])
                                   for p in pairs)
    traced_s = statistics.median(sum(dt for _, _, dt in p[1])
                                 for p in pairs)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    note = f"per pass, median of {len(pairs)} traced passes"
    notes = {k: note for k in metrics}
    notes["dsl.load_s"] = "one traced set-up"
    notes["trace.overhead_frac"] = (f"traced / untraced pass seconds - 1,"
                                    f" {len(pairs)} pairs")
    return {k: metrics[k] for k, _ in layers.LAYER_METRICS}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "funnel_sqp" / "__init__.py").is_file():
        print(f"error: no solver sources under {SRC}; run from the root of"
              " a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import funnel_sqp
    if Path(funnel_sqp.__file__).resolve().parent != \
            (SRC / "funnel_sqp").resolve():
        print(f"error: imported funnel_sqp from {funnel_sqp.__file__}",
              file=sys.stderr)
        return 2
    from funnel_sqp import SolverConfig, get_problem, solve

    import layers
    import oracle
    from workloads import VARIANTS, WORKLOADS, solver_config

    env = environment()
    print("env: " + json.dumps(env))
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    print(f"inputs: sha256 {workload.digest()}")
    configs = [solver_config(s) for s in workload.solves]

    def plain(i, problem, config, mechanism):
        return solve(problem, config)

    # warm lazy imports and first-call paths of every variant
    for strategy, mechanism in VARIANTS:
        solve(get_problem("circle"),
              SolverConfig(strategy=strategy, mechanism=mechanism))

    setup_s = time_setup(workload)
    problems = workload.setup()
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = {k: tracer.wrap_problem(p)
                      for k, p in workload.setup().items()}
            setup_spans = len(tracer.spans)

            def traced_solve(i, problem, config, mechanism):
                return tracer.solve(i, solve, problem, config, mechanism)

            def pair():
                untraced = run_pass(workload, problems, configs, plain)
                first = len(tracer.spans)
                rows = run_pass(workload, traced, configs, traced_solve)
                return untraced, rows, first, len(tracer.spans)
            pairs = measure(args.seconds, pair)
        finally:
            tracer.uninstall()
        passes = [p[0] for p in pairs] + [p[1] for p in pairs]
    else:
        passes = measure(args.seconds,
                         lambda: run_pass(workload, problems, configs, plain))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for rows in passes:
        for s, res, _ in rows:
            why = oracle.check(problems[s.key], res, s.expected)
            if why:
                failures.append(f"{s.key} {s.strategy}/{s.mechanism}: {why}")
    checks = workload.extra_checks(problems, passes[0])
    counts = [(sum(r.n_outer for r in solved(rows)),
               sum(len(r.iterations) - 1 for r in solved(rows)))
              for rows in passes]
    if len(set(counts)) != 1:
        checks.append(f"outer/inner counts differ between passes: {counts}")
    for line in failures[:20] + checks:
        print("FAIL " + line, file=sys.stderr)

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes"
          f" of {len(workload.solves)} solves, closed loop, one process")
    if args.trace:
        metrics, notes = per_layer(layers, tracer, pairs, setup_spans)
        units = dict(layers.LAYER_METRICS)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(out, {"workload": workload.name, "seed": args.seed,
                           "passes": [[a, b] for _, _, a, b in pairs],
                           "env": env})
        print(f"spans: {len(tracer.spans)} written to"
              f" {out.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(passes, setup_s, peak_rss_mb, counts)
        units = dict(END_TO_END)
    attempted = sum(len(rows) for rows in passes)
    failed = len(failures)
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {units[name]:6s} {notes[name]}")
    print(f"{'failed_frac':30s} {failed / attempted:14.6g} {'ratio':6s}"
          f" {failed} of {attempted} solves")
    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
