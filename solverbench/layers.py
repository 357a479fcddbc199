"""Per-layer spans recorded from outside the solver.

`Tracer.install()` replaces the public entry points of each layer with
wrappers that record a span (name, start, end, parent span, solve id, info)
and `uninstall()` puts the originals back. The evaluator callables of a
problem are wrapped through `dataclasses.replace`, so the solver code is
never edited. Spans stay in memory until `write()`.

Layer boundaries (module names of src/funnel_sqp):

    driver        the benchmark's call into solve()
    mechanisms    TrustRegionMechanism.run, LineSearchMechanism.run
    strategies    FunnelStrategy.decide, FilterStrategy.decide
    subproblems   DirectionEngine.compute, convexify
    qp            solve_qp as called from subproblems
    linalg        ldlt_factorize (from subproblems), nullspace_basis (from qp)
    problems      the NcoProblem evaluator callables
    hyperdual     hessian, gradient
    dsl           load_source
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import time

import numpy as np

from funnel_sqp import dsl, hyperdual, mechanisms, qp, strategies, subproblems

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("problems.fc_calls", "count"), ("problems.fc_s", "s"),
    ("problems.grad_calls", "count"), ("problems.grad_s", "s"),
    ("problems.hess_calls", "count"), ("problems.hess_s", "s"),
    ("problems.deriv_share", "ratio"),
    ("hyperdual.hessian_calls", "count"), ("hyperdual.hessian_s", "s"),
    ("hyperdual.gradient_s", "s"),
    ("dsl.load_s", "s"),
    ("qp.probe_calls", "count"), ("qp.probe_s", "s"),
    ("qp.probe_pivots", "count"),
    ("qp.probe_calls_tr", "count"), ("qp.probe_share_ls", "ratio"),
    ("qp.optimality_calls", "count"), ("qp.optimality_s", "s"),
    ("qp.optimality_pivots", "count"),
    ("qp.elastic_calls", "count"), ("qp.elastic_s", "s"),
    ("qp.elastic_pivots", "count"),
    ("qp.infeasible_frac", "ratio"),
    ("linalg.nullspace_calls", "count"), ("linalg.nullspace_s", "s"),
    ("linalg.ldlt_calls", "count"), ("linalg.ldlt_s", "s"),
    ("subproblems.compute_calls", "count"), ("subproblems.compute_s", "s"),
    ("subproblems.self_s", "s"),
    ("subproblems.convexify_calls", "count"),
    ("subproblems.convexify_s", "s"),
    ("subproblems.eta_tries", "ratio"),
    ("subproblems.restoration_frac", "ratio"),
    ("strategies.decide_calls", "count"), ("strategies.decide_s", "s"),
    ("strategies.accept_frac", "ratio"),
    ("mechanisms.run_calls", "count"), ("mechanisms.self_s", "s"),
    ("mechanisms.trials_per_run", "ratio"),
    ("driver.solve_s", "s"), ("driver.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

NAME, START, END, PARENT, SOLVE, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.solve_id = -1
        self.problem_n = 0

    # -- spans --

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.solve_id, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, info=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[INFO] = info
        self._stack.pop()

    def _wrap(self, name: str, fn, info=None):
        """fn inside a span; info(result) is stored with it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._close(idx, info(out) if info and out is not None
                            else None)
        return wrapper

    def _wrap_qp(self, fn):
        """solve_qp, classified from its arguments: more variables than the
        problem is the elastic QP; zero W and g with neither a feasible nor
        a warm start is the line-search phase-1 probe; the rest optimality."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            data = a["qp"]
            if data.n > self.problem_n:
                kind = "elastic"
            elif (a.get("feasible_start") is None
                  and a.get("warm_start") is None
                  and not np.any(data.W) and not np.any(data.g)):
                kind = "probe"
            else:
                kind = "optimality"
            idx = self._open("qp.solve")
            sol = None
            try:
                sol = fn(*args, **kwargs)
                return sol
            finally:
                self._close(idx, None if sol is None else
                            (kind, sol.n_pivots, sol.status == "infeasible"))
        return wrapper

    def solve(self, solve_id: int, fn, problem, config, mechanism: str):
        """fn(problem, config) as one driver span tagged with the mechanism."""
        self.solve_id = solve_id
        self.problem_n = problem.n
        idx = self._open("driver.solve")
        try:
            return fn(problem, config)
        finally:
            self._close(idx, mechanism)

    # -- wrappers --

    def _patch(self, owner, attr: str, wrapper):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self):
        P = subproblems.Phase
        for cls in (mechanisms.TrustRegionMechanism,
                    mechanisms.LineSearchMechanism):
            self._patch(cls, "run",
                        lambda f: self._wrap("mechanisms.run", f))
        for cls in (strategies.FunnelStrategy, strategies.FilterStrategy):
            self._patch(cls, "decide", lambda f: self._wrap(
                "strategies.decide", f, lambda v: v.accepted))
        self._patch(subproblems.DirectionEngine, "compute",
                    lambda f: self._wrap("subproblems.compute", f,
                                         lambda d: d.phase is P.RESTORATION))
        self._patch(subproblems, "convexify",
                    lambda f: self._wrap("subproblems.convexify", f))
        self._patch(subproblems, "ldlt_factorize",
                    lambda f: self._wrap("linalg.ldlt", f))
        self._patch(subproblems, "solve_qp", self._wrap_qp)
        self._patch(qp, "nullspace_basis",
                    lambda f: self._wrap("linalg.nullspace", f))
        self._patch(hyperdual, "hessian",
                    lambda f: self._wrap("hyperdual.hessian", f))
        self._patch(hyperdual, "gradient",
                    lambda f: self._wrap("hyperdual.gradient", f))
        self._patch(dsl, "load_source",
                    lambda f: self._wrap("dsl.load", f))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_problem(self, problem):
        """A copy of problem whose evaluator callables record spans."""
        w = self._wrap
        return dataclasses.replace(
            problem,
            f=w("problems.fc", problem.f), c=w("problems.fc", problem.c),
            grad_f=w("problems.grad", problem.grad_f),
            jac_c=w("problems.grad", problem.jac_c),
            hess_f=w("problems.hess", problem.hess_f),
            hess_c=w("problems.hess", problem.hess_c))

    def write(self, path, meta: dict):
        """One JSON header line, then one [name, start, end, parent, solve,
        info] array per span."""
        with open(path, "w") as out:
            out.write(json.dumps(meta) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, start: int, stop: int, trials: int) -> dict:
    """Per-layer metrics over spans[start:stop], one traced pass.

    trials is the number of trial points the pass's solves recorded.
    """
    child_time: dict[int, float] = {}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i in range(start, stop):
        s = spans[i]
        if s[PARENT] >= start:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) \
                + s[END] - s[START]
    mech = {}
    qp_calls = {"probe": 0, "optimality": 0, "elastic": 0}
    qp_s = dict.fromkeys(qp_calls, 0.0)
    qp_piv = dict.fromkeys(qp_calls, 0)
    qp_infeasible = 0
    probe_tr = 0
    probe_ls_s = 0.0
    accepted = restoration = eta_tries = 0
    for i in range(start, stop):
        s = spans[i]
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(i, 0.0)
        if name == "driver.solve":
            mech[s[SOLVE]] = s[INFO]
        elif name == "strategies.decide":
            accepted += bool(s[INFO])
        elif name == "subproblems.compute":
            restoration += bool(s[INFO])
        elif name == "linalg.ldlt" and s[PARENT] >= start \
                and spans[s[PARENT]][NAME] == "subproblems.convexify":
            eta_tries += 1
    for i in range(start, stop):
        s = spans[i]
        if s[NAME] != "qp.solve" or s[INFO] is None:
            continue
        kind, pivots, infeasible = s[INFO]
        dur = s[END] - s[START]
        qp_calls[kind] += 1
        qp_s[kind] += dur
        qp_piv[kind] += pivots
        qp_infeasible += infeasible
        if kind == "probe":
            if mech.get(s[SOLVE]) == "trust-region":
                probe_tr += 1
            else:
                probe_ls_s += dur
    ls_solve_s = sum(spans[i][END] - spans[i][START]
                     for i in range(start, stop)
                     if spans[i][NAME] == "driver.solve"
                     and spans[i][INFO] == "line-search")

    def ratio(a, b):
        return a / b if b else 0.0

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    out = {
        "problems.fc_calls": c("problems.fc"), "problems.fc_s": t("problems.fc"),
        "problems.grad_calls": c("problems.grad"),
        "problems.grad_s": t("problems.grad"),
        "problems.hess_calls": c("problems.hess"),
        "problems.hess_s": t("problems.hess"),
        "problems.deriv_share": ratio(t("problems.hess") + t("problems.grad"),
                                      t("driver.solve")),
        "hyperdual.hessian_calls": c("hyperdual.hessian"),
        "hyperdual.hessian_s": t("hyperdual.hessian"),
        "hyperdual.gradient_s": t("hyperdual.gradient"),
        "qp.probe_calls_tr": probe_tr,
        "qp.probe_share_ls": ratio(probe_ls_s, ls_solve_s),
        "qp.infeasible_frac": ratio(qp_infeasible, c("qp.solve")),
        "linalg.nullspace_calls": c("linalg.nullspace"),
        "linalg.nullspace_s": t("linalg.nullspace"),
        "linalg.ldlt_calls": c("linalg.ldlt"), "linalg.ldlt_s": t("linalg.ldlt"),
        "subproblems.compute_calls": c("subproblems.compute"),
        "subproblems.compute_s": t("subproblems.compute"),
        "subproblems.self_s": self_s.get("subproblems.compute", 0.0),
        "subproblems.convexify_calls": c("subproblems.convexify"),
        "subproblems.convexify_s": t("subproblems.convexify"),
        "subproblems.eta_tries": ratio(eta_tries, c("subproblems.convexify")),
        "subproblems.restoration_frac": ratio(restoration,
                                              c("subproblems.compute")),
        "strategies.decide_calls": c("strategies.decide"),
        "strategies.decide_s": t("strategies.decide"),
        "strategies.accept_frac": ratio(accepted, c("strategies.decide")),
        "mechanisms.run_calls": c("mechanisms.run"),
        "mechanisms.self_s": self_s.get("mechanisms.run", 0.0),
        "mechanisms.trials_per_run": ratio(trials, c("mechanisms.run")),
        "driver.solve_s": t("driver.solve"),
        "driver.self_s": self_s.get("driver.solve", 0.0),
    }
    for kind in qp_calls:
        out[f"qp.{kind}_calls"] = qp_calls[kind]
        out[f"qp.{kind}_s"] = qp_s[kind]
        out[f"qp.{kind}_pivots"] = qp_piv[kind]
    return out
