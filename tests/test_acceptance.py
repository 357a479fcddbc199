"""End-to-end gate: ten checks, one verdict line each.

Run with -s to see every verdict line:

    python3 -m pytest tests/test_acceptance.py -s
"""

import contextlib
import csv
import itertools
import time
import types

import numpy as np
import pytest

import funnel_sqp.driver as driver_mod
from conftest import (bench_chain, enumerate_qp_optimum, fd_gradient,
                      fd_hessian, grid_qp_minimum, random_quadratic_problem,
                      two_sig)
from funnel_sqp.cli import CSV_FIELDS, main
from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import load_source
from funnel_sqp.problems import get_problem, problem_names
from funnel_sqp.qp import QpData, qp_objective, solve_qp
from funnel_sqp.strategies import (LABEL_H_TYPE, FilterStrategy,
                                   FunnelStrategy, StepVerdict)
from funnel_sqp.subproblems import Phase

COMBOS = list(itertools.product(("funnel", "filter"),
                                ("trust-region", "line-search")))


@contextlib.contextmanager
def verdict(line):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {line}")
        raise
    print(f"[PASS] {line}")


def _config(strategy="funnel", mechanism="trust-region", **kw):
    return SolverConfig(strategy=strategy, mechanism=mechanism,
                        **kw).validated()


# columns: k, l, radius, |d|, f, h, label
TR_ROWS = [
    (0, None, 10.0, None, -0.7071068, 5.28e-10, "initial point"),
    (1, 1, 10.0, 0.5, -0.2071068, 0.5, "rejected (Armijo)"),
    (None, 2, 0.25, 0.25, -0.7071068, 0.125, "rejected (Armijo)"),
    (None, 3, 0.125, 0.125, -0.7696068, 3.12e-02, "f-type step"),
    (2, 1, 0.25, 0.25, -0.8144768, 8.69e-02, "f-type step"),
    (3, 1, 0.5, 2.72e-01, -0.8834735, 7.60e-02, "f-type step"),
    (4, 1, 0.5, 6.30e-02, -0.9924060, 5.06e-03, "f-type step"),
    (5, 1, 0.5, 2.55e-03, -0.9999807, 1.28e-05, "f-type step"),
    (6, 1, 0.5, 9.77e-06, -1.0, 1.37e-10, "eps-optimal"),
]

# columns: k, l, alpha, reg, |alpha d|, f, h, label
LS_ROWS = [
    (0, None, None, None, None, -0.7071068, 5.28e-10, "initial point"),
    (1, 1, 1.0, 1e-4, 0.5, -0.2072568, 0.5, "rejected (Armijo)"),
    (None, 2, 0.5, None, 0.25, -0.7071318, 0.125, "f-type step"),
    (2, 1, 1.0, 1e-4, 4.81e-01, -0.6047698, 2.58e-01, "rejected (Armijo)"),
    (None, 2, 0.5, None, 2.40e-01, -0.7851383, 1.27e-01, "f-type step"),
    (3, 1, 1.0, 1e-4, 2.40e-01, -0.9125416, 5.79e-02, "f-type step"),
    (4, 1, 1.0, 1e-4, 2.76e-02, -0.9979745, 1.35e-03, "f-type step"),
    (5, 1, 1.0, 1e-4, 6.74e-04, -0.9999987, 8.86e-07, "f-type step"),
    (6, 1, 1.0, 1e-4, 8.65e-07, -1.0, 9.44e-13, "eps-optimal"),
]


def _funnel_recorder():
    class Rec(FunnelStrategy):
        runs = []

        def __init__(self, *args):
            super().__init__(*args)
            Rec.runs.append({"decides": [], "commits": []})

        def decide(self, trial):
            tau = self.tau
            v = super().decide(trial)
            assert self.tau == tau
            Rec.runs[-1]["decides"].append((tau, trial, v))
            return v

        def commit(self, v):
            tau = self.tau
            super().commit(v)
            Rec.runs[-1]["commits"].append((tau, self.tau))
    return Rec


def _filter_snapshot(strategy):
    return types.SimpleNamespace(entries=list(strategy.entries),
                                 h_max=strategy.h_max)


def _filter_recorder():
    class Rec(FilterStrategy):
        runs = []

        def __init__(self, *args):
            super().__init__(*args)
            Rec.runs.append([])

        def commit(self, v):
            pre = _filter_snapshot(self)
            super().commit(v)
            Rec.runs[-1].append((pre, v, _filter_snapshot(self)))
    return Rec


def _check_funnel_run(run, p):
    taus = [tau for tau, _, _ in run["decides"]]
    assert all(b <= a for a, b in zip(taus, taus[1:]))
    for pre, post in run["commits"]:
        assert post <= pre
    for tau, trial, v in run["decides"]:
        if not v.accepted:
            continue
        if trial.phase is Phase.OPTIMALITY and v.step_type != "kkt-zero":
            assert trial.h_t <= tau
        if v.step_type == "h-type":
            assert v.new_tau == (1.0 - p.kappa) * trial.h_t + p.kappa * tau
            # one rounding step of slack on the contraction bound
            assert v.new_tau <= p.theta * tau * (1.0 + 1e-12)
        if v.step_type == "f-type":
            m = trial.models
            assert m.pred_f >= p.delta * trial.h_k ** 2
            assert trial.f_k - trial.f_t >= p.sigma * trial.alpha * m.pred_f


def _check_filter_commit(pre, v, post, p):
    """Invariants after one commit; returns 1 when an entry was evicted."""
    assert len(post.entries) <= p.capacity
    for i, (hp, fp) in enumerate(post.entries):
        assert hp <= post.h_max
        for j, (hq, fq) in enumerate(post.entries):
            if i != j:
                assert not (hp <= hq and fp <= fq)
    if not (v.accepted and v.filter_add is not None):
        assert post.entries == pre.entries and post.h_max == pre.h_max
        return 0
    hk, fk = v.filter_add
    kept = [(hp, fp) for hp, fp in pre.entries
            if not (hk <= hp and fk <= fp)]
    kept.append((hk, fk))
    if len(kept) > p.capacity:
        worst = max(range(len(kept)), key=lambda i: kept[i][0])
        assert post.h_max == kept[worst][0]
        assert post.entries == kept[:worst] + kept[worst + 1:]
        return 1
    assert post.h_max == pre.h_max
    assert post.entries == kept
    return 0


class TestGate:
    def test_01_trust_region_reference_trace(self):
        with verdict("01 trust-region trace on the curved-penalty problem"):
            t0 = time.perf_counter()
            res = solve(get_problem("maratos-fletcher"), _config())
            elapsed = time.perf_counter() - t0
            assert res.status == "kkt_point"
            assert res.n_outer == 6
            assert len(res.iterations) == len(TR_ROWS)
            deltas = [10.0, 0.25, 0.125, 0.25, 0.5, 0.5, 0.5, 0.5]
            for rec, (k, l, delta, dn, f, h, label) in zip(
                    res.iterations, TR_ROWS):
                assert rec.k == k and rec.l == l and rec.label == label
                assert rec.delta == pytest.approx(delta, rel=1e-9)
                assert two_sig(rec.f_trial, f) and two_sig(rec.h_trial, h)
                if dn is not None:
                    assert two_sig(rec.step_norm, dn)
            for rec, delta in zip(res.iterations[1:], deltas):
                assert rec.delta == pytest.approx(delta, rel=1e-9)
            assert elapsed < 1.0

    def test_02_line_search_reference_trace(self):
        with verdict("02 line-search trace on the curved-penalty problem"):
            t0 = time.perf_counter()
            res = solve(get_problem("maratos-fletcher"),
                        _config(mechanism="line-search"))
            elapsed = time.perf_counter() - t0
            assert res.status == "kkt_point"
            assert res.n_outer == 6
            assert len(res.iterations) == len(LS_ROWS)
            for rec, (k, l, alpha, reg, dn, f, h, label) in zip(
                    res.iterations, LS_ROWS):
                assert rec.k == k and rec.l == l and rec.label == label
                assert rec.alpha == alpha
                assert rec.regularization == reg
                assert two_sig(rec.f_trial, f) and two_sig(rec.h_trial, h)
                if dn is not None:
                    assert two_sig(rec.step_norm, dn)
            # full steps bounce off the curved constraint twice before the
            # halved step lands
            for i in (1, 3):
                assert res.iterations[i].alpha == 1.0
                assert res.iterations[i].label == "rejected (Armijo)"
                assert res.iterations[i + 1].alpha == 0.5
                assert res.iterations[i + 1].label == "f-type step"
            assert res.iterations[-1].grad_lag <= 1e-9
            assert elapsed < 1.0

    def test_03_badly_scaled_convergence(self, monkeypatch):
        with verdict("03 badly scaled pair lands within 1% of its solution"):
            Rec = _funnel_recorder()
            monkeypatch.setattr(driver_mod, "FunnelStrategy", Rec)
            res = solve(get_problem("powellbs"), _config())
            assert res.status == "kkt_point"
            assert abs(res.x[0] - 1.1e-5) <= 0.01 * 1.1e-5
            assert abs(res.x[1] - 9.1) <= 0.01 * 9.1
            assert res.h <= 1e-6
            p = _config().funnel
            ratios = [v.new_tau / tau
                      for tau, _, v in Rec.runs[-1]["decides"]
                      if v.accepted and v.step_type == "h-type"]
            assert ratios
            assert all(r <= p.theta * (1.0 + 1e-12) for r in ratios)

    def test_04_funnel_invariants(self, monkeypatch):
        with verdict("04 funnel invariants hold across every recorded run"):
            Rec = _funnel_recorder()
            monkeypatch.setattr(driver_mod, "FunnelStrategy", Rec)
            p = _config().funnel
            for name in problem_names():
                for mech in ("trust-region", "line-search"):
                    solve(get_problem(name), _config(mechanism=mech))
            rng = np.random.default_rng(424242)
            for i in range(50):
                prob = random_quadratic_problem(rng)
                mech = ("trust-region", "line-search")[i % 2]
                solve(prob, _config(mechanism=mech, max_outer=300))
            assert len(Rec.runs) == 2 * len(problem_names()) + 50
            kinds = set()
            for run in Rec.runs:
                _check_funnel_run(run, p)
                kinds |= {v.step_type for _, _, v in run["decides"]
                          if v.accepted}
            assert {"f-type", "h-type", "restoration"} <= kinds

    def test_05_filter_invariants(self, monkeypatch):
        with verdict("05 filter invariants hold across runs and a crafted "
                     "commit stream"):
            Rec = _filter_recorder()
            monkeypatch.setattr(driver_mod, "FilterStrategy", Rec)
            p = _config(strategy="filter").filter
            for name in problem_names():
                for mech in ("trust-region", "line-search"):
                    solve(get_problem(name),
                          _config(strategy="filter", mechanism=mech))
            rng = np.random.default_rng(535353)
            for i in range(50):
                prob = random_quadratic_problem(rng)
                mech = ("trust-region", "line-search")[i % 2]
                solve(prob, _config(strategy="filter", mechanism=mech,
                                    max_outer=300))
            adds = 0
            for run in Rec.runs:
                for pre, v, post in run:
                    _check_filter_commit(pre, v, post, p)
                    adds += bool(v.accepted and v.filter_add is not None)
            assert adds > 0

            # converging runs add pairs that dominate their predecessors, so
            # the cap never binds there; a trade-off curve of gated entries
            # drives occupancy through it
            strat = FilterStrategy(p, 95.0)
            evictions = 0
            h = 90.0
            for i in range(p.capacity + 10):
                assert strat.acceptable(h, 10.0 + i)
                v = StepVerdict(True, LABEL_H_TYPE, step_type="h-type",
                                filter_add=(h, 10.0 + i))
                pre = _filter_snapshot(strat)
                strat.commit(v)
                evictions += _check_filter_commit(pre, v, strat, p)
                h *= 0.9
            assert evictions == 10
            assert len(strat.entries) == p.capacity

    def test_06_qp_oracle_batteries(self):
        with verdict("06 QP solver matches enumeration and beats the grid"):
            t0 = time.perf_counter()
            rng = np.random.default_rng(601)
            for _ in range(200):
                n = int(rng.integers(1, 6))
                m = int(rng.integers(0, 3))
                M = rng.standard_normal((n, n))
                W = M @ M.T + 0.3 * np.eye(n)
                g = rng.standard_normal(n) * 2.0
                lb = rng.uniform(-4.0, -0.5, size=n)
                ub = rng.uniform(0.5, 4.0, size=n)
                A = rng.standard_normal((n, m))
                b = A.T @ rng.uniform(lb, ub) if m else np.zeros(0)
                qp = QpData(W=W, g=g, A=A, b=b, lb=lb, ub=ub)
                sol = solve_qp(qp)
                assert sol.status == "optimal"
                ref, _ = enumerate_qp_optimum(W, g, A, b, lb, ub)
                assert abs(qp_objective(qp, sol.x) - ref) <= 1e-8
            rng = np.random.default_rng(602)
            for _ in range(100):
                n = int(rng.integers(1, 5))
                W = rng.standard_normal((n, n))
                W = 0.5 * (W + W.T)
                g = rng.standard_normal(n)
                lb = rng.uniform(-3.0, -0.5, size=n)
                ub = rng.uniform(0.5, 3.0, size=n)
                qp = QpData(W=W, g=g, A=np.zeros((n, 0)), b=np.zeros(0),
                            lb=lb, ub=ub)
                sol = solve_qp(qp)
                assert sol.status == "optimal"
                assert qp_objective(qp, sol.x) <= \
                    grid_qp_minimum(W, g, lb, ub) + 1e-6
            assert time.perf_counter() - t0 < 30.0

    def test_07_derivative_checks(self):
        with verdict("07 closed-form and automatic derivatives match "
                     "finite differences, and the weighted Lagrangian "
                     "Hessian the per-function ones"):
            rng = np.random.default_rng(7007)
            problems = [get_problem(name) for name in problem_names()]
            for i in range(20):
                src = _random_model_source(rng)
                problems.append(load_source(src, name=f"fuzz-{i}"))
            weights = np.random.default_rng(7008)
            for problem in problems:
                for _ in range(100):
                    x = rng.uniform(-2.0, 2.0, size=problem.n)
                    _check_derivatives_at(problem, x)
                    _check_lagrangian_hessian_at(problem, x, weights)
            # the chain's 11 constraint rows share their op lists, so its
            # tape groups span rows with different multipliers
            chain = bench_chain()
            problem = load_source(chain.nco_text(chain.start_point(24, 0)))
            for _ in range(20):
                x = weights.uniform(-2.0, 2.0, size=problem.n)
                _check_lagrangian_hessian_at(problem, x, weights)

    def test_08_restoration_pathway(self, monkeypatch):
        with verdict("08 infeasible subproblem routes through restoration "
                     "and back"):
            Rec = _funnel_recorder()
            monkeypatch.setattr(driver_mod, "FunnelStrategy", Rec)
            res = solve(get_problem("line-circle"), _config())
            assert res.status == "kkt_point"
            entry = res.events[0]
            assert entry["type"] == "restoration_entry"
            assert entry["lambda_reset"] is True
            assert "x_resto" in entry and "h_resto" in entry
            assert res.step_counts["restoration"] >= 1
            p = _config().funnel
            resto = [(tau, t, v) for tau, t, v in Rec.runs[-1]["decides"]
                     if v.accepted and v.step_type == "restoration"]
            assert resto
            for _, t, v in resto:
                assert t.h_k - t.h_t >= p.sigma * t.alpha * t.models.pred_h
            exits = [e for e in res.events
                     if e["type"] == "restoration_exit"]
            assert len(exits) == 1
            ev = exits[0]
            assert ev["h_trial"] <= p.beta * min(ev["tau_before"],
                                                 ev["h_resto"])
            assert ev["tau_after"] < ev["tau_before"]

    def test_09_termination_kinds(self):
        with verdict("09 stationary-infeasible, unbounded and optimal ends "
                     "are told apart"):
            for strategy, mech in COMBOS:
                res = solve(get_problem("infeasible-quadratic"),
                            _config(strategy=strategy, mechanism=mech))
                assert res.status == "infeasible_stationary"
            for mech in ("trust-region", "line-search"):
                res = solve(get_problem("unbounded-cubic"),
                            _config(mechanism=mech))
                assert res.status == "unbounded"
            xs = []
            for strategy, mech in COMBOS:
                res = solve(get_problem("circle"),
                            _config(strategy=strategy, mechanism=mech))
                assert res.status == "kkt_point"
                xs.append(res.x)
            worst = max(float(np.max(np.abs(a - b)))
                        for a in xs for b in xs)
            assert worst <= 1e-8

    def test_10_reporting_tools(self, tmp_path):
        with verdict("10 comparison and profile outputs are well formed"):
            names = problem_names()
            assert len(names) >= 10
            cmp_path = tmp_path / "compare.csv"
            assert main(["compare", "--csv", str(cmp_path)]) == 0
            with open(cmp_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert list(rows[0]) == CSV_FIELDS
            assert len(rows) == 4 * len(names)
            for row in rows:
                assert row["problem"] in names
                assert (row["strategy"], row["mechanism"]) in COMBOS
                assert row["success"] in ("0", "1")
                float(row["f"])
                assert float(row["h"]) >= 0.0
                assert int(row["n_inner"]) >= int(row["n_outer"]) >= 0
            prof_path = tmp_path / "profile.csv"
            assert main(["profile", "--csv", str(prof_path)]) == 0
            with open(prof_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert list(rows[0]) == ["solver", "alpha", "fraction"]
            solvers = {r["solver"] for r in rows}
            assert solvers == {f"{s}+{m}" for s, m in COMBOS}
            for solver in solvers:
                pts = [(float(r["alpha"]), float(r["fraction"]))
                       for r in rows if r["solver"] == solver]
                assert pts[0][0] == 1.0
                assert all(a2 >= a1 for (a1, _), (a2, _) in
                           zip(pts, pts[1:]))
                assert all(f2 >= f1 for (_, f1), (_, f2) in
                           zip(pts, pts[1:]))
                assert all(0.0 <= f <= 1.0 for _, f in pts)


def _random_model_source(rng):
    n = int(rng.integers(2, 4))
    names = ["x", "y", "z"][:n]

    def term():
        a = round(float(rng.uniform(0.3, 2.0)), 2)
        if rng.random() < 0.5:
            a = -a
        v = names[int(rng.integers(0, n))]
        w = names[int(rng.integers(0, n))]
        kind = int(rng.integers(0, 6))
        if kind == 0:
            return f"{a} * {v}"
        if kind == 1:
            return f"{a} * {v} * {w}"
        if kind == 2:
            return f"{a} * {v}^2"
        if kind == 3:
            return f"{a} * sin({v})"
        if kind == 4:
            return f"{a} * cos({v} + {w})"
        return f"{a} * exp(0.4 * {v})"

    def expr():
        return " + ".join(term() for _ in range(int(rng.integers(2, 5))))

    lines = [f"var {v} start {round(float(rng.uniform(-1.0, 1.0)), 2)};"
             for v in names]
    lines.append(f"minimize {expr()};")
    for _ in range(int(rng.integers(0, 3))):
        rhs = round(float(rng.uniform(-1.0, 1.0)), 2)
        lines.append(f"subject_to {expr()} == {rhs};")
    return "\n".join(lines)


def _check_lagrangian_hessian_at(problem, x, rng):
    """hess_lag at rho in {0, 1, U(0, 2)} and a lam with some zero entries
    is rho * hess_f - sum_j lam_j * hess_c[j] to rounding."""
    rho = [0.0, 1.0, float(rng.uniform(0.0, 2.0))][int(rng.integers(3))]
    lam = rng.uniform(-2.0, 2.0, problem.m) * (rng.random(problem.m) < 0.6)
    terms = [rho * problem.hess_f(x)] + [
        -lam[j] * H for j, H in enumerate(problem.hess_c(x))]
    want = np.sum(terms, axis=0)
    scale = sum(np.max(np.abs(t)) for t in terms)
    got = problem.hess_lag(x, rho, lam)
    assert got.shape == (problem.n, problem.n)
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + scale)


def _check_derivatives_at(problem, x):
    g = problem.grad_f(x)
    fd = fd_gradient(problem.f, x)
    assert np.max(np.abs(fd - g)) <= 1e-6 * (1.0 + np.max(np.abs(g)))
    H = problem.hess_f(x)
    fdh = fd_hessian(problem.f, x)
    assert np.max(np.abs(fdh - H)) <= 1e-5 * (1.0 + np.max(np.abs(H)))
    if problem.m == 0:
        return
    J = problem.jac_c(x)
    Hc = problem.hess_c(x)
    for j in range(problem.m):
        def cj(z, j=j):
            return float(problem.c(z)[j])
        fdg = fd_gradient(cj, x)
        assert np.max(np.abs(fdg - J[:, j])) <= \
            1e-6 * (1.0 + np.max(np.abs(J[:, j])))
        fdH = fd_hessian(cj, x)
        assert np.max(np.abs(fdH - Hc[j])) <= \
            1e-5 * (1.0 + np.max(np.abs(Hc[j])))
