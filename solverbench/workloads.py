"""The three benchmark workloads: inputs from the seed, problems, solve list.

Every workload solves its problems under all four variants
({funnel, filter} x {trust-region, line-search}). The seed fixes the inputs
and the solve order and nothing else; the solver only ever sees the built
problems.

registry-grid   every registry problem plus models/*.nco, 56 solves with
                n <= 5. Fixed per-call Python cost in driver, mechanisms,
                strategies and subproblems dominates, with the convexify
                ladder and the elastic restoration QP; all three terminal
                statuses occur. The seed only permutes the solve order.
dsl-chain       the chained Rosenbrock model at n=24 as generated .nco text,
                from the run's seeded start and from seed 0's start.
                Hyper-dual derivatives take over 90% of the solve time;
                set-up includes parsing and lowering.
analytic-chain  the same model at n=200 with numpy derivatives. The QP layer
                takes about 95%: line search re-solves a phase-1 probe LP over
                n+2m variables every outer iteration, trust region warm-starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from funnel_sqp import SolverConfig, dsl, get_problem, problem_names, solve

import chain
import oracle

VARIANTS = (("funnel", "trust-region"), ("funnel", "line-search"),
            ("filter", "trust-region"), ("filter", "line-search"))

DSL_N = 24
ANALYTIC_N = 200
# Every solve converges in under 70 outer iterations. The cap bounds a run
# when a solve stalls: line search on some chain starts never leaves
# restoration after a zero step (a known defect) and would otherwise spin
# through the default 4000 iterations.
MAX_OUTER = 100


@dataclass(frozen=True)
class Solve:
    key: str                 # which problem of the workload
    strategy: str
    mechanism: str
    expected: oracle.Expected


def solver_config(s: Solve) -> SolverConfig:
    return SolverConfig(strategy=s.strategy, mechanism=s.mechanism,
                        max_outer=MAX_OUTER)


def _permuted(solves: list, seed: int) -> list:
    order = np.random.default_rng(seed).permutation(len(solves))
    return [solves[i] for i in order]


def _digest(inputs: bytes, solves: list) -> str:
    """Hash of the generated inputs and the solve order; equal per seed."""
    order = "\n".join(f"{s.key} {s.strategy} {s.mechanism}" for s in solves)
    return hashlib.sha256(inputs + order.encode()).hexdigest()


class RegistryGrid:
    name = "registry-grid"

    def __init__(self, root: Path, seed: int):
        self.names = problem_names()
        self.model_texts = {p.stem: p.read_text()
                            for p in sorted((root / "models").glob("*.nco"))}
        solves = []
        for name in self.names:
            for strategy, mechanism in VARIANTS:
                solves.append(Solve(name, strategy, mechanism,
                                    oracle.registry_expected(name, mechanism)))
        for stem in self.model_texts:
            for strategy, mechanism in VARIANTS:
                solves.append(Solve(f"models/{stem}.nco", strategy, mechanism,
                                    oracle.MODELS.get(stem)))
        self.solves = _permuted(solves, seed)

    def digest(self) -> str:
        return _digest("".join(self.model_texts.values()).encode(),
                       self.solves)

    def setup(self) -> dict:
        problems = {name: get_problem(name) for name in self.names}
        for stem, text in self.model_texts.items():
            problems[f"models/{stem}.nco"] = dsl.load_source(text, stem)
        return problems

    def extra_checks(self, problems, first_pass) -> list[str]:
        return []


class DslChain:
    name = "dsl-chain"

    def __init__(self, root: Path, seed: int):
        # A seeded start converges in 7 or 8 outer iterations depending on
        # the seed. Every pass also solves from seed 0's start, which halves
        # that seed-to-seed swing in the work of a pass.
        self.starts = {"seeded": chain.start_point(DSL_N, seed),
                       "seed-0": chain.start_point(DSL_N, 0)}
        self.texts = {k: chain.nco_text(x0) for k, x0 in self.starts.items()}
        self.solves = _permuted([Solve(key, s, m, oracle.CHAIN)
                                 for key in self.starts
                                 for s, m in VARIANTS], seed)

    def digest(self) -> str:
        return _digest("".join(self.texts.values()).encode(), self.solves)

    def setup(self) -> dict:
        return {key: dsl.load_source(text, f"{self.name}-{key}")
                for key, text in self.texts.items()}

    def extra_checks(self, problems, first_pass) -> list[str]:
        """Same math as analytic-chain: derivatives at each start agree to
        rounding, and each variant takes as many outer iterations."""
        bad = []
        twins = {}
        for key, x0 in self.starts.items():
            if not np.array_equal(problems[key].x0, x0):
                bad.append(f"{key}: start point changed in the .nco text")
            twins[key] = chain.analytic_problem(x0)
            bad += [f"{key}: {why}" for why in
                    oracle.same_math(problems[key], twins[key], x0)]
        for s, res, _ in first_pass:
            if isinstance(res, BaseException):
                continue
            twin = solve(twins[s.key], solver_config(s))
            if twin.n_outer != res.n_outer:
                bad.append(f"{s.key} {s.strategy}/{s.mechanism}:"
                           f" {res.n_outer} outer iterations from .nco,"
                           f" {twin.n_outer} analytic")
        return bad


class AnalyticChain:
    name = "analytic-chain"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.x0 = chain.start_point(ANALYTIC_N, seed)
        self.solves = _permuted([Solve("chain", s, m, oracle.CHAIN)
                                 for s, m in VARIANTS], seed)

    def digest(self) -> str:
        return _digest(self.x0.tobytes(), self.solves)

    def setup(self) -> dict:
        return {"chain": chain.analytic_problem(self.x0)}

    def extra_checks(self, problems, first_pass) -> list[str]:
        """The analytic derivatives agree with the hyper-dual ones of the
        .nco form at the n=24 start of this seed."""
        x0 = chain.start_point(DSL_N, self.seed)
        p_dsl = dsl.load_source(chain.nco_text(x0), "same-math")
        return oracle.same_math(p_dsl, chain.analytic_problem(x0), x0)


WORKLOADS = {w.name: w for w in (RegistryGrid, DslChain, AnalyticChain)}
