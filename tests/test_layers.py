"""The benchmark's per-layer mode (solverbench/run.py --trace 1) reads the
solver through the names solverbench/layers.py patches. This guard installs
its tracer, runs a registry problem under each mechanism and the n=24 .nco
chain, and checks that every patched name is put back and that the QP and
linear-algebra layers are seen working: a renamed patch point, or one no
longer called through its module global, would make those metrics read 0."""

import sys
from pathlib import Path

import pytest

from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import load_source
from funnel_sqp.problems import get_problem

from conftest import bench_chain

BENCH = str(Path(__file__).resolve().parents[1] / "solverbench")


@pytest.fixture
def layers():
    sys.path.insert(0, BENCH)
    try:
        import layers
    finally:
        sys.path.remove(BENCH)
    return layers


def test_tracer_sees_every_layer_and_puts_each_name_back(layers):
    chain = bench_chain()
    nco = load_source(chain.nco_text(chain.start_point(24, 0)), "dsl-chain")
    runs = [(get_problem("hs26"), "trust-region"),
            (get_problem("hs26"), "line-search"),
            (nco, "trust-region"), (nco, "line-search")]
    tracer = layers.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, attr
        results = [tracer.solve(i, solve, tracer.wrap_problem(problem),
                                SolverConfig(mechanism=mechanism), mechanism)
                   for i, (problem, mechanism) in enumerate(runs)]
    finally:
        tracer.uninstall()
    names = {(getattr(owner, "__qualname__", owner.__name__), attr)
             for owner, attr, _ in patched}
    assert {("funnel_sqp.subproblems", "solve_qp"),
            ("funnel_sqp.subproblems", "convexify"),
            ("funnel_sqp.subproblems", "ldlt_factorize"),
            ("funnel_sqp.qp", "nullspace_basis"),
            ("FunnelStrategy", "decide"), ("FilterStrategy", "decide"),
            ("DirectionEngine", "compute"),
            ("TrustRegionMechanism", "run"),
            ("LineSearchMechanism", "run")} <= names
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
    assert [r.status for r in results] == ["kkt_point"] * 4
    trials = sum(len(r.iterations) - 1 for r in results)
    metrics = layers.layer_metrics(tracer.spans, 0, len(tracer.spans),
                                   trials)
    for name in ("qp.optimality_calls", "linalg.nullspace_calls",
                 "linalg.ldlt_calls", "subproblems.compute_calls",
                 "subproblems.convexify_calls", "strategies.decide_calls",
                 "mechanisms.run_calls", "problems.fc_calls",
                 "problems.grad_calls"):
        assert metrics[name] > 0, name
    assert metrics["qp.optimality_pivots"] >= 0
    assert metrics["driver.solve_s"] > 0.0
