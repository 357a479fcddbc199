"""scripts/trace_digest.py --parse: one digest per model source, over its
parsed model and its tokens, in a fixed source order; and --passes, the
tape's forward passes per order."""

import hashlib
import importlib.util
import itertools
from pathlib import Path

from funnel_sqp import SolverConfig, solve, tape
from funnel_sqp.dsl import load_source

_spec = importlib.util.spec_from_file_location(
    "trace_digest",
    Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py")
trace_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_digest)


def _sha(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def test_parse_mode_prints_every_source(capsys):
    trace_digest.main(["--parse"])
    lines = capsys.readouterr().out.splitlines()
    sources = list(trace_digest.sources())
    assert len(lines) == len(sources) == 338
    assert [line.split("  ")[1] for line in lines] == \
        [label for label, _ in sources]
    for line, (_, text) in zip(lines, sources):
        assert line.split("  ")[0] == trace_digest.parsed(text)
    # every malformed source is rejected, each with its own digest
    malformed = [line.split("  ")[0] for line in lines
                 if "malformed" in line]
    assert len(set(malformed)) == len(trace_digest.MALFORMED) == 24


def test_model_digest():
    text = "var x in [0, inf];\nminimize -x ^ 2;"
    assert trace_digest.parsed(text) == _sha([
        "model", repr(("x", 0.0, float("inf"), 0.0)), "U- B^ Vx N2.0",
        repr(("ident", "var", 1, 1)), repr(("ident", "x", 1, 5)),
        repr(("ident", "in", 1, 7)), repr(("[", "[", 1, 10)),
        repr(("num", "0", 1, 11)), repr((",", ",", 1, 12)),
        repr(("ident", "inf", 1, 14)), repr(("]", "]", 1, 17)),
        repr((";", ";", 1, 18)), repr(("ident", "minimize", 2, 1)),
        repr(("-", "-", 2, 10)), repr(("ident", "x", 2, 11)),
        repr(("^", "^", 2, 13)), repr(("num", "2", 2, 15)),
        repr((";", ";", 2, 16)), repr(("eof", "", 2, 17))])


def test_error_digest():
    # the parser and the tokenizer each report the error, with its position
    error = ("ParseError: line 2, column 3: unexpected character '@'  2:3")
    assert trace_digest.parsed("var x;\n  @") == _sha([error, error])
    undeclared = "UndeclaredVariable: line 1, column 10: " \
                 "undeclared variable 'y'  1:10"
    assert trace_digest.parsed("minimize y") == _sha([
        undeclared, repr(("ident", "minimize", 1, 1)),
        repr(("ident", "y", 1, 10)), repr(("eof", "", 1, 11))])


def test_passes_mode_counts_forward_passes_by_order(monkeypatch, capsys):
    forward = tape.forward
    chain = trace_digest.chain
    x0 = chain.start_point(24, 0)
    made = {"dsl-chain-24": lambda: load_source(chain.nco_text(x0)),
            "analytic-chain-24": lambda: chain.analytic_problem(x0)}
    monkeypatch.setattr(trace_digest, "problems", lambda: (
        (label, make, None) for label, make in made.items()))
    trace_digest.main(["--passes"])
    assert tape.forward is forward      # main() put the original back
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(trace_digest.VARIANTS)
    for line, (label, (strategy, mechanism)) in zip(
            lines, itertools.product(made, trace_digest.VARIANTS)):
        *counts, rest = line.split("  ")
        assert rest == f"{label} {strategy} {mechanism}"
        got = [int(c.split("=")[1]) for c in counts]
        if label.startswith("analytic"):
            assert got == [0, 0, 0]     # numpy callables, no tape
            continue
        res = solve(made[label](), SolverConfig(strategy=strategy,
                                                mechanism=mechanism))
        n_f, n_grad = res.counters.n_f, res.counters.n_grad_f
        # the objective's two groups and the rows' three run per f and c;
        # each gradient evaluation runs the four nonlinear groups at order
        # 2 and the rows' linear 2 * x group at order 1, and no Hessian
        # runs a pass of its own
        assert res.counters.n_hess > 0
        assert got == [5 * n_f, n_grad, 4 * n_grad]
