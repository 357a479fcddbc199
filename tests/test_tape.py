"""Derivative tape: oracle agreement, sparsity, tracing, domain faults,
and compiled kernels against the op-list interpreter."""

import cProfile
import inspect
import linecache
import math
import operator
import pstats
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tape_interpreter
from conftest import bench_chain, unsplit_value
from funnel_sqp import format_trace, hyperdual, tape
from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import (format_expr, load_source, model_to_general,
                            parse_model)
from funnel_sqp.errors import NonFiniteValue
from funnel_sqp.hyperdual import (HyperDual, hd_cos, hd_exp, hd_log, hd_sin,
                                  hd_sqrt)
from funnel_sqp.problems import (EvalCounters, evaluate_functions,
                                 evaluate_gradients,
                                 evaluate_lagrangian_hessian,
                                 from_expressions, get_problem)
from funnel_sqp.tape import (SIN, VAR, Binary, Call, Num, Tape, TapeSet,
                             Unary, Var, _compile, _curved, trace)

NAMES = ["x0", "x1", "x2", "x3"]
VARIANTS = [("funnel", "trust-region"), ("funnel", "line-search"),
            ("filter", "trust-region"), ("filter", "line-search")]
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": operator.pow}
_FNS = {"exp": hd_exp, "log": hd_log, "sin": hd_sin, "cos": hd_cos,
        "sqrt": hd_sqrt}


def interpret(node, args, lift=float):
    """Evaluate a tree with Python operators and the hd_* helpers.

    With HyperDual args and lift=HyperDual this is the oracle; with Var args
    it is a plain Python callable, which tracing turns back into a tree.
    """
    if isinstance(node, Num):
        return lift(node.value)
    if isinstance(node, Var):
        return args[NAMES.index(node.name)]
    if isinstance(node, Unary):
        return -interpret(node.operand, args, lift)
    if isinstance(node, Call):
        return _FNS[node.fn](interpret(node.arg, args, lift))
    return _OPS[node.op](interpret(node.left, args, lift),
                         interpret(node.right, args, lift))


def oracle(tree, n, x):
    """(value, gradient, Hessian) of tree at x from scalar hyper-duals."""
    def fn(args):
        return interpret(tree, args, HyperDual)
    return (hyperdual.value(fn, x), hyperdual.gradient(fn, x),
            hyperdual.hessian(fn, x))


def nodes(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Binary):
            stack += [node.left, node.right]
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.append(node.arg)


def touched(tree) -> set:
    return {NAMES.index(v.name) for v in nodes(tree) if isinstance(v, Var)}


def powers_defined(tree, x) -> bool:
    """Every power with a varying exponent has a positive base at x.

    u ^ w is exp(w log u) there. The oracle only applies that rule when w
    has nonzero derivative parts at x, so a structurally varying exponent
    such as x - x would let it take a negative base.
    """
    env = dict(zip(NAMES, range(x.size)))
    return all(unsplit_value(node.left, env, x) > 0.0 for node in nodes(tree)
               if isinstance(node, Binary) and node.op == "^"
               and touched(node.right))


def _trees(n):
    leaf = st.one_of(
        st.builds(Num, st.sampled_from([0.5, 1.0, 2.0, 3.0, 1.5, 0.25])),
        st.sampled_from([Var(v) for v in NAMES[:n]]))

    def grow(children):
        return st.one_of(
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]),
                      children, children),
            # constant exponents, including the integers 0, 1 and 2
            st.builds(Binary, st.just("^"), children,
                      st.builds(Num, st.sampled_from(
                          [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, -1.0]))),
            # variable exponents (u ^ w = exp(w log u) on both sides)
            st.builds(Binary, st.just("^"), children, children),
            st.builds(Unary, st.just("-"), children),
            st.builds(Call, st.sampled_from(sorted(_FNS)), children))
    return st.recursive(leaf, grow, max_leaves=8)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 4))
    tree = draw(_trees(n))
    x = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=n,
                               max_size=n)))
    return n, tree, x


def _problem(tree, n):
    return from_expressions("prop", n, Tape(tree, dict(zip(NAMES, range(n)))),
                            [])


class TestOracleAgreement:
    @given(_cases())
    @settings(max_examples=150, deadline=None)
    # numpy's SIMD pow and libm's pow differ in the last bit here
    @example((1, Binary("^", Binary("^", Num(3.0), Num(-1.0)), Var("x0")),
              np.array([2.0])))
    def test_value_gradient_hessian_match_oracle(self, case):
        n, tree, x = case
        assume(powers_defined(tree, x))
        try:
            v, g, H = oracle(tree, n, x)
        except NonFiniteValue:
            assume(False)
        assume(max(abs(v), np.max(np.abs(g)), np.max(np.abs(H))) < 1e8)
        p = _problem(tree, n)
        scale = 1.0 + max(abs(v), np.max(np.abs(g)), np.max(np.abs(H)))
        assert abs(p.f(x) - v) <= 1e-12 * scale
        # summing the top-level terms repeats the tree's own additions
        assert p.f(x) == unsplit_value(tree, dict(zip(NAMES, range(n))), x)
        assert np.max(np.abs(p.grad_f(x) - g)) <= 1e-12 * scale
        assert np.max(np.abs(p.hess_f(x) - H)) <= 1e-12 * scale
        # outside the touched variables every entry is an exact zero
        free = [i for i in range(n) if i not in touched(tree)]
        assert np.all(p.grad_f(x)[free] == 0.0)
        assert np.all(p.hess_f(x)[free, :] == 0.0)
        assert np.all(p.hess_f(x)[:, free] == 0.0)

    @given(_cases())
    @settings(max_examples=100, deadline=None)
    # a constant subtree that overflows: 4 ^ 525.2 is inf in float64
    @example((1, Binary("^", Binary("+", Num(1.0), Num(3.0)),
                        Binary("^", Binary("+", Num(0.5), Num(3.0)),
                               Binary("+", Num(2.0), Num(3.0)))),
              np.array([1.0])))
    def test_traced_callable_equals_nco_model(self, case):
        n, tree, x = case
        # np.float64 constants fold a constant subtree like 1/0, (-1)^0.5
        # or 4^525 while tracing as the tape folds it: to inf or NaN
        with np.errstate(all="ignore"):
            traced = from_expressions(
                "traced", n, lambda xs: interpret(tree, xs, np.float64), [])
        text = "".join(f"var {v} start {float(xi)!r};\n" for v, xi in
                       zip(NAMES, x))
        nco = load_source(text + f"minimize {format_expr(tree)};\n")
        for name in ("f", "grad_f", "hess_f"):
            assert np.array_equal(getattr(traced, name)(x),
                                  getattr(nco, name)(x), equal_nan=True)

    def test_hessian_exactly_symmetric(self):
        p = load_source("""
            var x start 0.3; var y start -0.7; var z start 1.1;
            minimize x * y * z + exp(x) * z / (1 + y^2) + sin(y * z)^x;
        """)
        H = p.hess_f(np.array([0.3, 0.7, 1.1]))
        assert np.array_equal(H, H.T)


class TestSparsity:
    def test_constraint_cost_is_restricted(self):
        p = load_source("""
            var a; var b; var c; var d;
            minimize a^2 + b^2 + c^2 + d^2;
            subject_to b * c == 1;
        """)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        Hc = p.hess_c(x)
        assert Hc.shape == (1, 4, 4)
        expect = np.zeros((4, 4))
        expect[1, 2] = expect[2, 1] = 1.0
        assert np.array_equal(Hc[0], expect)
        assert np.array_equal(p.jac_c(x)[:, 0], [0.0, 3.0, 2.0, 0.0])

    def test_tape_touches_only_its_variables(self):
        env = {"a": 0, "b": 1, "c": 2}
        expr = Var("c") * Var("b") + Var("b")
        assert sorted(_compile(expr, env)[1]) == [1, 2]
        ts = TapeSet([Tape(expr, env)], 3, "objective")
        # the groups read b and c only, so no derivative is 3-wide
        assert {int(i) for grp in ts.groups for i in grp.index.ravel()} \
            == {1, 2}
        assert max(grp.index.shape[1] for grp in ts.groups) == 2
        x = np.array([9.0, 2.0, 3.0])
        assert np.array_equal(ts.jacobian(x)[:, 0], [0.0, 4.0, 2.0])
        H = ts.hessians(x)[0]
        assert np.array_equal(H, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                  [0.0, 1.0, 0.0]])

    def test_linear_rows_skip_hessians(self):
        ts = TapeSet([Tape(3.0 * Var("a") - Var("b") / 2.0 + 1.0,
                           {"a": 0, "b": 1})], 2, "constraint")
        assert ts.groups and not any(grp.nonlinear for grp in ts.groups)
        assert np.array_equal(ts.hessians(np.ones(2)), np.zeros((1, 2, 2)))

    def test_constant_expression(self):
        assert _compile(Num(2.0) ** Num(3.0), {}) == ([], [], 8.0)
        ts = TapeSet([Tape(Num(2.0) ** Num(3.0), {})], 0, "objective")
        assert ts.groups == [] and ts.values([])[0] == 8.0


class TestTracing:
    def test_numpy_functions_dispatch_to_nodes(self):
        t = trace(lambda x: np.exp(x[0]) + np.sqrt(x[1]) * 2, 2)
        assert t.expr == Binary("+", Call("exp", Var("x[0]")),
                                Binary("*", Call("sqrt", Var("x[1]")),
                                       Num(2.0)))

    def test_constant_callable(self):
        t = trace(lambda x: 0.0, 3)
        assert _compile(t.expr, t.env)[0] == []
        assert TapeSet([t], 3, "objective").values([1.0, 2.0, 3.0])[0] == 0.0

    def test_non_numeric_result_rejected(self):
        with pytest.raises(TypeError):
            trace(lambda x: "zero", 1)

    def test_shared_subtrees_compiled_once(self):
        def fn(x):
            s = hd_sin(x[0] * x[1])
            return s * s + s
        t = trace(fn, 2)
        assert [op[0] for op in _compile(t.expr, t.env)[0]].count(SIN) == 1
        x = np.array([0.4, 1.3])
        s = np.sin(0.52)
        assert unsplit_value(t.expr, t.env, x) == pytest.approx(s * s + s,
                                                                rel=1e-15)

    def test_nodes_are_immutable(self):
        x = Var("x")
        for node, field in [(Num(1.0), "value"), (x, "name"),
                            (Unary("-", x), "operand"),
                            (Binary("+", x, Num(2.0)), "left"),
                            (Call("exp", x), "arg")]:
            before = repr(node)
            with pytest.raises(AttributeError):
                setattr(node, field, Num(3.0))
            with pytest.raises(AttributeError):
                delattr(node, field)
            with pytest.raises(AttributeError):
                node.extra = 1
            assert repr(node) == before
        assert Binary(op="+", left=x, right=Num(2.0)) == \
            Binary("+", Var("x"), Num(2.0))

    def test_deep_expression_compiles_without_recursion(self):
        depth = 5 * sys.getrecursionlimit()
        text = "var x start 1; minimize " + " + ".join(["x"] * depth) + ";"
        p = load_source(text)
        assert p.f(np.array([1.0])) == depth
        assert p.grad_f(np.array([2.0]))[0] == depth


class TestZeroBasePower:
    """x^2 at x = 0 keeps its curvature 2 (it used to read 0)."""

    def test_tape(self):
        p = load_source("var x start 0; minimize x^2;")
        x = np.zeros(1)
        assert p.f(x) == 0.0
        assert p.grad_f(x)[0] == 0.0
        assert p.hess_f(x)[0, 0] == 2.0

    def test_oracle(self):
        assert hyperdual.hessian(lambda z: z[0] ** 2, np.zeros(1))[0, 0] == 2.0
        assert hyperdual.hessian(lambda z: z[0] ** 3, np.zeros(1))[0, 0] == 0.0

    @pytest.mark.parametrize("p, d1, d2", [(0, 0.0, 0.0), (1, 1.0, 0.0),
                                           (2, 0.0, 2.0), (3, 0.0, 0.0),
                                           (2.5, 0.0, 0.0)])
    def test_tape_and_oracle_agree_at_zero(self, p, d1, d2):
        prob = load_source(f"var x; minimize x^{p!r};")
        h = HyperDual(0.0, 1.0, 1.0, 0.0) ** p
        x = np.zeros(1)
        assert (prob.grad_f(x)[0], h.first1) == (d1, d1)
        assert (prob.hess_f(x)[0, 0], h.second) == (d2, d2)

    def test_infinite_derivatives_are_faults(self):
        for p in (0.5, 1.5, -1.0):
            with pytest.raises(NonFiniteValue):
                HyperDual(0.0, 1.0, 1.0, 0.0) ** p
            prob = load_source(f"var x start 0; minimize x^{p!r};")
            assert not np.isfinite(prob.hess_f(np.zeros(1))).all()
            with pytest.raises(NonFiniteValue):
                evaluate_lagrangian_hessian(prob, np.zeros(1), 1.0,
                                            np.zeros(0))


class TestDomainFaults:
    def test_plain_evaluation_is_quiet(self):
        p = load_source("""
            var x start 1; var y start 1;
            minimize log(x) + sqrt(y) + x^0.5 + 1 / (x - 1) + exp(1000 * y);
            subject_to log(y) == 0;
        """)
        x = np.array([-1.0, 0.0])
        counters = EvalCounters()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(p.f(x))
            assert not np.isfinite(p.c(x)[0])
            # the evaluators return what they compute, and evaluate_*
            # counts the call, then rejects it
            for name in ("grad_f", "jac_c", "hess_f", "hess_c"):
                assert not np.isfinite(getattr(p, name)(x)).all()
            for evaluate in (evaluate_functions, evaluate_gradients):
                with pytest.raises(NonFiniteValue):
                    evaluate(p, x, counters)
            with pytest.raises(NonFiniteValue):
                evaluate_lagrangian_hessian(p, x, 1.0, np.ones(p.m), counters)
        assert counters.as_dict() == {"n_f": 1, "n_c": 1, "n_grad_f": 1,
                                      "n_jac_c": 1, "n_hess": 1}

    def test_oracle_sqrt_at_zero(self):
        with pytest.raises(NonFiniteValue):
            HyperDual(0.0, 1.0, 0.0, 0.0).sqrt()
        with pytest.raises(NonFiniteValue):
            hyperdual.gradient(lambda z: hd_sqrt(z[0]) - z[0], np.zeros(1))

    def test_oracle_arithmetic_faults(self):
        with pytest.raises(NonFiniteValue):
            hyperdual.value(lambda z: 1.0 / z[0], np.zeros(1))
        with pytest.raises(NonFiniteValue):
            hyperdual.value(lambda z: hd_exp(z[0]), np.array([1000.0]))


def test_benchmark_tracer_patches_existing_names():
    """The benchmark tracer patches these names; fail here if one goes, or
    if a solve of any variant no longer passes through a traced layer, or
    a line-search solve no longer factors its convexify rungs through the
    patched ldlt_factorize."""
    bench = str(Path(__file__).resolve().parents[1] / "solverbench")
    sys.path.insert(0, bench)
    try:
        import layers
        originals = (hyperdual.gradient, hyperdual.hessian)
        tracer = layers.Tracer()
        tracer.install()
        try:
            assert hyperdual.hessian is not originals[1]
            for i, (strategy, mechanism) in enumerate(VARIANTS):
                config = SolverConfig(strategy=strategy, mechanism=mechanism)
                tracer.solve(i, solve, get_problem("line-circle"), config,
                             mechanism)
        finally:
            tracer.uninstall()
        assert (hyperdual.gradient, hyperdual.hessian) == originals
        spans = tracer.spans
        for i, (_, mechanism) in enumerate(VARIANTS):
            names = {span[layers.NAME] for span in spans
                     if span[layers.SOLVE] == i}
            assert {"mechanisms.run", "strategies.decide",
                    "subproblems.compute", "qp.solve"} <= names
            # the eta_tries metric counts the rungs convexify factors
            rungs = [span for span in spans if span[layers.SOLVE] == i
                     and span[layers.NAME] == "linalg.ldlt"
                     and spans[span[layers.PARENT]][layers.NAME]
                     == "subproblems.convexify"]
            assert bool(rungs) == (mechanism == "line-search")
    finally:
        sys.path.remove(bench)


class TestTapeSet:
    def test_terms_sum_like_the_tree(self):
        # the split sums left to right, exactly as the unsplit tree does
        rng = np.random.default_rng(11)
        src = """
            var a; var b; var c;
            minimize 100 * (b - a^2)^2 + (1 - a)^2 - 3 * exp(c / 7)
                     + 100 * (c - b^2)^2 + (1 - b)^2 - sin(a * c) + 0.1;
        """
        gp = model_to_general(parse_model(src))
        p = load_source(src)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=3)
            assert p.f(x) == unsplit_value(gp.f_expr.expr, gp.f_expr.env, x)

    def test_rows_of_one_shape_share_a_group(self):
        text = "".join(f"var x{i};\n" for i in range(6))
        text += "".join(f"subject_to x{i}^2 * x{i + 1} + 2 * x{i} == 1;\n"
                        for i in range(5))
        p = load_source(text)
        m = parse_model(text)
        env = {v.name: i for i, v in enumerate(m.variables)}
        rows = TapeSet([Tape(r.body, env) for r in m.constraints],
                       6, "constraint")
        assert len(rows.groups) == 2       # x^2 * y and 2 * x
        x = np.linspace(0.3, 1.3, 6)
        J = p.jac_c(x)
        assert np.array_equal(rows.jacobian(x), J)
        for i in range(5):
            want = np.zeros(6)
            want[i] = 2 * x[i] * x[i + 1] + 2
            want[i + 1] = x[i] ** 2
            assert np.allclose(J[:, i], want, rtol=1e-15, atol=0)
            H = np.zeros((6, 6))
            H[i, i] = 2 * x[i + 1]
            H[i, i + 1] = H[i + 1, i] = 2 * x[i]
            assert np.allclose(p.hess_c(x)[i], H, rtol=1e-15, atol=0)
        assert np.allclose(p.c(x), x[:5] ** 2 * x[1:] + 2 * x[:5] - 1,
                           rtol=1e-15, atol=1e-15)


def _chain_sets():
    """Fresh (objective, rows) TapeSets of the n=24 .nco chain, and its
    seed-0 start."""
    chain = bench_chain()
    x0 = chain.start_point(24, 0)
    m = parse_model(chain.nco_text(x0))
    env = {v.name: i for i, v in enumerate(m.variables)}
    return (TapeSet([Tape(m.objective, env)], 24, "objective"),
            TapeSet([Tape(r.body, env) for r in m.constraints], 24,
                    "constraint")), x0


def _passes(monkeypatch):
    """Count tape.forward's value and derivative passes from here on."""
    counts = {"values": 0, "derivatives": 0}
    original = tape.forward

    def counted(ops, X, derivatives):
        counts["derivatives" if derivatives else "values"] += 1
        return original(ops, X, derivatives)
    monkeypatch.setattr(tape, "forward", counted)
    return counts


NO_PASSES = {"values": 0, "derivatives": 0}


class TestKeptHessians:
    """jacobian(x) keeps its nonlinear groups' Hessians with x's bytes, and
    weighted_hessian at the same bytes scales and scatters them."""

    @staticmethod
    def _weights(size):
        """Weights with zeros among them, all zero, and none zero."""
        w = np.linspace(-1.5, 2.0, size)
        w[::3] = 0.0
        return [w, np.zeros(size), np.linspace(0.5, 2.5, size)]

    def test_kept_hessians_are_bitwise_a_fresh_pass(self, monkeypatch):
        (objective, rows), x = _chain_sets()
        fresh_sets, _ = _chain_sets()
        counts = _passes(monkeypatch)
        for ts, fresh in zip((objective, rows), fresh_sets):
            ts.jacobian(x)
            for w in self._weights(ts.size):
                counts.update(NO_PASSES)
                got = ts.weighted_hessian(x, w)
                assert counts == NO_PASSES
                want = fresh.weighted_hessian(x, w)
                assert got.tobytes() == want.tobytes()

    def test_gradients_of_the_order_2_pass_are_bitwise_order_1(
            self, monkeypatch):
        # the interpreter's order-1 pass computes no Hessian
        (objective, rows), x = _chain_sets()
        got = [objective.jacobian(x), rows.jacobian(x)]
        monkeypatch.setattr(tape, "forward", lambda ops, X, derivatives:
                            tape_interpreter.forward(ops, X, int(derivatives)))
        (objective, rows), _ = _chain_sets()
        want = [objective.jacobian(x), rows.jacobian(x)]
        assert [J.tobytes() for J in got] == [J.tobytes() for J in want]

    def test_another_x_runs_the_pass(self, monkeypatch):
        (_, rows), x = _chain_sets()
        (_, fresh), _ = _chain_sets()
        nonlinear = sum(grp.nonlinear for grp in rows.groups)
        assert 0 < nonlinear < len(rows.groups)     # 3 x^3, sin * sin; 2 x
        x[5] = 0.0
        moved = x.copy()
        moved[7] = np.nextafter(x[7], np.inf)
        signed = x.copy()
        signed[5] = -0.0                # equal to x, but not its bytes
        w = np.ones(rows.size)
        counts = _passes(monkeypatch)
        for other in (moved, signed):
            rows.jacobian(x)
            counts.update(NO_PASSES)
            got = rows.weighted_hessian(other, w)
            assert counts == {"values": 0, "derivatives": nonlinear}
            assert got.tobytes() == fresh.weighted_hessian(other, w).tobytes()
        # the gradient pass runs every group, linear ones too
        counts.update(NO_PASSES)
        rows.jacobian(x)
        assert counts == {"values": 0, "derivatives": len(rows.groups)}

    def test_hessians_view_is_unchanged(self):
        (objective, rows), x = _chain_sets()
        fresh_sets, _ = _chain_sets()
        for ts, fresh in zip((objective, rows), fresh_sets):
            ts.jacobian(x)
            got = ts.hessians(x)
            want = fresh.hessians(x)
            assert got.shape == (ts.size, 24, 24)
            assert got.tobytes() == want.tobytes()
            for e in range(ts.size):
                unit = np.zeros(ts.size)
                unit[e] = 1.0
                assert got[e].tobytes() == \
                    fresh.weighted_hessian(x, unit).tobytes()


# the op each tree compiles to is named after it; together they reach all
# 18 op codes, a dead op, a shared subtree and a constant subtree
_X, _Y = Var("x0"), Var("x1")
_SHARED = Call("sin", _X * _Y)
OP_TREES = [
    _X + _Y, _X - _Y, _X * _Y, _X / _Y, -_X,                # ADD-DIV, NEG
    _X + 2.0, 3.0 * _X, 1.0 - _X, _X / 4.0, 2.0 / _X,       # ADDC-RDIVC
    _X ** 3.0, 2.0 ** _X, _X ** _Y,                          # POWC, RPOWC
    Call("exp", _X), Call("log", _X), Call("sin", _X), Call("cos", _X),
    Call("sqrt", _X),
    (_X ** 2.0) ** 0.0 + _Y,                                 # a dead square
    _SHARED * _SHARED + _SHARED / _Y,                        # shared
    (Num(2.0) ** Num(3.0) - Call("exp", Num(1.0))) * _X,     # constant
    _X * _Y * _X * _Y - 3.0 * _X / (_Y * _Y),                # Hessian consts
]
# x entries: signed zeros, infinities, NaN, subnormals, huge and plain
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300,
           -1e300, 1.0, -1.5, 0.75]


def _kernel_trees(n):
    """Trees over n variables that reach every op code: constants on
    either side of every binary operator, variable exponents, shared
    operands, and powers 0 and 1 that fold."""
    num = st.builds(Num, st.sampled_from(
        [0.0, -0.0, 1.0, 2.0, 3.0, 0.5, -1.0, 1.5, -2.0, 1e300, 5e-324]))
    var = st.sampled_from([Var(v) for v in NAMES[:n]])
    binary = st.sampled_from(["+", "-", "*", "/", "^"])

    def grow(children):
        return st.one_of(
            st.builds(Binary, binary, children, children),
            st.builds(Unary, st.just("-"), children),
            st.builds(Call, st.sampled_from(sorted(_FNS)), children),
            # one node as both operands: a shared subtree
            st.tuples(binary, children).map(
                lambda t: Binary(t[0], t[1], t[1])))
    return st.recursive(st.one_of(num, var), grow, max_leaves=10)


@st.composite
def _kernel_cases(draw):
    """(ops, X): a compiled tree and a batch of G = 1-6 rows."""
    tree = draw(_kernel_trees(draw(st.integers(1, 4))))
    ops, vars_, _ = _compile(tree, dict(zip(NAMES, range(4))))
    assume(ops)
    rows = draw(st.integers(1, 6))
    entries = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(-3.0, 3.0),
                            min_size=rows * len(vars_),
                            max_size=rows * len(vars_)))
    return ops, np.array(entries).reshape(rows, len(vars_))


def _bitwise_interpreter(ops, X):
    """Assert that the value kernel gives the interpreter's order-0 (v, g,
    H), and the derivative kernel its order-2 (v, g, H) and its order-1
    (v, g), in bytes, shape and None."""
    with np.errstate(all="ignore"):
        values = tape.forward(ops, X, False)
        derivatives = tape.forward(ops, X, True)
        runs = [(values, tape_interpreter.forward(ops, X, 0)),
                (derivatives, tape_interpreter.forward(ops, X, 2)),
                (derivatives[:2], tape_interpreter.forward(ops, X, 1)[:2])]
    for got, want in runs:
        for a, b in zip(got, want, strict=True):
            assert (a is None) == (b is None)
            if b is not None:
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()


# one model under names the kernel generator and Python use, and under
# plain names
_NAMED_MODEL = """
var {0} start 0.5; var {1} start -1.2; var {2} in [0, 3] start 1;
var {3} start 0.7; var {4} start 2; var {5} in [-1, 1] start -0.3;
var {6} start 0.9; var {7} start 1.1; var {8} in [-1, 1] start 0.2;
minimize ({0} - 1)^2 + 100 * ({1} - {0}^2)^2 + exp({2} / 3)
         + ({3} * {4} - 1)^2 + sin({5}) * cos({6}) + sqrt({7}^2 + 1)
         + log({8}^2 + 2) + 2^{8};
subject_to {0} + {1} + {2} == 1;
subject_to {3}^3 - {4} / ({5}^2 + 1) == 0.5;
subject_to 1 <= {6} * {7} + {8} <= 3;
"""
GENERATOR_NAMES = ["X", "np", "v0", "g1", "H2", "d1", "K0", "lambda",
                   "__import__"]


class TestKernels:
    """forward runs each op list's compiled kernel; the op-list interpreter
    of tests/tape_interpreter.py is its bitwise oracle."""

    def test_op_trees_reach_every_op_code(self):
        codes = {op[0] for tree in OP_TREES
                 for op in _compile(tree, dict(zip(NAMES, range(4))))[0]}
        assert codes == set(range(18))

    @pytest.mark.parametrize("code, binary", [
        (tape.NEG, False), (tape.EXP, False), (tape.LOG, False),
        (tape.SIN, False), (tape.COS, False), (tape.SQRT, False),
        (tape.ADD, True), (tape.SUB, True), (tape.MUL, True),
        (tape.DIV, True), (tape.POWC, True)])
    def test_folded_constants_match_the_interpreter(self, code, binary):
        # every code _fold meets: the unary ones of Unary and Call nodes,
        # the binary operators of two constants, and ^ as POWC
        for a in SPECIAL:
            for b in SPECIAL if binary else [None]:
                with np.errstate(all="ignore"):
                    want = tape_interpreter.VALUE[code](
                        np.float64(a), None if b is None else np.float64(b))
                    got = tape._fold(code, a, b)
                assert type(got) is float
                assert np.float64(got).tobytes() == \
                    np.float64(want).tobytes()

    @pytest.mark.parametrize("tree", OP_TREES, ids=range(len(OP_TREES)))
    def test_op_trees_match_the_interpreter(self, tree):
        ops, vars_, _ = _compile(tree, dict(zip(NAMES, range(4))))
        k = len(vars_)
        grid = np.array(SPECIAL)    # each entry meets each other one
        for rows in (1, 6):
            for shift in range(grid.size):
                _bitwise_interpreter(
                    ops, np.resize(np.roll(grid, shift), (rows, k)))

    def test_result_in_an_earlier_slot_is_moved_last(self):
        # y ^ 0 folds to 1 and x ^ 1 to x, whose slot precedes y's: the
        # result is moved to the last slot as x * 1
        tree = Var("x0") ** (Var("x1") ** Num(0.0))
        env = {"x0": 0, "x1": 1}
        ops, _, const = _compile(tree, env)
        assert ops[-1] == (tape.MULC, 0, 1.0) and const == 0.0
        grid = np.array(SPECIAL)
        for shift in range(grid.size):
            _bitwise_interpreter(ops, np.resize(np.roll(grid, shift), (6, 2)))
        ts = TapeSet([Tape(tree, env)], 2, "objective")
        x = np.array([1.5, -2.0])
        assert ts.values(x).tolist() == [1.5]
        assert ts.jacobian(x).tolist() == [[1.0], [0.0]]
        assert not ts.weighted_hessian(x, [1.0]).any()

    @given(_kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_trees_match_the_interpreter(self, case):
        _bitwise_interpreter(*case)

    def test_compiled_once_per_order_at_first_pass(self, monkeypatch):
        compiled = []
        original = tape._kernel
        monkeypatch.setattr(tape, "_kernel", lambda ops, derivatives: (
            compiled.append(derivatives), original(ops, derivatives))[1])
        chain = bench_chain()
        x = chain.start_point(24, 0)
        p = load_source(chain.nco_text(x))
        assert compiled == []                       # nothing at load
        p.f(x)
        p.f(x + 1.0)
        assert compiled == [False, False]           # the objective's groups
        p.grad_f(x)
        p.grad_f(x + 1.0)
        assert compiled == [False, False, True, True]
        # a ranged row's slack start is worked out when x0 is first read
        compiled.clear()
        ranged = load_source("var x start 1; var y start 0.5;\n"
                             "subject_to 1 <= x * y + x <= 2;")
        assert compiled == []
        assert ranged.x0.tolist() == [1.0, 0.5, 1.5]
        assert set(compiled) == {False}
        (objective, _), _ = _chain_sets()
        objective.values(x)
        for grp in objective.groups:
            assert grp.ops.kernels[False] is not None
            assert grp.ops.kernels[True] is None

    def test_hoisted_constants_are_read_only(self):
        ops = _compile(3.0 * _X - _Y / 2.0 + _X * _Y,
                       dict(zip(NAMES, range(4))))[0]
        X = np.array([[0.5, -1.0], [2.0, 3.0]])
        for derivatives in (False, True):
            tape.forward(ops, X, derivatives)
        arrays = [value for kernel in ops.kernels
                  for name, value in kernel.__globals__.items()
                  if name.startswith("K") and isinstance(value, np.ndarray)]
        assert len(arrays) >= 4     # unit gradients, slopes, x * y's Hessian
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        # a linear group's gradient is a hoisted constant
        linear = _compile(3.0 * _X - _Y, dict(zip(NAMES, range(4))))[0]
        _, g, H = tape.forward(linear, X, True)
        assert g.shape == (2,) and H is None
        with pytest.raises(ValueError, match="read-only"):
            g[0] = 1.0

    def test_variables_named_like_the_generator(self):
        plain = [f"a{i}" for i in range(len(GENERATOR_NAMES))]
        p = load_source(_NAMED_MODEL.format(*GENERATOR_NAMES), name="named")
        q = load_source(_NAMED_MODEL.format(*plain), name="named")
        rng = np.random.default_rng(5)
        for x in [p.x0] + [p.x0 + rng.uniform(-0.5, 0.5, p.n)
                           for _ in range(3)]:
            for name in ("f", "c", "grad_f", "jac_c"):
                assert np.asarray(getattr(p, name)(x)).tobytes() == \
                    np.asarray(getattr(q, name)(x)).tobytes()
            lam = np.linspace(-1.0, 1.0, p.m)
            assert p.hess_lag(x, 0.5, lam).tobytes() == \
                q.hess_lag(x, 0.5, lam).tobytes()
        for strategy, mechanism in VARIANTS:
            config = SolverConfig(strategy=strategy, mechanism=mechanism)
            a, b = solve(p, config), solve(q, config)
            assert a.status == b.status and a.x.tobytes() == b.x.tobytes()
            assert format_trace(a) == format_trace(b)

    def test_kernels_show_in_profiles_and_tracebacks(self):
        (objective, rows), x = _chain_sets()
        profile = cProfile.Profile()
        profile.runcall(lambda: (objective.jacobian(x), rows.jacobian(x)))
        profiled = {key[0] for key in pstats.Stats(profile).stats}
        for ts in (objective, rows):
            for i, grp in enumerate(ts.groups):
                kernel = grp.ops.kernels[True]
                filename = kernel.__code__.co_filename
                assert filename.startswith(
                    f"<tape {ts.name} group {i} order 2 ")
                assert filename in profiled
                source = inspect.getsource(kernel)
                assert source.startswith("def kernel(X):\n")
                assert source == "".join(linecache.getlines(filename))
        # X with one column too few: the second VAR's line raises
        ops = objective.groups[0].ops
        assert [op[0] for op in ops[:2]] == [VAR, VAR]
        with pytest.raises(IndexError) as info:
            tape.forward(ops, np.zeros((3, 1)), True)
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert frame.filename == ops.kernels[True].__code__.co_filename
        assert frame.name == "kernel" and frame.line == "v1 = X[:, 1]"


def _signed_terms(expr) -> list:
    """(sign, term) along the left spine of the top-level + and -: the
    split of an expression when a term's sign was a factor, not an op."""
    out = []
    while type(expr) is Binary and expr.op in ("+", "-"):
        out.append((1.0 if expr.op == "+" else -1.0, expr.right))
        expr = expr.left
    out.append((1.0, expr))
    return out[::-1]


def _signed_reference(ts, x, weights):
    """(values, jacobian, weighted_hessian) of ts at x by the sign-factor
    formulas.

    Each term is compiled without its sign, and the terms of one op list
    are evaluated in one batch by the interpreter, at order 2 if the list
    is nonlinear and else at order 1. Its value, gradient and weight are
    then multiplied by its sign, except in a batch whose signs are all +1
    and whose list is more than a lone variable (the plus rule). The
    derivatives are summed term by term in the order of ts's groups, and a
    nonlinear group of ts whose weights are all zero adds nothing. That
    order is not the sign-factor batches' order where a batch held both
    signs: ts splits it into two groups, so an entry with three or more
    summands can round differently from such a batch's sum.
    """
    tapes, size, n = ts._tapes, ts.size, ts.n
    split = [_signed_terms(t.expr) for t in tapes]
    width = max(map(len, split))
    M = np.zeros((size, width))
    batches: dict[tuple, tuple] = {}    # ops key -> (ops, [(slot, sign, vars)])
    for e, (t, terms) in enumerate(zip(tapes, split)):
        for pos, (sign, node) in enumerate(terms):
            ops, vars_, const = _compile(node, t.env)
            if not ops:
                M[e, pos] = sign * const
                continue
            key = tuple(op[:2] if op[0] == VAR else op for op in ops)
            batches.setdefault(key, (ops, []))[1].append(
                (e * width + pos, sign, vars_))
    grad, hess = {}, {}     # term slot -> (flat index, its summands)
    for ops, terms in batches.values():
        slots, signs, index = (np.array(a) for a in zip(*terms))
        plus = len(ops) > 1 and bool((signs == 1.0).all())
        nonlinear = _curved(ops)
        v, g, H = tape_interpreter.forward(ops, x[index], 2 if nonlinear
                                           else 1)
        M.put(slots, v if plus else signs * v)
        g = g if plus and g.ndim == 2 else signs[:, None] * g
        rows = slots // width
        scale = weights[rows] if plus else weights[rows] * signs
        if nonlinear:
            H = scale[:, None, None] * H
        for t, slot in enumerate(slots):
            grad[slot] = (index[t] * size + rows[t], g[t])
            if nonlinear:
                hess[slot] = ((index[t][:, None] * n + index[t]).ravel(),
                              H[t].ravel())

    def scatter(parts, shape):
        if not parts:
            return np.zeros(shape)
        index, summands = (np.concatenate(a) for a in zip(*parts))
        return np.bincount(index, weights=summands,
                           minlength=math.prod(shape)).reshape(shape)
    J = scatter([grad[slot] for grp in ts.groups for slot in grp.slots],
                (n, size))
    W = scatter([hess[slot] for grp in ts.groups
                 if grp.nonlinear and weights[grp.row].any()
                 for slot in grp.slots], (n, n))
    return M.cumsum(axis=1)[:, -1], J, W


def _same_bits(got, want):
    """Equal bytes, but for a NaN's sign and payload."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@st.composite
def _signed_sums(draw):
    """(tapes, x, weights): 1-3 sums of lone variables, constants and
    nonlinear terms over 4 variables, joined by + and -, at an x with
    entries of SPECIAL (+-inf and NaN among them) or from [-3, 3]."""
    var = st.sampled_from([Var(v) for v in NAMES])
    term = st.one_of(
        var, st.builds(Num, st.sampled_from([0.0, -0.0, 1.5, -2.0, np.inf])),
        # few shapes, so that a shape recurs with either sign
        st.builds(Binary, st.sampled_from(["*", "/", "^"]), var, var),
        st.builds(Call, st.sampled_from(sorted(_FNS)), var),
        st.builds(Unary, st.just("-"), var | st.builds(Binary, st.just("*"),
                                                         var, var)),
        _kernel_trees(4))
    env = dict(zip(NAMES, range(4)))
    tapes = []
    for _ in range(draw(st.integers(1, 3))):
        expr = draw(term)
        for op in draw(st.lists(st.sampled_from("+-"), max_size=6)):
            expr = Binary(op, expr, draw(term))
        tapes.append(Tape(expr, env))
    x = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(-3.0, 3.0),
                      min_size=4, max_size=4))
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 0.5]),
                            min_size=len(tapes), max_size=len(tapes)))
    return tapes, np.array(x), np.array(weights)


class TestSignedTerms:
    """A subtracted term compiles as its negation, a NEG op. Its value,
    gradient and Hessian are the bits of the term's times its sign."""

    @given(_signed_sums())
    @settings(max_examples=200, deadline=None)
    @example(([Tape(_X - _X * _Y + _X * _Y - Num(-0.0) - _X, {"x0": 0,
                                                             "x1": 1})],
              np.array([1.5, -np.inf, 0.0, 0.0]), np.array([1.0])))
    # -0.0 - 0.0 is -0.0: a subtracted +0.0 must read -0.0, not 0.0 - 0.0
    @example(([Tape(Binary("-", _X, Num(0.0)), {"x0": 0}),
               Tape(_X - _X * _Y, {"x0": 0, "x1": 1})],
              np.array([-0.0, -0.0, 0.0, 0.0]), np.array([1.0, 1.0])))
    def test_signs_as_ops_match_the_sign_factors(self, case):
        tapes, x, weights = case
        ts = TapeSet(tapes, 4, "constraint")
        fresh = TapeSet(tapes, 4, "constraint")
        with np.errstate(all="ignore"):
            values, J, W = _signed_reference(ts, x, weights)
        _same_bits(ts.values(x), values)
        _same_bits(ts.jacobian(x), J)
        _same_bits(ts.weighted_hessian(x, weights), W)     # kept Hessians
        _same_bits(fresh.weighted_hessian(x, weights), W)  # a fresh pass
