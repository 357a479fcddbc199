"""Derivative tape: oracle agreement, sparsity, tracing, domain faults."""

import operator
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bench_chain, unsplit_value
from funnel_sqp import hyperdual, tape
from funnel_sqp.config import SolverConfig
from funnel_sqp.driver import solve
from funnel_sqp.dsl import (format_expr, load_source, model_to_general,
                            parse_model)
from funnel_sqp.errors import NonFiniteValue
from funnel_sqp.hyperdual import (HyperDual, hd_cos, hd_exp, hd_log, hd_sin,
                                  hd_sqrt)
from funnel_sqp.problems import from_expressions, get_problem
from funnel_sqp.tape import (SIN, Binary, Call, Num, Tape, TapeSet, Unary,
                             Var, _compile, trace)

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
        with np.errstate(all="ignore"):
            assert np.array_equal(traced.f(x), nco.f(x), equal_nan=True)
        for name in ("grad_f", "hess_f"):
            try:
                a = getattr(nco, name)(x)
            except NonFiniteValue:
                with pytest.raises(NonFiniteValue):
                    getattr(traced, name)(x)
                continue
            assert np.array_equal(getattr(traced, name)(x), a)

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
            with pytest.raises(NonFiniteValue):
                prob.hess_f(np.zeros(1))


class TestDomainFaults:
    def test_plain_evaluation_is_quiet(self):
        p = load_source("""
            var x start 1; var y start 1;
            minimize log(x) + sqrt(y) + x^0.5 + 1 / (x - 1) + exp(1000 * y);
            subject_to log(y) == 0;
        """)
        x = np.array([-1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(p.f(x))
            assert not np.isfinite(p.c(x)[0])
            for name in ("grad_f", "jac_c", "hess_f", "hess_c"):
                with pytest.raises(NonFiniteValue):
                    getattr(p, name)(x)

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
    """Count tape.forward calls per order from here on."""
    counts = {0: 0, 1: 0, 2: 0}
    original = tape.forward

    def counted(ops, X, order):
        counts[order] += 1
        return original(ops, X, order)
    monkeypatch.setattr(tape, "forward", counted)
    return counts


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
                counts.update({0: 0, 1: 0, 2: 0})
                got = ts.weighted_hessian(x, w)
                assert counts == {0: 0, 1: 0, 2: 0}
                want = fresh.weighted_hessian(x, w)
                assert got.tobytes() == want.tobytes()

    def test_gradients_of_the_order_2_pass_are_bitwise_order_1(
            self, monkeypatch):
        (objective, rows), x = _chain_sets()
        got = [objective.jacobian(x), rows.jacobian(x)]
        original = tape.forward
        monkeypatch.setattr(tape, "forward", lambda ops, X, order:
                            original(ops, X, min(order, 1)))
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
            counts.update({0: 0, 1: 0, 2: 0})
            got = rows.weighted_hessian(other, w)
            assert counts == {0: 0, 1: 0, 2: nonlinear}
            assert got.tobytes() == fresh.weighted_hessian(other, w).tobytes()
        # the gradient pass runs linear groups at order 1 only
        counts.update({0: 0, 1: 0, 2: 0})
        rows.jacobian(x)
        assert counts == {0: 0, 1: len(rows.groups) - nonlinear,
                          2: nonlinear}

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
