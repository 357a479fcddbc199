"""Model language: tokenizer, parser, printer round-trips, lowering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_chain, fd_gradient
from funnel_sqp.dsl import (Binary, Call, Model, Num, Relation, Unary, Var,
                            VarDecl, format_expr, format_model, load_file,
                            load_source, model_to_general, parse_model,
                            tokenize)
from funnel_sqp.errors import (DuplicateDeclaration, ParseError,
                               UndeclaredVariable)
from funnel_sqp.tape import Tape, TapeSet

CIRCLE_SRC = """
# toy model
var x start 2.0;
var y in [-10.0, 10.0] start 2.0;
minimize (x - 1.0)^2 + (y - 1.0)^2;
subject_to x^2 + y^2 == 1.0;
"""


class TestTokenizer:
    def test_kinds_and_positions(self):
        toks = tokenize("var x;\n  y <= 1.5e-2")
        kinds = [t.kind for t in toks]
        assert kinds == ["ident", "ident", ";", "ident", "<=", "num", "eof"]
        assert toks[0].line == 1 and toks[0].col == 1
        assert toks[3].line == 2 and toks[3].col == 3
        assert toks[5].text == "1.5e-2"

    def test_comments_skipped(self):
        toks = tokenize("x # everything after is ignored ^&%\ny")
        assert [t.text for t in toks[:-1]] == ["x", "y"]

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x @ y")
        assert exc.value.line == 1 and exc.value.column == 3

    def test_number_forms(self):
        toks = tokenize("1 2.5 .5 3. 1e4 2.5E-3")
        assert all(t.kind == "num" for t in toks[:-1])
        assert [float(t.text) for t in toks[:-1]] == \
            [1.0, 2.5, 0.5, 3.0, 1e4, 2.5e-3]

    @staticmethod
    def _rows(text):
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]

    @staticmethod
    def _error(text, parse=tokenize):
        with pytest.raises(ParseError) as exc:
            parse(text)
        return type(exc.value), exc.value.line, exc.value.column

    def test_crlf_and_tabs(self):
        # '\r' and '\t' are blanks; a tab counts as one column
        assert self._rows("x\r\n\ty;\r\n") == [
            ("ident", "x", 1, 1), ("ident", "y", 2, 2), (";", ";", 2, 3),
            ("eof", "", 3, 1)]

    def test_comment_on_last_line_without_newline(self):
        assert self._rows("x # c") == [("ident", "x", 1, 1),
                                       ("eof", "", 1, 6)]

    def test_empty_source(self):
        assert self._rows("") == [("eof", "", 1, 1)]

    def test_exponent_without_digits(self):
        # '1e' is the number 1 followed by the identifier e
        assert self._rows("1e") == [("num", "1", 1, 1), ("ident", "e", 1, 2),
                                    ("eof", "", 1, 3)]

    def test_two_decimal_points(self):
        assert self._rows("1.5.2") == [("num", "1.5", 1, 1),
                                       ("num", ".2", 1, 4), ("eof", "", 1, 6)]

    @pytest.mark.parametrize("text", [".", "..5"])
    def test_lone_point(self, text):
        assert self._error(text) == (ParseError, 1, 1)

    @pytest.mark.parametrize("text", ["x é", "x ²"])
    def test_non_ascii_letters_and_digits_rejected(self, text):
        # only ASCII letters start a name, and '²' is a digit but not a
        # decimal one, so neither may start a token
        assert self._error(text) == (ParseError, 1, 3)

    def test_decimal_digit_of_another_script_is_a_number(self):
        assert self._rows("٣") == [("num", "٣", 1, 1), ("eof", "", 1, 2)]

    def test_error_positions_on_line_three(self):
        head = "var x;\nvar y;\n"
        assert self._error(head + "  minimize x @ y;", parse_model) == \
            (ParseError, 3, 14)
        assert self._error(head + "minimize x + zz;", parse_model) == \
            (UndeclaredVariable, 3, 14)
        with pytest.raises(ParseError) as exc:
            parse_model(head + "minimize x +")
        assert str(exc.value) == ("line 3, column 13: expected an "
                                  "expression, found 'end of input'")


class TestParser:
    def test_basic_model(self):
        m = parse_model(CIRCLE_SRC, name="circle")
        assert m.name == "circle"
        assert [v.name for v in m.variables] == ["x", "y"]
        v = m.variables[1]
        assert v.lb == -10.0 and v.ub == 10.0 and v.start == 2.0
        assert m.variables[0].lb == -np.inf
        assert m.objective is not None
        assert len(m.constraints) == 1
        r = m.constraints[0]
        assert r.lo == r.hi == 1.0

    def test_inequality_normalization(self):
        m = parse_model("""
            var x; var y;
            subject_to x + y <= 3.0;
            subject_to x - y >= -1.0;
            subject_to 2.0 <= x <= 4.0;
            subject_to 1.0 == x * y;
            subject_to x <= y;
        """)
        rs = m.constraints
        assert (rs[0].lo, rs[0].hi) == (-np.inf, 3.0)
        assert (rs[1].lo, rs[1].hi) == (-1.0, np.inf)
        assert (rs[2].lo, rs[2].hi) == (2.0, 4.0)
        assert (rs[3].lo, rs[3].hi) == (1.0, 1.0)
        # expr-vs-expr folds into body - rhs relative to 0
        assert (rs[4].lo, rs[4].hi) == (-np.inf, 0.0)
        assert isinstance(rs[4].body, Binary) and rs[4].body.op == "-"

    def test_equality_between_expressions(self):
        # neither side is a literal: the row is lhs - rhs == 0
        r = parse_model("var x; var y; subject_to x * y == x + y;") \
            .constraints[0]
        assert (r.lo, r.hi) == (0.0, 0.0)
        assert r.body == Binary("-", Binary("*", Var("x"), Var("y")),
                                Binary("+", Var("x"), Var("y")))

    def test_greater_equal_with_expression_on_the_right(self):
        lit, both = parse_model(
            "var x; var y; subject_to 1.0 >= x; subject_to x >= y * y;"
        ).constraints
        assert (lit.lo, lit.hi, lit.body) == (-np.inf, 1.0, Var("x"))
        assert (both.lo, both.hi) == (0.0, np.inf)
        assert both.body == Binary("-", Var("x"),
                                   Binary("*", Var("y"), Var("y")))

    def test_literal_on_left_of_inequality(self):
        m = parse_model("var x; subject_to 2.0 <= x;")
        r = m.constraints[0]
        assert (r.lo, r.hi) == (2.0, np.inf)
        assert isinstance(r.body, Var)

    def test_negative_literal_bounds(self):
        m = parse_model("var x in [-inf, 2.0]; subject_to x == -3.0;")
        assert m.variables[0].lb == -np.inf
        assert m.constraints[0].lo == -3.0

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateDeclaration):
            parse_model("var x; var x;")

    def test_undeclared_variable_position(self):
        with pytest.raises(UndeclaredVariable) as exc:
            parse_model("var x;\nminimize x + z;")
        assert exc.value.line == 2

    def test_duplicate_objective(self):
        with pytest.raises(ParseError):
            parse_model("var x; minimize x; minimize x;")

    def test_reserved_name(self):
        with pytest.raises(ParseError):
            parse_model("var start;")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError) as exc:
            parse_model("var x\nvar y;")
        assert "';'" in str(exc.value) or "expected" in str(exc.value)

    def test_empty_bound_interval(self):
        with pytest.raises(ParseError):
            parse_model("var x in [3.0, 1.0];")

    @pytest.mark.parametrize("box", ["[-inf, -inf]", "[inf, inf]",
                                     "[inf, 1.0]", "[1.0, -inf]"])
    def test_bound_interval_without_a_real_point(self, box):
        with pytest.raises(ParseError):
            parse_model(f"var x in {box};")

    def test_empty_constraint_range(self):
        with pytest.raises(ParseError):
            parse_model("var x; subject_to 4.0 <= x <= 2.0;")

    def test_ranged_mixed_relations_rejected(self):
        with pytest.raises(ParseError):
            parse_model("var x; subject_to 1.0 <= x >= 0.0;")

    def test_ranged_needs_literal_ends(self):
        with pytest.raises(ParseError):
            parse_model("var x; var y; subject_to y <= x <= 2.0;")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_model("var x; minimize (x + 1.0;")


def _eval(src_expr, **vals):
    m = parse_model("var x; var y; minimize " + src_expr + ";")
    env = {"x": 0, "y": 1}
    return TapeSet([Tape(m.objective, env)], 2, "objective").values(
        [vals.get("x", 0.0), vals.get("y", 0.0)])[0]


class TestPrecedence:
    def test_power_right_associative(self):
        assert _eval("2.0 ^ 3.0 ^ 2.0") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert _eval("-x ^ 2.0", x=3.0) == -9.0

    def test_power_of_negated(self):
        assert _eval("(-x) ^ 2.0", x=3.0) == 9.0

    def test_mul_over_add(self):
        assert _eval("2.0 + 3.0 * 4.0") == 14.0

    def test_left_associative_subtraction(self):
        assert _eval("10.0 - 4.0 - 3.0") == 3.0

    def test_division_chain(self):
        assert _eval("24.0 / 4.0 / 2.0") == 3.0

    def test_functions(self):
        assert _eval("exp(0.0) + cos(0.0) + sin(0.0) + sqrt(4.0) "
                     "+ log(1.0)") == 4.0


# expression trees that the printer and parser must round-trip exactly;
# only non-negative literals so repr never emits a leading '-'
_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False)),
    st.sampled_from([Var("x"), Var("y")]),
)


def _combine(children):
    binary = st.builds(
        Binary,
        st.sampled_from(["+", "-", "*", "/", "^"]),
        children, children)
    unary = st.builds(Unary, st.just("-"), children)
    call = st.builds(
        Call, st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]), children)
    return st.one_of(binary, unary, call)


_expr_trees = st.recursive(_leaf, _combine, max_leaves=12)


class TestPrinter:
    @given(_expr_trees)
    @settings(max_examples=200, deadline=None)
    def test_format_parse_round_trip(self, tree):
        text = "var x; var y; minimize " + format_expr(tree) + ";"
        parsed = parse_model(text).objective
        assert parsed == tree

    def test_format_model_idempotent(self):
        once = format_model(parse_model(CIRCLE_SRC))
        twice = format_model(parse_model(once))
        assert once == twice

    def test_format_model_of_a_long_sum(self):
        # the n=800 chain's objective is a left spine of about 1,600 nodes,
        # deeper than the recursion limit
        chain = bench_chain()
        text = chain.nco_text(chain.start_point(800, 0))
        once = format_model(parse_model(text))
        assert format_model(parse_model(once)) == once
        p, q = load_source(text), load_source(once)
        assert q.f(q.x0) == p.f(p.x0)

    def test_equality_and_repr_of_a_long_model(self):
        # the n=200 chain's trees are deeper than the recursion limit
        chain = bench_chain()
        text = chain.nco_text(chain.start_point(200, 0))
        a, b = parse_model(text), parse_model(text)
        assert a == b
        assert a.objective == b.objective and a.objective is not b.objective
        b.constraints[-1].body = Binary("+", b.constraints[-1].body,
                                        Num(0.0))
        assert a != b
        r = repr(a)
        assert r.startswith("Model(name='model', variables=[VarDecl(")
        assert r.count("Binary(op='+'") == repr(b).count("Binary(op='+'") - 1

    def test_node_repr_and_equality_as_dataclasses(self):
        e = Binary("*", Num(2.0), Unary("-", Call("sin", Var("x"))))
        assert repr(e) == ("Binary(op='*', left=Num(value=2.0), "
                           "right=Unary(op='-', operand=Call(fn='sin', "
                           "arg=Var(name='x'))))")
        assert e == Binary("*", Num(2.0), Unary("-", Call("sin", Var("x"))))
        assert e != Binary("*", Num(2.0), Unary("-", Call("cos", Var("x"))))
        assert Num(1.0) != Var("x") and Num(1.0) != 1.0
        assert hash(e) == hash(Binary("*", Num(2.0),
                                      Unary("-", Call("sin", Var("x")))))

    def test_format_model_omits_defaults(self):
        text = format_model(parse_model("var x;\nvar y in [0.0, inf];"))
        assert "var x;" in text
        assert "in" not in text.splitlines()[0]
        assert "start" not in text
        assert "var y in [0.0, inf];" in text

    def test_one_sided_rows_printed_as_inequalities(self):
        m = parse_model("var x; subject_to x <= 2.0; subject_to x >= 1.0;")
        out = format_model(m)
        assert "subject_to x <= 2.0;" in out
        assert "subject_to x >= 1.0;" in out


    def test_ranged_row_printed_with_both_ends(self):
        out = format_model(parse_model(
            "var x; var y; subject_to 0.5 <= x + y <= 2.0;"))
        assert out.splitlines()[-1] == "subject_to 0.5 <= x + y <= 2.0;"
        assert format_model(parse_model(out)) == out

    def test_vacuous_row_not_printed(self):
        # -inf <= body <= inf constrains nothing; the language has no
        # spelling for it, so the printer leaves it out
        m = Model("m", variables=[VarDecl("x")],
                  constraints=[Relation(Var("x"), -np.inf, np.inf),
                               Relation(Var("x"), -np.inf, 1.0)])
        assert format_model(m) == "var x;\nsubject_to x <= 1.0;\n"


class TestLowering:
    def test_model_to_general_shapes(self):
        gp = model_to_general(parse_model(CIRCLE_SRC))
        assert gp.n == 2 and len(gp.con_exprs) == 1
        assert gp.var_names == ["x", "y"]
        assert np.array_equal(gp.x0, [2.0, 2.0])
        assert TapeSet([gp.f_expr], 2, "objective").values([1.0, 1.0])[0] \
            == 0.0

    def test_load_source_equality_only(self):
        p = load_source(CIRCLE_SRC, name="circle")
        assert p.n == 2 and p.m == 1
        x = np.array([0.6, 0.8])
        assert np.isclose(p.c(x)[0], 0.0)
        assert np.isclose(p.f(x), (0.6 - 1) ** 2 + (0.8 - 1) ** 2)

    def test_load_source_adds_slack_for_ranged(self):
        p = load_source("""
            var x start 1.0; var y start 1.0;
            minimize x^2 + y^2;
            subject_to 1.0 <= x + y <= 3.0;
        """)
        assert p.n == 3 and p.m == 1
        assert p.lb[2] == 1.0 and p.ub[2] == 3.0
        # slack starts at the clipped constraint value
        assert p.start_point()[2] == 2.0

    def test_no_objective_means_zero(self):
        p = load_source("var x start 0.5; subject_to x == 1.0;")
        assert p.f(np.array([0.3])) == 0.0
        assert np.allclose(p.grad_f(np.array([0.3])), [0.0])

    def test_gradients_of_loaded_model_vs_fd(self):
        p = load_source("""
            var x start 0.2; var y start 0.3;
            minimize exp(x - y) + sin(x * y) + x^2;
            subject_to x^2 + y^2 == 1.0;
        """)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, size=2)
            assert np.allclose(p.grad_f(x), fd_gradient(p.f, x),
                               rtol=1e-5, atol=1e-7)
            J = p.jac_c(x)
            assert np.allclose(J[:, 0], 2.0 * x, rtol=1e-10)

    def test_load_file(self, tmp_path):
        path = tmp_path / "circ.nco"
        path.write_text(CIRCLE_SRC)
        p = load_file(path)
        assert p.name == "circ"
        assert p.n == 2

    def test_shipped_models_parse(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1] / "models"
        found = sorted(root.glob("*.nco"))
        assert found, "models directory should ship example files"
        for path in found:
            p = load_file(path)
            assert p.n >= 1
