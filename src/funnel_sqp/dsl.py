"""Tiny modeling language for box-constrained equality NLPs.

Statements end with ';' and comments run from '#' to end of line:

    var x in [-1.0, inf] start 0.5;
    minimize (x - y)^2 + sin(x);
    subject_to x^2 + y^2 == 1.0;
    subject_to -1.0 <= x * y <= 0.5;

Operator precedence, loosest to tightest: +, - then *, / then unary minus
then ^ (right associative). Relations are ==, <=, >= or the ranged form with
numeric literals on both ends. Parsed constraints are normalized to
lo <= body <= hi; lowering to standard form adds one slack per ranged row.

Expressions parse to the trees of tape.py. A loaded problem compiles them
once, at its first evaluation, to derivative tapes that yield the value,
gradient and Hessian in one pass.
A bound interval must contain a real number: [inf, inf] and [-inf, -inf]
are rejected like [1, 0].
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DuplicateDeclaration, ParseError, UndeclaredVariable
from .problems import GeneralProblem, NcoProblem, to_standard_form
from .tape import Binary, Call, Expr, Num, Tape, Unary, Var

KEYWORDS = {"var", "minimize", "subject_to", "in", "start", "inf"}
FUNCTIONS = {"exp", "log", "sin", "cos", "sqrt"}


# ------------------ model ------------------

@dataclass
class VarDecl:
    name: str
    lb: float = -np.inf
    ub: float = np.inf
    start: float = 0.0


@dataclass
class Relation:
    """Normalized constraint lo <= body <= hi (lo == hi for equalities)."""
    body: Expr
    lo: float
    hi: float


@dataclass
class Model:
    name: str
    variables: list = field(default_factory=list)
    objective: Optional[Expr] = None
    constraints: list = field(default_factory=list)


# ------------------ tokenizer ------------------

@dataclass(slots=True)
class Token:
    kind: str          # 'num', 'ident', an operator literal, or 'eof'
    text: str
    line: int
    col: int


# leading blanks are skipped inside each match and the last group catches
# any other character, so finditer can only leave out trailing blanks
_TOKEN_RE = re.compile(
    r"""[ \t\r]*
      (?: (\#[^\n]*)                              # 1 comment
        | (\n)                                     # 2 newline
        | ((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)    # 3 number
        | ([A-Za-z_][A-Za-z0-9_]*)                 # 4 identifier
        | (<=|>=|==|[+\-*/^()\[\],;])              # 5 operator
        | ([^ \t\r]) )                             # 6 anything else
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 1:
            continue
        if group == 2:
            line += 1
            line_start = m.end()
            continue
        start = m.start(group)
        lexeme = text[start:m.end()]
        if group == 6:
            raise ParseError(f"unexpected character {lexeme!r}", line,
                             start - line_start + 1)
        kind = lexeme if group == 5 else ("num" if group == 3 else "ident")
        tokens.append(Token(kind, lexeme, line, start - line_start + 1))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ------------------ parser ------------------

class _Parser:
    def __init__(self, tokens: list[Token], name: str):
        self.toks = tokens
        self.i = 0
        self.model = Model(name=name)
        self.declared: dict[str, int] = {}

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            found = t.text if t.kind != "eof" else "end of input"
            raise ParseError(f"expected {what or kind!r}, found {found!r}",
                             t.line, t.col)
        return self.advance()

    def fail(self, message: str, tok: Token | None = None):
        t = tok or self.peek()
        raise ParseError(message, t.line, t.col)

    # -- statements --

    def parse(self) -> Model:
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "ident" and t.text == "var":
                self.var_decl()
            elif t.kind == "ident" and t.text == "minimize":
                self.minimize()
            elif t.kind == "ident" and t.text == "subject_to":
                self.subject_to()
            else:
                self.fail(f"expected a statement, found {t.text!r}")
        return self.model

    def var_decl(self):
        self.advance()
        name_tok = self.expect("ident", "a variable name")
        name = name_tok.text
        if name in KEYWORDS or name in FUNCTIONS:
            self.fail(f"{name!r} is reserved", name_tok)
        if name in self.declared:
            raise DuplicateDeclaration(
                f"variable {name!r} already declared",
                name_tok.line, name_tok.col)
        decl = VarDecl(name=name)
        if self.peek().kind == "ident" and self.peek().text == "in":
            self.advance()
            self.expect("[")
            decl.lb = self.bound()
            self.expect(",")
            decl.ub = self.bound()
            self.expect("]")
            if decl.lb > decl.ub or decl.lb == np.inf or decl.ub == -np.inf:
                self.fail(f"empty bound interval for {name!r}", name_tok)
        if self.peek().kind == "ident" and self.peek().text == "start":
            self.advance()
            decl.start = self.signed_number()
        self.expect(";")
        self.declared[name] = len(self.model.variables)
        self.model.variables.append(decl)

    def bound(self) -> float:
        sign = 1.0
        if self.peek().kind in ("-", "+"):
            sign = -1.0 if self.advance().kind == "-" else 1.0
        t = self.peek()
        if t.kind == "ident" and t.text == "inf":
            self.advance()
            return sign * np.inf
        if t.kind == "num":
            self.advance()
            return sign * float(t.text)
        self.fail("expected a number or inf")

    def signed_number(self) -> float:
        sign = 1.0
        if self.peek().kind in ("-", "+"):
            sign = -1.0 if self.advance().kind == "-" else 1.0
        t = self.expect("num", "a number")
        return sign * float(t.text)

    def minimize(self):
        t = self.advance()
        if self.model.objective is not None:
            self.fail("duplicate objective", t)
        self.model.objective = self.expr()
        self.expect(";")

    def subject_to(self):
        self.advance()
        self.model.constraints.append(self.constraint())
        self.expect(";")

    def constraint(self) -> Relation:
        lhs = self.expr()
        op_tok = self.peek()
        if op_tok.kind not in ("==", "<=", ">="):
            self.fail("expected a relation (==, <=, >=)")
        self.advance()
        rhs = self.expr()
        if self.peek().kind in ("<=", ">="):
            # ranged: lo <= body <= hi with literal ends
            second = self.peek()
            if op_tok.kind != "<=" or second.kind != "<=":
                self.fail("ranged constraints use <= on both sides", second)
            lo = _literal_value(lhs)
            if lo is None:
                self.fail("ranged constraint needs a numeric lower end", op_tok)
            self.advance()
            hi_expr = self.expr()
            hi = _literal_value(hi_expr)
            if hi is None:
                self.fail("ranged constraint needs a numeric upper end", second)
            if lo > hi:
                self.fail("empty constraint range", op_tok)
            return Relation(body=rhs, lo=lo, hi=hi)
        lv, rv = _literal_value(lhs), _literal_value(rhs)
        if op_tok.kind == "==":
            if rv is not None:
                return Relation(lhs, rv, rv)
            if lv is not None:
                return Relation(rhs, lv, lv)
            return Relation(Binary("-", lhs, rhs), 0.0, 0.0)
        if op_tok.kind == "<=":
            if rv is not None:
                return Relation(lhs, -np.inf, rv)
            if lv is not None:
                return Relation(rhs, lv, np.inf)
            return Relation(Binary("-", lhs, rhs), -np.inf, 0.0)
        # '>='
        if rv is not None:
            return Relation(lhs, rv, np.inf)
        if lv is not None:
            return Relation(rhs, -np.inf, lv)
        return Relation(Binary("-", lhs, rhs), 0.0, np.inf)

    # -- expressions --

    # the expression rules read self.toks[self.i] directly: they run once
    # per token and dominate the time to load a model

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.toks[self.i].kind) in ("+", "-"):
            self.i += 1
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (op := self.toks[self.i].kind) in ("*", "/"):
            self.i += 1
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.toks[self.i].kind == "-":
            self.i += 1
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.toks[self.i].kind == "^":
            self.i += 1
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        t = self.toks[self.i]
        if t.kind == "num":
            self.i += 1
            return Num(float(t.text))
        if t.kind == "ident":
            if t.text in FUNCTIONS:
                self.advance()
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(t.text, arg)
            if t.text in self.declared:
                self.advance()
                return Var(t.text)
            if t.text in KEYWORDS:
                self.fail(f"unexpected keyword {t.text!r}")
            raise UndeclaredVariable(
                f"undeclared variable {t.text!r}", t.line, t.col)
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        found = t.text if t.kind != "eof" else "end of input"
        self.fail(f"expected an expression, found {found!r}")


def _literal_value(e: Expr) -> Optional[float]:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Unary) and isinstance(e.operand, Num):
        return -e.operand.value
    return None


def parse_model(text: str, name: str = "model") -> Model:
    return _Parser(tokenize(text), name).parse()


# ------------------ pretty printer ------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return 3
    return 9


def format_expr(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({format_expr(e.arg)})"
    if isinstance(e, Unary):
        s = format_expr(e.operand)
        if _prec(e.operand) < 3:
            s = f"({s})"
        return f"-{s}"
    if isinstance(e, Binary):
        p = _PREC[e.op]
        ls = format_expr(e.left)
        rs = format_expr(e.right)
        if e.op == "^":
            if _prec(e.left) <= 4:
                ls = f"({ls})"
            if _prec(e.right) < 3:
                rs = f"({rs})"
        else:
            if _prec(e.left) < p:
                ls = f"({ls})"
            if _prec(e.right) <= p:
                rs = f"({rs})"
        return f"{ls} {e.op} {rs}"
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_bound(v: float) -> str:
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(float(v))


def format_model(m: Model) -> str:
    lines = []
    for v in m.variables:
        parts = [f"var {v.name}"]
        if not (np.isneginf(v.lb) and np.isposinf(v.ub)):
            parts.append(f"in [{_fmt_bound(v.lb)}, {_fmt_bound(v.ub)}]")
        if v.start != 0.0:
            parts.append(f"start {repr(float(v.start))}")
        lines.append(" ".join(parts) + ";")
    if m.objective is not None:
        lines.append(f"minimize {format_expr(m.objective)};")
    for r in m.constraints:
        body = format_expr(r.body)
        if r.lo == r.hi:
            lines.append(f"subject_to {body} == {_fmt_bound(r.lo)};")
        elif np.isneginf(r.lo) and np.isposinf(r.hi):
            continue    # vacuous row
        elif np.isneginf(r.lo):
            lines.append(f"subject_to {body} <= {_fmt_bound(r.hi)};")
        elif np.isposinf(r.hi):
            lines.append(f"subject_to {body} >= {_fmt_bound(r.lo)};")
        else:
            lines.append(
                f"subject_to {_fmt_bound(r.lo)} <= {body} <= {_fmt_bound(r.hi)};")
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------ lowering ------------------

def model_to_general(m: Model) -> GeneralProblem:
    env = {v.name: i for i, v in enumerate(m.variables)}
    n = len(m.variables)
    f_expr = Tape(m.objective if m.objective is not None else Num(0.0), env)
    cons = [Tape(r.body, env) for r in m.constraints]
    return GeneralProblem(
        name=m.name, n=n, f_expr=f_expr, con_exprs=cons,
        lb=np.array([v.lb for v in m.variables], dtype=float),
        ub=np.array([v.ub for v in m.variables], dtype=float),
        cl=np.array([r.lo for r in m.constraints], dtype=float),
        cu=np.array([r.hi for r in m.constraints], dtype=float),
        x0=np.array([v.start for v in m.variables], dtype=float),
        var_names=[v.name for v in m.variables])


def load_source(text: str, name: str = "model") -> NcoProblem:
    """Parse model text and lower it to a standard-form problem."""
    return to_standard_form(model_to_general(parse_model(text, name)))


def load_file(path) -> NcoProblem:
    p = Path(path)
    return load_source(p.read_text(), name=p.stem)
