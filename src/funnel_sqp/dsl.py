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

import itertools
import re
import string
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


# leading blanks are skipped inside each match and the last alternative
# catches any other character, so findall can only leave out trailing blanks
_TOKEN_RE = re.compile(
    r"""[ \t\r]*
      ( \#[^\n]*                                  # comment
      | \n                                        # newline
      | (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?      # number
      | [A-Za-z_][A-Za-z0-9_]*                    # identifier
      | <=|>=|==|[+\-*/^()\[\],;]                 # operator
      | [^ \t\r] )                                # anything else
    """,
    re.VERBOSE,
)
_OPERATORS = {"<=", ">=", "==", *"+-*/^()[],;"}
_NAME_START = frozenset(string.ascii_letters + "_")


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of text's tokens, ending with 'eof'. A lexeme is
    classified by its first character: a number's is what the pattern's \\d
    matches, str.isdecimal() (isdigit() would take '²'), or a '.' with more."""
    kinds: list[str] = []
    texts: list[str] = []
    for lexeme in _TOKEN_RE.findall(text):
        c = lexeme[0]
        if c in _NAME_START:
            kinds.append("ident")
        elif lexeme in _OPERATORS:
            kinds.append(lexeme)
        elif c.isdecimal() or (c == "." and len(lexeme) > 1):
            kinds.append("num")
        elif c == "#" or c == "\n":
            continue
        else:
            raise ParseError(f"unexpected character {lexeme!r}",
                             *_position(text, len(kinds)))
        texts.append(lexeme)
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _positions(text: str):
    """(line, col) of each token of text, then of the end of input."""
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        lexeme = m.group(1)
        if lexeme == "\n":
            line, line_start = line + 1, m.end()
        elif lexeme[0] != "#":
            yield line, m.start(1) - line_start + 1
    yield line, len(text) - line_start + 1


def _position(text: str, i: int) -> tuple[int, int]:
    """(line, col) of token i of text; worked out only to report an error."""
    return next(itertools.islice(_positions(text), i, None))


def tokenize(text: str) -> list[Token]:
    return [Token(*t, *p) for t, p in zip(zip(*_scan(text)), _positions(text))]


# ------------------ parser ------------------

class _Parser:
    """Recursive descent over _scan's kinds/texts lists. Only an identifier's
    text can be a keyword's and only eof's is empty, so those tests read it."""

    def __init__(self, text: str, name: str):
        self.source = text
        self.kinds, self.texts = _scan(text)
        self.i = 0
        self.model = Model(name=name)
        self.declared: dict[str, int] = {}

    def advance(self) -> str:
        self.i += 1
        return self.texts[self.i - 1]

    def expect(self, kind: str, what: str | None = None) -> str:
        if self.kinds[self.i] != kind:
            found = self.texts[self.i] or "end of input"
            self.fail(f"expected {what or kind!r}, found {found!r}")
        return self.advance()

    def fail(self, message: str, at: int | None = None, error=ParseError):
        """Raise error at token at, by default the current one."""
        raise error(message, *_position(self.source,
                                         self.i if at is None else at))

    # -- statements --

    def parse(self) -> Model:
        while t := self.texts[self.i]:
            if t == "var":
                self.var_decl()
            elif t == "minimize":
                self.minimize()
            elif t == "subject_to":
                self.subject_to()
            else:
                self.fail(f"expected a statement, found {t!r}")
        return self.model

    def var_decl(self):
        self.advance()
        at = self.i
        name = self.expect("ident", "a variable name")
        if name in KEYWORDS or name in FUNCTIONS:
            self.fail(f"{name!r} is reserved", at)
        if name in self.declared:
            self.fail(f"variable {name!r} already declared", at,
                      DuplicateDeclaration)
        decl = VarDecl(name=name)
        if self.texts[self.i] == "in":
            self.advance()
            self.expect("[")
            decl.lb = self.bound()
            self.expect(",")
            decl.ub = self.bound()
            self.expect("]")
            if decl.lb > decl.ub or decl.lb == np.inf or decl.ub == -np.inf:
                self.fail(f"empty bound interval for {name!r}", at)
        if self.texts[self.i] == "start":
            self.advance()
            decl.start = self.signed_number()
        self.expect(";")
        self.declared[name] = len(self.model.variables)
        self.model.variables.append(decl)

    def bound(self) -> float:
        sign = 1.0
        if self.kinds[self.i] in ("-", "+"):
            sign = -1.0 if self.advance() == "-" else 1.0
        if self.texts[self.i] == "inf":
            self.advance()
            return sign * np.inf
        if self.kinds[self.i] == "num":
            return sign * float(self.advance())
        self.fail("expected a number or inf")

    def signed_number(self) -> float:
        sign = 1.0
        if self.kinds[self.i] in ("-", "+"):
            sign = -1.0 if self.advance() == "-" else 1.0
        return sign * float(self.expect("num", "a number"))

    def minimize(self):
        at = self.i
        self.advance()
        if self.model.objective is not None:
            self.fail("duplicate objective", at)
        self.model.objective = self.expr()
        self.expect(";")

    def subject_to(self):
        self.advance()
        self.model.constraints.append(self.constraint())
        self.expect(";")

    def constraint(self) -> Relation:
        lhs = self.expr()
        op_at, op = self.i, self.kinds[self.i]
        if op not in ("==", "<=", ">="):
            self.fail("expected a relation (==, <=, >=)")
        self.advance()
        rhs = self.expr()
        if self.kinds[self.i] in ("<=", ">="):
            # ranged: lo <= body <= hi with literal ends
            second = self.i
            if op != "<=" or self.kinds[second] != "<=":
                self.fail("ranged constraints use <= on both sides", second)
            lo = _literal_value(lhs)
            if lo is None:
                self.fail("ranged constraint needs a numeric lower end", op_at)
            self.advance()
            hi_expr = self.expr()
            hi = _literal_value(hi_expr)
            if hi is None:
                self.fail("ranged constraint needs a numeric upper end", second)
            if lo > hi:
                self.fail("empty constraint range", op_at)
            return Relation(body=rhs, lo=lo, hi=hi)
        lv, rv = _literal_value(lhs), _literal_value(rhs)
        if op == "==":
            if rv is not None:
                return Relation(lhs, rv, rv)
            if lv is not None:
                return Relation(rhs, lv, lv)
            return Relation(Binary("-", lhs, rhs), 0.0, 0.0)
        if op == "<=":
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

    # the expression rules read self.kinds[self.i] directly: they run once
    # per token and dominate the time to load a model

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.kinds[self.i]) in ("+", "-"):
            self.i += 1
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (op := self.kinds[self.i]) in ("*", "/"):
            self.i += 1
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.kinds[self.i] == "-":
            self.i += 1
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.kinds[self.i] == "^":
            self.i += 1
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, t = self.kinds[self.i], self.texts[self.i]
        if kind == "num":
            self.i += 1
            return Num(float(t))
        if kind == "ident":
            if t in FUNCTIONS:
                self.i += 1
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(t, arg)
            if t in self.declared:
                self.i += 1
                return Var(t)
            if t in KEYWORDS:
                self.fail(f"unexpected keyword {t!r}")
            self.fail(f"undeclared variable {t!r}", error=UndeclaredVariable)
        if kind == "(":
            self.i += 1
            e = self.expr()
            self.expect(")")
            return e
        self.fail(f"expected an expression, found {t or 'end of input'!r}")


def _literal_value(e: Expr) -> Optional[float]:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Unary) and isinstance(e.operand, Num):
        return -e.operand.value
    return None


def parse_model(text: str, name: str = "model") -> Model:
    return _Parser(text, name).parse()


# ------------------ pretty printer ------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return 3
    return 9


def format_expr(e: Expr) -> str:
    # a long sum is a left spine as deep as it has terms: walk it in a loop
    # and recurse only into right operands, negations and call arguments
    spine = []
    while isinstance(e, Binary):
        spine.append(e)
        e = e.left
    if isinstance(e, Num):
        s = repr(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.fn}({format_expr(e.arg)})"
    elif isinstance(e, Unary):
        s = format_expr(e.operand)
        s = f"-({s})" if _prec(e.operand) < 3 else f"-{s}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    for b in reversed(spine):
        # ^ is right associative and takes a negation on its right
        p, rs = _PREC[b.op], format_expr(b.right)
        if _prec(b.left) < p + (b.op == "^"):
            s = f"({s})"
        if _prec(b.right) < (3 if b.op == "^" else p + 1):
            rs = f"({rs})"
        s = f"{s} {b.op} {rs}"
    return s


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
