"""Model expressions and the derivative tape they compile to.

Expression trees (Num, Var, Unary, Binary, Call) come from the model
language parser or from tracing a Python callable. The nodes overload the
arithmetic operators and have exp/log/sin/cos/sqrt methods, so a callable
written for floats builds a tree when it is called with a list of Var nodes
(numpy's np.exp and friends dispatch to those methods).

Tape compiles one tree into a flat op list over the k variables the tree
touches. Constant subtrees are folded, constant operands are folded into
their op and shared subtrees are compiled once, so every slot depends on a
variable. forward() runs an op list forward-over-forward (Griewank &
Walther, *Evaluating Derivatives*): for order 0, 1 or 2 each slot carries
its value, its gradient (k,) and its Hessian (k, k), or None while the slot
is linear, so a 2-variable constraint costs 2x2 however large n is. The
pass is vectorized over a batch of tapes with the same ops.

TapeSet is what a problem evaluates: it splits each expression into its
top-level terms and evaluates all terms of one shape in one batched pass.
It compiles on its first evaluation, not when a model is loaded.

Every operation runs on float64 arrays, so a domain fault (log of 0, sqrt
of a negative, 0 ** -1, overflow) gives inf or NaN, never an exception or,
under np.errstate, a warning. TapeSet raises NonFiniteValue for a
non-finite derivative and returns non-finite values for the caller.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import NonFiniteValue


class Node:
    """Operators shared by every expression node; they build new nodes."""

    __slots__ = ()

    def __add__(self, other):
        return _binary("+", self, other)

    def __radd__(self, other):
        return _binary("+", other, self)

    def __sub__(self, other):
        return _binary("-", self, other)

    def __rsub__(self, other):
        return _binary("-", other, self)

    def __mul__(self, other):
        return _binary("*", self, other)

    def __rmul__(self, other):
        return _binary("*", other, self)

    def __truediv__(self, other):
        return _binary("/", self, other)

    def __rtruediv__(self, other):
        return _binary("/", other, self)

    def __pow__(self, other):
        return _binary("^", self, other)

    def __rpow__(self, other):
        return _binary("^", other, self)

    def __neg__(self):
        return Unary("-", self)

    def __pos__(self):
        return self

    def exp(self):
        return Call("exp", self)

    def log(self):
        return Call("log", self)

    def sin(self):
        return Call("sin", self)

    def cos(self):
        return Call("cos", self)

    def sqrt(self):
        return Call("sqrt", self)


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Unary(Node):
    op: str            # only '-'
    operand: "Expr"


@dataclass(frozen=True)
class Binary(Node):
    op: str            # '+', '-', '*', '/', '^'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(Node):
    fn: str            # 'exp', 'log', 'sin', 'cos' or 'sqrt'
    arg: "Expr"


Expr = Union[Num, Var, Unary, Binary, Call]


def _binary(op: str, left, right):
    left, right = _as_node(left), _as_node(right)
    if left is None or right is None:
        return NotImplemented
    return Binary(op, left, right)


def _as_node(v):
    if isinstance(v, Node):
        return v
    if isinstance(v, (int, float, np.integer, np.floating)) \
            and not isinstance(v, bool):
        return Num(float(v))
    return None


# ------------------ op codes ------------------

# Binary ops read two slots; every other op reads one slot and a constant.
VAR, ADD, SUB, MUL, DIV = range(5)
NEG, ADDC, MULC, RSUBC, DIVC, RDIVC, POWC, RPOWC = range(5, 13)
EXP, LOG, SIN, COS, SQRT = range(13, 18)

_VALUE = {
    ADD: operator.add, SUB: operator.sub, MUL: operator.mul,
    DIV: operator.truediv,
    NEG: lambda u, c: -u, ADDC: operator.add, MULC: operator.mul,
    RSUBC: lambda u, c: c - u, DIVC: operator.truediv,
    RDIVC: lambda u, c: c / u, POWC: operator.pow,
    RPOWC: lambda u, c: c ** u,
    EXP: lambda u, c: np.exp(u), LOG: lambda u, c: np.log(u),
    SIN: lambda u, c: np.sin(u), COS: lambda u, c: np.cos(u),
    SQRT: lambda u, c: np.sqrt(u),
}


def _powc(u, c, v):
    # c is neither 0 nor 1 (those fold away), and 0 ** 0 = 1 keeps the
    # curvature 2 of u ^ 2 at u = 0
    return c * u ** (c - 1.0), c * (c - 1.0) * u ** (c - 2.0)


def _rpowc(u, c, v):
    lc = np.log(np.float64(c))
    return v * lc, v * lc * lc


def _log(u, c, v):
    d1 = 1.0 / u
    return d1, -d1 * d1


def _sqrt(u, c, v):
    d1 = 0.5 / v
    return d1, -0.5 * d1 / u


def _rdivc(u, c, v):
    d1 = -v / u
    return d1, -2.0 * d1 / u


# slope of each linear one-slot op, from its constant
_SLOPE = {NEG: lambda c: -1.0, ADDC: lambda c: 1.0, MULC: lambda c: c,
          RSUBC: lambda c: -1.0, DIVC: lambda c: 1.0 / np.float64(c)}
_LINEAR = {VAR, ADD, SUB, *_SLOPE}
# first and second derivative of each other one-slot op at u, given v
_DERIV = {
    RDIVC: _rdivc, POWC: _powc, RPOWC: _rpowc,
    EXP: lambda u, c, v: (v, v), LOG: _log,
    SIN: lambda u, c, v: (np.cos(u), -v),
    COS: lambda u, c, v: (-np.sin(u), -v),
    SQRT: _sqrt,
}

_CALL = {"exp": EXP, "log": LOG, "sin": SIN, "cos": COS, "sqrt": SQRT}
# op for (slot, constant) and for (constant, slot) operands; '-' with a
# constant right operand becomes ADDC of the negated constant
_WITH_CONST_RIGHT = {"+": ADDC, "*": MULC, "/": DIVC, "^": POWC}
_WITH_CONST_LEFT = {"+": ADDC, "-": RSUBC, "*": MULC, "/": RDIVC,
                    "^": RPOWC}
_BOTH = {"+": ADD, "-": SUB, "*": MUL, "/": DIV}


def _fold(code: int, a: float, b: float | None = None) -> float:
    """Constant subtree value, computed with the same float64 semantics."""
    with np.errstate(all="ignore"):
        return float(_VALUE[code](np.float64(a),
                                  None if b is None else np.float64(b)))


def _push(ops: list, code: int, a, b) -> int:
    ops.append((code, _VALUE[code] if code != VAR else None, a, b))
    return len(ops) - 1


def _curved(ops: list) -> bool:
    """Whether an op the result depends on is nonlinear. An op can be dead:
    in (x^2)^0 the square is compiled before the power folds to 1."""
    live = {len(ops) - 1}
    for i in range(len(ops) - 1, -1, -1):
        code, _, a, b = ops[i]
        if i in live and code != VAR:
            if code not in _LINEAR:
                return True
            live.update((a, b) if code <= DIV else (a,))
    return False


def _binary_op(ops: list, op: str, a, b):
    """Slot or folded value of a (op) b; each is a slot or a float."""
    ca, cb = type(a) is float, type(b) is float
    if ca and cb:
        return _fold(POWC if op == "^" else _BOTH[op], a, b)
    if cb:
        if op == "-":
            return _push(ops, ADDC, a, -b)
        if op == "^" and b in (0.0, 1.0):
            return 1.0 if b == 0.0 else a    # u^0 = 1 and u^1 = u exactly
        return _push(ops, _WITH_CONST_RIGHT[op], a, b)
    if ca:
        return _push(ops, _WITH_CONST_LEFT[op], b, a)
    if op == "^":
        # u ^ w = exp(w log u) when both sides vary
        w_log_u = _push(ops, MUL, b, _push(ops, LOG, a, None))
        return _push(ops, EXP, w_log_u, None)
    return _push(ops, _BOTH[op], a, b)


def _compile(expr, env: dict) -> tuple:
    """(ops, vars, const) of expr; see Tape."""
    ops: list[tuple] = []
    local: dict[int, int] = {}      # global index -> VAR slot
    # id(node) -> its slot (an int) or its folded value (a float)
    done: dict[int, int | float] = {}

    def visit(node):
        # the left spine of a chain like a + b + c is walked by a loop,
        # so the parser's left-deep sums compile at any length; only
        # right operands and function arguments recurse
        spine = []
        while type(node) is Binary and id(node) not in done:
            spine.append(node)
            node = node.left
        out = done.get(id(node))
        if out is None:
            kind = type(node)
            if kind is Num:
                out = float(node.value)
            elif kind is Var:
                i = env[node.name]
                if i not in local:
                    local[i] = _push(ops, VAR, len(local), i)
                out = local[i]
            elif kind is Unary or kind is Call:
                a = visit(node.arg if kind is Call else node.operand)
                code = _CALL[node.fn] if kind is Call else NEG
                out = _fold(code, a) if type(a) is float \
                    else _push(ops, code, a, None)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            done[id(node)] = out
        for b in reversed(spine):
            out = _binary_op(ops, b.op, out, visit(b.right))
            done[id(b)] = out
        return out

    out = visit(expr)
    del visit                       # a recursive closure is a cycle
    if type(out) is float:          # x ^ 0 folds even though x varies
        return [], [], out
    if out != len(ops) - 1:         # the result must be the last slot
        _push(ops, MULC, out, 1.0)
    return ops, list(local), 0.0


class Tape:
    """One expression compiled to a flat op list.

    vars holds the global indices of the touched variables in local order;
    ops is a list of (code, fn, a, b): slot i is written by ops[i] from slot
    a and either slot b (binary ops) or the constant b. VAR ops carry the
    local index in a and the global index in b. The last slot is the result;
    an expression without variables has no ops and the value const.
    Compilation waits for the first use of any of these.
    """

    def __init__(self, expr: Expr, env: dict):
        self.expr = expr
        self.env = env

    def __getattr__(self, name):
        # runs only while name is missing: compile on the first use, so a
        # tape that lowering replaces by a new one is never compiled
        if name not in ("ops", "const", "vars", "nonlinear"):
            raise AttributeError(name)
        self.ops, self.vars, self.const = _compile(self.expr, self.env)
        self.nonlinear = _curved(self.ops)
        return getattr(self, name)

    def __call__(self, args) -> float:
        """Plain value at a point given as a sequence of n numbers."""
        return float(self.value(args))

    def value(self, x):
        """Value at x (n numbers), inf or NaN on a domain fault."""
        return self.derivatives(x, 0)[0]

    def derivatives(self, x, order: int = 2):
        """(value, gradient (k,), Hessian (k, k)) at x, over self.vars.

        Below order 1 the gradient, and below order 2 the Hessian, is None;
        the Hessian is also None for a linear expression.
        """
        if not self.ops:
            return self.const, (np.zeros(0) if order else None), None
        X = np.asarray(x, dtype=float)[self.vars][None, :]
        with np.errstate(all="ignore"):
            v, g, H = forward(self.ops, X, order)
        if g is not None and g.ndim == 2:
            g = g[0]
        if H is not None and H.ndim == 3:
            H = H[0]
        return v[0], g, H


def _outer(a, b):
    """Outer products of two gradients, each (k,) or batched (G, k)."""
    return a[..., :, None] * b[..., None, :]


def forward(ops: list, X: np.ndarray, order: int):
    """One forward-over-forward pass of ops over a batch of points.

    Row r of X (G, k) holds the k variables one tape reads; every tape of
    the batch has these ops. Returns values (G,), then gradients from order
    1 and Hessians at order 2 (else None; also None for a linear op list).
    A gradient is (G, k), or (k,) while it is the same for every row, and a
    Hessian likewise (G, k, k) or (k, k).
    """
    second = order >= 2
    eye = np.eye(X.shape[1]) if order else None
    vals, grads, hess = [], [], []
    g = H = None
    for code, fn, a, b in ops:
        if code == VAR:
            v = X[:, a]
            if order:
                g, H = eye[a], None
        elif code <= DIV:
            u, w = vals[a], vals[b]
            v = fn(u, w)
            if order:
                ga, gb = grads[a], grads[b]
                if code == ADD:
                    g = ga + gb
                elif code == SUB:
                    g = ga - gb
                elif code == MUL:
                    g = u[:, None] * gb + w[:, None] * ga
                else:
                    g = (ga - v[:, None] * gb) / w[:, None]
                if second:
                    H = _binary_hessian(code, u, w, v, g, ga, gb,
                                        hess[a], hess[b])
        else:
            u = vals[a]
            v = fn(u, b)
            if order:
                ga = grads[a]
                Ha = hess[a] if second else None
                if code in _SLOPE:
                    if code == ADDC:
                        g, H = ga, Ha
                    else:
                        d1 = _SLOPE[code](b)
                        g = d1 * ga
                        H = None if Ha is None else d1 * Ha
                else:
                    d1, d2 = _DERIV[code](u, b, v)
                    g = d1[:, None] * ga
                    if second:
                        H = d2[:, None, None] * _outer(ga, ga)
                        if Ha is not None:
                            H = H + d1[:, None, None] * Ha
        vals.append(v)
        if order:
            grads.append(g)
            hess.append(H)
    return v, g, H


def _binary_hessian(code, u, w, v, g, ga, gb, Ha, Hb):
    """Hessians of u (+-*/) w from the operands' values and derivatives."""
    if code == ADD:
        if Ha is None:
            return Hb
        return Ha if Hb is None else Ha + Hb
    if code == SUB:
        if Hb is None:
            return Ha
        return -Hb if Ha is None else Ha - Hb
    if code == MUL:
        P = _outer(ga, gb)
        H = P + P.swapaxes(-1, -2)
        if Ha is not None:
            H = H + w[:, None, None] * Ha
        if Hb is not None:
            H = H + u[:, None, None] * Hb
        return H
    # q = u / w:  Hq = (Ha - q Hb - gq gb' - gb gq') / w
    P = _outer(g, gb)
    H = -(P + P.swapaxes(-1, -2))
    if Ha is not None:
        H = H + Ha
    if Hb is not None:
        H = H - v[:, None, None] * Hb
    return H / w[:, None, None]


def _terms(expr) -> list:
    """(sign, term) along the left spine of the top-level + and -.

    Adding the signed terms left to right repeats the tree's own additions,
    so the sum is bit for bit the value of expr.
    """
    if type(expr) is not Binary or expr.op not in ("+", "-"):
        return [(1.0, expr)]
    out = []
    while type(expr) is Binary and expr.op in ("+", "-"):
        out.append((1.0 if expr.op == "+" else -1.0, expr.right))
        expr = expr.left
    out.append((1.0, expr))
    return out[::-1]


def _shape(expr, env: dict) -> tuple:
    """(shape, vars): expr in pre-order, variables numbered by first
    appearance and a repeated subtree by a back-reference, and the global
    indices of the variables in that order.

    Trees of one shape compile to one op list up to the variables read.
    """
    kind = type(expr)
    if kind is Var:         # the commonest terms, after lowering
        return ("var", 0), [env[expr.name]]
    if kind is Num:
        return (expr.value,), []
    shape, seen, first = [], {}, {}
    stack = [expr]
    while stack:
        node = stack.pop()
        ref = first.get(id(node))
        if ref is not None:
            shape += ("ref", ref)
            continue
        first[id(node)] = len(shape)
        kind = type(node)
        if kind is Binary:
            shape.append(node.op)
            stack += (node.right, node.left)
        elif kind is Num:
            shape.append(node.value)
        elif kind is Var:
            i = env[node.name]
            shape += ("var", seen.setdefault(i, len(seen)))
        elif kind is Unary:
            shape.append("neg")
            stack.append(node.operand)
        elif kind is Call:
            shape.append(node.fn)
            stack.append(node.arg)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return tuple(shape), list(seen)


class TapeSet:
    """Expressions of one kind: the objective, or the constraint rows.

    Each expression is split into its signed top-level terms (_terms).
    Terms of one shape (_shape) form a group: one of them is compiled, and
    one batched pass of its ops evaluates them all. The 46 terms of a
    chained Rosenbrock objective are two groups. Values are summed per
    expression left to right; derivatives are scattered into dense arrays
    over n variables, and an inf or NaN among them raises NonFiniteValue.
    Evaluation runs under np.errstate, so a domain fault warns nowhere.
    """

    def __init__(self, tapes: list, n: int, name: str):
        self.n, self.size, self.name = n, len(tapes), name
        self._tapes = tapes

    @cached_property
    def _plan(self) -> tuple:
        """(groups, the nonlinear ones, constant terms (size, width)).

        Built on the first evaluation: a problem that is loaded but never
        evaluated compiles nothing.
        """
        split = [_terms(t.expr) for t in self._tapes]
        width = max(map(len, split), default=0)
        base = np.zeros((self.size, width))
        # shape -> (slots, signs, variables) of its terms, and one term
        shapes: dict[tuple, tuple] = {}
        for e, (t, ts) in enumerate(zip(self._tapes, split)):
            env = t.env
            for pos, (sign, node) in enumerate(ts):
                shape, vars_ = _shape(node, env)
                group = shapes.get(shape)
                if group is None:
                    group = shapes[shape] = ([], [], [], node, env)
                group[0].append(e * width + pos)
                group[1].append(sign)
                group[2].append(vars_)
        groups = []
        for slots, signs, index, node, env in shapes.values():
            if type(node) is Var:       # no need to compile a lone variable
                ops, nonlinear = [(VAR, None, 0, 0)], False
            else:
                ops, _, const = _compile(node, env)
                if not ops:             # a constant term
                    for slot, sign in zip(slots, signs):
                        base.flat[slot] = sign * const
                    continue
                nonlinear = _curved(ops)
            # _shape and the compiler both number the variables by first
            # appearance from the left, so row r of index lists term r's
            # variables in the order the ops read them
            groups.append(_Group(ops, nonlinear, np.array(index, np.intp),
                                 np.array(slots) // width, np.array(slots),
                                 np.array(signs)))
        return groups, [grp for grp in groups if grp.nonlinear], base

    @property
    def groups(self) -> list:
        return self._plan[0]

    @cached_property
    def _jac_index(self) -> np.ndarray:
        """Flat (n, size) position of every gradient entry of every group."""
        return _concat([(grp.index * self.size + grp.row[:, None]).ravel()
                        for grp in self.groups])

    @cached_property
    def _hess_index(self) -> np.ndarray:
        """Flat (size, n, n) position of every Hessian entry."""
        n = self.n
        return _concat([(grp.row[:, None, None] * (n * n)
                         + grp.index[:, :, None] * n
                         + grp.index[:, None, :]).ravel()
                        for grp in self._plan[1]])

    def values(self, x) -> np.ndarray:
        """(size,) expression values at x; inf or NaN on a domain fault."""
        x = np.asarray(x, dtype=float)
        groups, _, base = self._plan
        M = base.copy()
        with np.errstate(all="ignore"):
            for grp in groups:
                v = forward(grp.ops, x[grp.index], 0)[0]
                M.put(grp.slots, grp.sign * v)
            if not M.size:
                return np.zeros(self.size)
            return M.cumsum(axis=1)[:, -1].copy()   # not a view of M

    def jacobian(self, x) -> np.ndarray:
        """(n, size) gradients at x, one column per expression."""
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            w = [grp.sign[:, None] * forward(grp.ops, x[grp.index], 1)[1]
                 for grp in self.groups]
        return self._scatter(self._jac_index, w, (self.n, self.size),
                             "gradient")

    def hessians(self, x) -> np.ndarray:
        """(size, n, n) Hessians at x."""
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            w = [grp.sign[:, None, None]
                 * forward(grp.ops, x[grp.index], 2)[2]
                 for grp in self._plan[1]]
        return self._scatter(self._hess_index, w,
                             (self.size, self.n, self.n), "Hessian")

    def _scatter(self, index, weights, shape, what) -> np.ndarray:
        """Sum the weights into a zero array of shape at flat index."""
        if not weights:
            return np.zeros(shape)
        w = np.concatenate([a.ravel() for a in weights]) \
            if len(weights) > 1 else weights[0].ravel()
        if not np.isfinite(w).all():
            raise NonFiniteValue(
                f"{self.name} {what} evaluated to a non-finite value")
        return np.bincount(index, weights=w,
                           minlength=math.prod(shape)).reshape(shape)


def _concat(arrays: list) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.intp)


class _Group:
    """Terms sharing one op list: the variables each reads (G, k), the
    expression each belongs to, and the slot of its value in the (size,
    width) matrix of term values."""

    def __init__(self, ops, nonlinear, index, row, slots, sign):
        self.ops, self.nonlinear = ops, nonlinear
        self.index, self.row, self.slots, self.sign = index, row, slots, sign


def trace(fn, n: int) -> Tape:
    """Compile a Python callable over a list of n scalars.

    fn is called once with Var nodes named x[0], ..., x[n-1]; the tree it
    returns (or the constant) is compiled. fn must not branch on values.
    """
    xs = [Var(f"x[{i}]") for i in range(n)]
    out = fn(xs)
    node = _as_node(out)
    if node is None:
        raise TypeError(f"expression callable returned {type(out).__name__},"
                        " not an expression or a number")
    return Tape(node, {v.name: i for i, v in enumerate(xs)})
