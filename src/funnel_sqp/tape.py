"""Model expressions and the derivative tape they compile to.

Expression trees (Num, Var, Unary, Binary, Call) come from the model
language parser or from tracing a Python callable. The nodes overload the
arithmetic operators and have exp/log/sin/cos/sqrt methods, so a callable
written for floats builds a tree when it is called with a list of Var nodes
(numpy's np.exp and friends dispatch to those methods).

A Tape only holds one tree and its variable indices. _compile turns a tree
into a flat op list over the k variables the tree touches. Constant
subtrees are folded, constant operands are folded into their op and shared
subtrees are compiled once, so every slot depends on a variable. forward()
runs an op list forward-over-forward (Griewank & Walther, *Evaluating
Derivatives*): for order 0, 1 or 2 each slot carries its value, its
gradient (k,) and its Hessian (k, k), or None while the slot is linear, so
a 2-variable constraint costs 2x2 however large n is. The pass is
vectorized over a batch of tapes with the same ops.

TapeSet compiles and evaluates: on its first evaluation (not when a model
is loaded) it compiles each expression's top-level terms, and it evaluates
all terms with the same ops in one batched pass. jacobian keeps the
Hessians of nonlinear terms, so a point is differentiated in one pass.

Every operation runs on float64 arrays, so a domain fault (log of 0, sqrt
of a negative, 0 ** -1, overflow) gives inf or NaN, never an exception or,
under np.errstate, a warning. TapeSet raises NonFiniteValue for a
non-finite derivative and returns non-finite values for the caller.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .errors import NonFiniteValue


class Node:
    """Operators shared by every expression node; they build new nodes.

    ==, hash and repr work as the dataclass ones would, but walk the tree
    with a loop: the parser's sums are left spines as deep as they have
    terms, deeper than the recursion limit in a long model. A node's
    __init__ writes its fields into __dict__; nothing else may.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"expression nodes are immutable: {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        return all(a == b for a, b in
                   itertools.zip_longest(_preorder(self), _preorder(other)))

    def __hash__(self):
        return hash(tuple(_preorder(self)))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            e = stack.pop()
            if type(e) is str:
                out.append(e)
                continue
            parts = [f"{type(e).__name__}("]
            for i, (name, v) in enumerate(e.__dict__.items()):
                parts += [f"{', ' if i else ''}{name}=",
                          v if isinstance(v, Node) else repr(v)]
            stack += reversed(parts + [")"])
        return "".join(out)

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


def _preorder(node):
    """(class, the fields that are not nodes) of every node of a tree, in
    pre-order: two trees are equal exactly when these sequences are."""
    stack = [node]
    while stack:
        e = stack.pop()
        fields = e.__dict__.values()
        yield type(e), tuple(v for v in fields if not isinstance(v, Node))
        stack += reversed([v for v in fields if isinstance(v, Node)])


class Num(Node):
    def __init__(self, value: float):
        self.__dict__["value"] = value


class Var(Node):
    def __init__(self, name: str):
        self.__dict__["name"] = name


class Unary(Node):
    def __init__(self, op: str, operand: "Expr"):     # op is only '-'
        d = self.__dict__
        d["op"], d["operand"] = op, operand


class Binary(Node):
    def __init__(self, op: str, left: "Expr", right: "Expr"):
        d = self.__dict__           # op is '+', '-', '*', '/' or '^'
        d["op"], d["left"], d["right"] = op, left, right


class Call(Node):
    def __init__(self, fn: str, arg: "Expr"):
        d = self.__dict__           # fn is exp, log, sin, cos or sqrt
        d["fn"], d["arg"] = fn, arg


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
    """(ops, vars, const) of expr; env maps variable names to indices.

    vars holds the global indices of the touched variables in local order;
    ops is a list of (code, fn, a, b): slot i is written by ops[i] from slot
    a and either slot b (binary ops) or the constant b. VAR ops carry the
    local index in a and the global index in b. The last slot is the result;
    an expression without variables has no ops and the value const.
    """
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


@dataclass(frozen=True)
class Tape:
    """One expression and its env, the map of variable names to global
    indices. TapeSet compiles and evaluates it."""

    expr: Expr
    env: dict


def _outer(a, b):
    """Outer products of two gradients, each (k,) or batched (G, k)."""
    return a[..., :, None] * b[..., None, :]


@lru_cache(maxsize=64)
def _identity(k: int) -> np.ndarray:
    """The read-only k x k identity: its rows are the VAR gradients."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def forward(ops: list, X: np.ndarray, order: int):
    """One forward-over-forward pass of ops over a batch of points.

    Row r of X (G, k) holds the k variables one tape reads; every tape of
    the batch has these ops. Returns values (G,), then gradients from order
    1 and Hessians at order 2 (else None; also None for a linear op list).
    A gradient is (G, k), or (k,) while it is the same for every row, and a
    Hessian likewise (G, k, k) or (k, k).
    """
    second = order >= 2
    eye = _identity(X.shape[1]) if order else None
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


class TapeSet:
    """Expressions of one kind: the objective, or the constraint rows.

    Each expression is split into its signed top-level terms (_terms), and
    every term is compiled. Terms whose op lists agree up to the global
    indices of their VAR ops form a group, and one batched pass of those
    ops evaluates them all. The 46 terms of a chained Rosenbrock objective
    are two groups. Values are summed per expression left to right;
    derivatives are scattered into dense arrays over n variables, and an
    inf or NaN among them raises NonFiniteValue. The solver's Hessian is
    weighted_hessian: each term's Hessian scaled by its expression's weight
    and summed into one n x n array, never a stack per expression.
    jacobian(x) keeps the nonlinear groups' Hessians with the bytes of x,
    and weighted_hessian at those bytes reuses them; at any other x (even
    -0.0 for +0.0) it runs the pass. Evaluation runs under np.errstate.
    """

    def __init__(self, tapes: list, n: int, name: str):
        self.n, self.size, self.name = n, len(tapes), name
        self._tapes = tapes
        self._kept_x = None     # bytes of the x of the groups' .hessian

    @cached_property
    def _plan(self) -> tuple:
        """(groups, the nonlinear ones, constant terms (size, width)).

        Built on the first evaluation: a problem that is loaded but never
        evaluated compiles nothing.
        """
        split = [_terms(t.expr) for t in self._tapes]
        width = max(map(len, split), default=0)
        base = np.zeros((self.size, width))
        # op list without VAR global indices -> (ops, slots, signs, vars)
        groups_by_ops: dict[tuple, tuple] = {}
        for e, (t, ts) in enumerate(zip(self._tapes, split)):
            for pos, (sign, node) in enumerate(ts):
                ops, vars_, const = _compile(node, t.env)
                if not ops:             # a constant term
                    base[e, pos] = sign * const
                    continue
                key = tuple((code, a) if code == VAR else (code, a, b)
                            for code, _, a, b in ops)
                group = groups_by_ops.setdefault(key, (ops, [], [], []))
                group[1].append(e * width + pos)
                group[2].append(sign)
                group[3].append(vars_)
        groups = [_Group(ops, _curved(ops), np.array(index, np.intp),
                         np.array(slots) // width, np.array(slots),
                         np.array(signs))
                  for ops, slots, signs, index in groups_by_ops.values()]
        return groups, [grp for grp in groups if grp.nonlinear], base

    @property
    def groups(self) -> list:
        return self._plan[0]

    @cached_property
    def _jac_index(self) -> np.ndarray:
        """Flat (n, size) position of every gradient entry of every group."""
        return _concat([(grp.index * self.size + grp.row[:, None]).ravel()
                        for grp in self.groups])

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
        """(n, size) gradients at x, one column per expression. Nonlinear
        groups run at order 2 and keep their Hessians for weighted_hessian
        at the same x."""
        x = np.asarray(x, dtype=float)
        self._kept_x = None
        w = []
        with np.errstate(all="ignore"):
            for grp in self.groups:
                _, g, grp.hessian = forward(grp.ops, x[grp.index],
                                            2 if grp.nonlinear else 1)
                w.append(grp.sign[:, None] * g)
        self._kept_x = x.tobytes()
        return self._scatter(self._jac_index, w, (self.n, self.size),
                             "gradient")

    def hessians(self, x) -> np.ndarray:
        """(size, n, n) Hessians at x, one weighted_hessian per expression:
        a per-row view for tests and tools, which the solver never asks
        for."""
        unit = np.eye(self.size)
        return np.array([self.weighted_hessian(x, w) for w in unit]
                        ).reshape(self.size, self.n, self.n)

    def weighted_hessian(self, x, weights) -> np.ndarray:
        """(n, n) sum over expressions e of weights[e] times e's Hessian at
        x. A group whose terms all have weight zero is not evaluated, and
        at the last jacobian's x no group runs a pass."""
        x = np.asarray(x, dtype=float)
        weights = np.asarray(weights, dtype=float)
        kept = self._kept_x == x.tobytes()
        index, w = [], []
        with np.errstate(all="ignore"):
            for grp, at in zip(self._plan[1], self._pair_index):
                scale = weights[grp.row] * grp.sign
                if scale.any():
                    index.append(at)
                    H = grp.hessian if kept else \
                        forward(grp.ops, x[grp.index], 2)[2]
                    w.append(scale[:, None, None] * H)
        return self._scatter(_concat(index), w, (self.n, self.n), "Hessian")

    @cached_property
    def _pair_index(self) -> list:
        """Flat (n, n) position of every Hessian entry, per nonlinear group."""
        n = self.n
        return [(grp.index[:, :, None] * n + grp.index[:, None, :]).ravel()
                for grp in self._plan[1]]

    def _scatter(self, index, weights, shape, what) -> np.ndarray:
        """Sum the weights into a zero array of shape at flat index."""
        if not weights:
            return np.zeros(shape)
        w = _concat([a.ravel() for a in weights])
        if not np.isfinite(w).all():
            raise NonFiniteValue(
                f"{self.name} {what} evaluated to a non-finite value")
        return np.bincount(index, weights=w,
                           minlength=math.prod(shape)).reshape(shape)


def _concat(arrays: list) -> np.ndarray:
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.intp)


class _Group:
    """Terms sharing one op list: the variables each reads (G, k), the
    expression each belongs to, and the slot of its value in the (size,
    width) matrix of term values. jacobian sets hessian."""

    def __init__(self, ops, nonlinear, index, row, slots, sign):
        self.ops, self.nonlinear, self.hessian = ops, nonlinear, None
        self.index, self.row, self.slots, self.sign = index, row, slots, sign


def trace(fn, n: int) -> Tape:
    """The Tape of a Python callable over a list of n scalars.

    fn is called once with Var nodes named x[0], ..., x[n-1]; the tree it
    returns (or the constant) is the Tape's. fn must not branch on values.
    """
    xs = [Var(f"x[{i}]") for i in range(n)]
    out = fn(xs)
    node = _as_node(out)
    if node is None:
        raise TypeError(f"expression callable returned {type(out).__name__},"
                        " not an expression or a number")
    return Tape(node, {v.name: i for i, v in enumerate(xs)})
