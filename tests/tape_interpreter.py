"""The derivative tape's op-list interpreter: the bitwise oracle for the
compiled kernels of tape.py.

forward walks an op list of tape._compile one op at a time, with the
value and derivative rules as tables of its own, and runs the numpy
expressions each kernel must run in the same order. A kernel's (v, g, H)
must equal this forward's in bytes, shape and which of them are None.
"""

import operator
from functools import lru_cache

import numpy as np

from funnel_sqp.tape import (ADD, ADDC, COS, DIV, DIVC, EXP, LOG, MUL,
                             MULC, NEG, POWC, RDIVC, RPOWC, RSUBC, SIN, SQRT,
                             SUB, VAR)


# value of each op from u (slot a) and w (slot b) or c (the constant b)
VALUE = {
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
# first and second derivative of each other one-slot op at u, given v
_DERIV = {
    RDIVC: _rdivc, POWC: _powc, RPOWC: _rpowc,
    EXP: lambda u, c, v: (v, v), LOG: _log,
    SIN: lambda u, c, v: (np.cos(u), -v),
    COS: lambda u, c, v: (-np.sin(u), -v),
    SQRT: _sqrt,
}


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
    for code, a, b in ops:
        if code == VAR:
            v = X[:, a]
            if order:
                g, H = eye[a], None
        elif code <= DIV:
            u, w = vals[a], vals[b]
            v = VALUE[code](u, w)
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
            v = VALUE[code](u, b)
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
