"""Hyper-dual numbers: the independent oracle for the derivative tape.

A hyper-dual number carries a value and three infinitesimal parts
(eps1, eps2, eps1*eps2 with eps1^2 = eps2^2 = 0). Seeding eps1 on x_i and
eps2 on x_j makes ``second`` the exact mixed partial d2f/dx_i dx_j, with no
truncation error (Fike & Alonso, 2011). One function evaluation yields one
Hessian entry, so a full n x n Hessian costs n*(n+1)/2 evaluations and a
gradient costs n.

The solver gets its derivatives from the compiled tape (tape.py); this
module shares no code with it and is kept so the tests can check the tape
against a second, scalar implementation. A domain fault (log or sqrt at or
below 0, a zero divisor, 0 to a power whose derivatives are infinite,
overflow) raises NonFiniteValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue


@dataclass
class HyperDual:
    value: float    # real part
    first1: float = 0.0   # eps1 coefficient
    first2: float = 0.0   # eps2 coefficient
    second: float = 0.0   # eps1*eps2 coefficient

    # ------------------ arithmetic ------------------

    def __add__(self, other):
        o = _lift(other)
        return HyperDual(self.value + o.value, self.first1 + o.first1,
                         self.first2 + o.first2, self.second + o.second)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.value, -self.first1, -self.first2, -self.second)

    def __sub__(self, other):
        o = _lift(other)
        return HyperDual(self.value - o.value, self.first1 - o.first1,
                         self.first2 - o.first2, self.second - o.second)

    def __rsub__(self, other):
        return _lift(other).__sub__(self)

    def __mul__(self, other):
        o = _lift(other)
        return HyperDual(
            self.value * o.value,
            self.first1 * o.value + self.value * o.first1,
            self.first2 * o.value + self.value * o.first2,
            self.second * o.value + self.first1 * o.first2
            + self.first2 * o.first1 + self.value * o.second,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return _lift(other) * self._reciprocal()

    def _reciprocal(self):
        v = self.value
        if v == 0.0:
            raise NonFiniteValue("division by zero")
        return self._chain(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def __pow__(self, p):
        if isinstance(p, HyperDual):
            if p.first1 == 0.0 and p.first2 == 0.0 and p.second == 0.0:
                return self.__pow__(p.value)
            # general u^w = exp(w * log u); requires u > 0
            return (p * self.log()).exp()
        v = self.value
        if v < 0.0 and p != int(p):
            raise NonFiniteValue(f"negative base {v} with fractional exponent {p}")
        if v == 0.0 and p < 2 and p not in (0, 1):
            raise NonFiniteValue(f"zero base with exponent {p}")
        # zero coefficients stay exact zeros: 0 ** 2 keeps its curvature 2
        d1 = p * v ** (p - 1) if p != 0 else 0.0
        d2 = p * (p - 1) * v ** (p - 2) if p not in (0, 1) else 0.0
        return self._chain(v ** p, d1, d2)

    def __rpow__(self, base):
        return _lift(base).__pow__(self)

    # ------------------ elementary functions ------------------

    def exp(self):
        e = math.exp(self.value)
        return self._chain(e, e, e)

    def log(self):
        v = self.value
        if v <= 0.0:
            raise NonFiniteValue(f"log of non-positive value {v}")
        return self._chain(math.log(v), 1.0 / v, -1.0 / (v * v))

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c)

    def sqrt(self):
        v = self.value
        if v <= 0.0:
            raise NonFiniteValue(f"sqrt of non-positive value {v}")
        r = math.sqrt(v)
        return self._chain(r, 0.5 / r, -0.25 / (r * v))

    def _chain(self, g, dg, d2g):
        """Compose with a scalar function given g(v), g'(v), g''(v)."""
        return HyperDual(
            g,
            dg * self.first1,
            dg * self.first2,
            d2g * self.first1 * self.first2 + dg * self.second,
        )

    def __repr__(self):
        return (f"HyperDual({self.value!r}, {self.first1!r}, "
                f"{self.first2!r}, {self.second!r})")


def _lift(x):
    if isinstance(x, HyperDual):
        return x
    return HyperDual(float(x))


# numpy ufunc-style helpers so expression callables can be written generically
def hd_exp(x):
    return x.exp() if isinstance(x, HyperDual) else np.exp(x)


def hd_log(x):
    return x.log() if isinstance(x, HyperDual) else np.log(x)


def hd_sin(x):
    return x.sin() if isinstance(x, HyperDual) else np.sin(x)


def hd_cos(x):
    return x.cos() if isinstance(x, HyperDual) else np.cos(x)


def hd_sqrt(x):
    return x.sqrt() if isinstance(x, HyperDual) else np.sqrt(x)


def _check_finite(v: float, what: str) -> float:
    if not np.isfinite(v):
        raise NonFiniteValue(f"{what} evaluated to {v}")
    return v


def _call(fn, args) -> HyperDual:
    try:
        return _lift(fn(args))
    except (OverflowError, ZeroDivisionError) as e:
        raise NonFiniteValue(f"arithmetic fault: {e}") from e


def value(fn, x: np.ndarray) -> float:
    """Plain function value through the hyper-dual path (consistency checks)."""
    args = [HyperDual(float(xi)) for xi in x]
    return _check_finite(_call(fn, args).value, "function")


def gradient(fn, x: np.ndarray) -> np.ndarray:
    """Exact gradient of fn at x in n evaluations.

    fn takes a list of HyperDual and returns one (or a constant).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    g = np.zeros(n)
    for i in range(n):
        args = [HyperDual(float(xj), first1=(1.0 if j == i else 0.0))
                for j, xj in enumerate(x)]
        g[i] = _check_finite(_call(fn, args).first1, f"gradient component {i}")
    return g


def hessian(fn, x: np.ndarray) -> np.ndarray:
    """Exact Hessian of fn at x in n*(n+1)/2 evaluations.

    Both triangles are filled from the same evaluation so the result is
    bit-for-bit symmetric.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            args = [HyperDual(float(xk),
                              first1=(1.0 if k == i else 0.0),
                              first2=(1.0 if k == j else 0.0))
                    for k, xk in enumerate(x)]
            hij = _check_finite(_call(fn, args).second,
                                f"hessian entry ({i},{j})")
            H[i, j] = hij
            H[j, i] = hij
    return H
