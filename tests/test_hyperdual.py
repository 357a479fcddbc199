"""Forward second-order AD against central differences and exact identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, fd_hessian
from funnel_sqp.errors import NonFiniteValue
from funnel_sqp.hyperdual import (HyperDual, gradient, hd_cos, hd_exp, hd_log,
                                  hd_sin, hd_sqrt, hessian, value)

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def seeded(v, d1=1.0, d2=1.0):
    return HyperDual(v, d1, d2, 0.0)


class TestArithmetic:
    def test_product_rule_cross_term(self):
        # d2/(da db) of (a * b) at independent seeds is exactly 1
        a = HyperDual(2.0, 1.0, 0.0, 0.0)
        b = HyperDual(3.0, 0.0, 1.0, 0.0)
        p = a * b
        assert p.value == 6.0
        assert p.first1 == 3.0
        assert p.first2 == 2.0
        assert p.second == 1.0

    def test_division_matches_reciprocal_product(self):
        x = seeded(1.7)
        y = seeded(0.6, d1=0.5, d2=-2.0)
        q = x / y
        r = x * (HyperDual(1.0) / y)
        for attr in ("value", "first1", "first2", "second"):
            assert math.isclose(getattr(q, attr), getattr(r, attr),
                                rel_tol=1e-13, abs_tol=1e-13)

    def test_float_mixing(self):
        x = seeded(2.0)
        assert (1.0 + x).value == 3.0
        assert (x - 0.5).first1 == 1.0
        assert (2.0 * x).second == 0.0
        assert (6.0 / seeded(2.0)).value == 3.0

    def test_negation(self):
        x = seeded(1.0, d1=2.0, d2=3.0)
        y = -x
        assert (y.value, y.first1, y.first2) == (-1.0, -2.0, -3.0)

    def test_integer_power(self):
        x = seeded(1.5)
        p = x ** 3
        assert math.isclose(p.value, 1.5 ** 3)
        assert math.isclose(p.first1, 3 * 1.5 ** 2)
        assert math.isclose(p.second, 6 * 1.5)

    def test_zero_base_high_power(self):
        # d2/dx2 of x^2 is 2 at x = 0 too
        p = seeded(0.0) ** 2
        assert p.value == 0.0 and p.first1 == 0.0 and p.second == 2.0

    def test_negative_base_fractional_power_raises(self):
        with pytest.raises(NonFiniteValue):
            seeded(-2.0) ** 0.5

    def test_hyperdual_exponent(self):
        # x^x = exp(x log x)
        x = seeded(1.3)
        p = x ** x
        e = (x * x.log()).exp()
        assert math.isclose(p.value, e.value, rel_tol=1e-13)
        assert math.isclose(p.second, e.second, rel_tol=1e-12)


class TestTranscendental:
    def test_exp_log_roundtrip(self):
        x = seeded(0.8)
        y = x.exp().log()
        assert math.isclose(y.value, 0.8, rel_tol=1e-14)
        assert math.isclose(y.first1, 1.0, rel_tol=1e-12)
        assert abs(y.second) <= 1e-12

    def test_sin_cos_pythagorean(self):
        x = seeded(0.4, d1=1.0, d2=2.0)
        s, c = x.sin(), x.cos()
        ident = s * s + c * c
        assert math.isclose(ident.value, 1.0, rel_tol=1e-14)
        assert abs(ident.first1) <= 1e-14
        assert abs(ident.second) <= 1e-13

    def test_sqrt_second_derivative(self):
        x = seeded(4.0)
        r = x.sqrt()
        assert math.isclose(r.value, 2.0)
        assert math.isclose(r.first1, 0.25)
        assert math.isclose(r.second, -1.0 / 32.0)

    def test_log_domain(self):
        with pytest.raises(NonFiniteValue):
            seeded(0.0).log()
        with pytest.raises(NonFiniteValue):
            seeded(-1.0).sqrt()

    def test_module_helpers_dispatch(self):
        assert hd_exp(0.0) == 1.0
        assert math.isclose(hd_log(math.e), 1.0)
        assert hd_sin(0.0) == 0.0
        assert hd_cos(0.0) == 1.0
        assert hd_sqrt(9.0) == 3.0
        assert isinstance(hd_exp(seeded(1.0)), HyperDual)


def rosen(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def trig_mix(x):
    return hd_sin(x[0] * x[1]) + hd_exp(x[0] - x[1]) / (1.0 + x[1] * x[1])


class TestDrivers:
    def test_value(self):
        assert value(rosen, np.array([1.0, 1.0])) == 0.0

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(3)
        for fn in (rosen, trig_mix):
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=2)
                g = gradient(fn, x)
                g_fd = fd_gradient(lambda z: value(fn, z), x)
                assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-7)

    def test_hessian_vs_fd(self):
        rng = np.random.default_rng(5)
        for fn in (rosen, trig_mix):
            for _ in range(10):
                x = rng.uniform(-1.2, 1.2, size=2)
                H = hessian(fn, x)
                H_fd = fd_hessian(lambda z: value(fn, z), x)
                assert np.allclose(H, H_fd, rtol=1e-4, atol=1e-4)

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=3)

            def fn(z):
                return z[0] * z[1] * z[2] + hd_exp(z[0]) * z[2] \
                    + hd_sin(z[1] * z[2])

            H = hessian(fn, x)
            # both triangles come from the same seeded passes
            assert np.array_equal(H, H.T)

    def test_nonfinite_propagates(self):
        def bad(z):
            return z[0] * 1e308 * 10.0

        with pytest.raises(NonFiniteValue):
            gradient(bad, np.array([1.0]))

    @given(finite, finite)
    @settings(max_examples=80, deadline=None)
    def test_exp_sum_identity(self, a, b):
        # exp(a + b) = exp(a) exp(b) carried through to second derivatives
        x = HyperDual(a, 1.0, 1.0, 0.0)
        y = HyperDual(b, 1.0, 1.0, 0.0)
        lhs = (x + y).exp()
        rhs = x.exp() * y.exp()
        assert math.isclose(lhs.value, rhs.value,
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(lhs.second, rhs.second,
                            rel_tol=1e-10, abs_tol=1e-10)
