"""Exact quadratic arithmetic: normalisation, signs, field errors, format."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympstairs.numbers import (
    IncompatibleFieldError,
    QuadNum,
    bounds,
    compare_values,
    format_exact,
    parse_exact,
    quad_make,
    sign,
    sqrt_rational,
)


def test_make_zero_collapses():
    assert quad_make(0, 0, 2) == Fraction(0)
    assert isinstance(quad_make(0, 0, 2), Fraction)


def test_make_perfect_square_collapses():
    assert quad_make(1, 1, Fraction(9, 4)) == Fraction(5, 2)


def test_make_normalises_radicand():
    x = quad_make(0, 1, Fraction(8, 4))
    assert isinstance(x, QuadNum)
    assert (x.p, x.q, x.d) == (0, 1, 2)
    # oracle: floating evaluation of sqrt(2)
    assert abs(float(x) - 1.4142135623730951) < 1e-12


def test_make_extracts_square_factors():
    x = quad_make(0, 1, 18)  # 18 = 9*2
    assert (x.p, x.q, x.d) == (0, 3, 2)
    y = quad_make(0, Fraction(1, 2), Fraction(50, 9))  # sqrt(50/9) = 5/3 sqrt(2)
    assert (y.p, y.q, y.d) == (0, Fraction(5, 6), 2)


def test_make_negative_radicand_rejected():
    with pytest.raises(ValueError):
        quad_make(1, 1, -2)


@pytest.mark.parametrize(
    "p,q,d,expected",
    [
        (3, -2, 2, 1),  # 9 > 8
        (0, 0, 5, 0),
        (-1, 1, 2, 1),  # sqrt(2) > 1
        (-3, 2, 2, -1),
        (0, -1, 7, -1),
        (2, 1, 3, 1),
    ],
)
def test_sign_cases(p, q, d, expected):
    assert sign(quad_make(p, q, d)) == expected


def test_sign_agrees_with_enclosure_on_random_values():
    # oracle: rational enclosure from integer square roots at 40 digits
    rng = random.Random(1234)
    for _ in range(1000):
        p = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        d = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        x = quad_make(p, q, d)
        lo, hi = bounds(x, 40)
        if hi < -Fraction(1, 10**30):
            assert sign(x) == -1
        elif lo > Fraction(1, 10**30):
            assert sign(x) == 1


def test_conjugate_product():
    s2 = sqrt_rational(2)
    assert (1 + s2) * (1 - s2) == Fraction(-1)


def test_squaring_removes_radical():
    lam = sqrt_rational(Fraction(9, 2 * 2))  # a=9, b=2: collapses to 3/2
    assert lam == Fraction(3, 2)
    mu = sqrt_rational(Fraction(7, 4))
    assert mu * mu == Fraction(7, 4)


def test_componentwise_sum():
    s2 = sqrt_rational(2)
    assert (2 + 3 * s2) + (1 - s2) == 2 * s2 + 3


def test_arith_rules():
    s5 = sqrt_rational(5)
    x = Fraction(1, 3) + Fraction(2, 7) * s5
    assert x * (1 / x) == Fraction(1)
    y = 2 - s5
    assert (x + y) - y == x
    assert x - x == 0
    assert (x / y) * y == x


def test_incompatible_fields_raise():
    with pytest.raises(IncompatibleFieldError):
        sqrt_rational(2) + sqrt_rational(3)
    with pytest.raises(IncompatibleFieldError):
        sqrt_rational(2) < sqrt_rational(3)


def test_mixed_field_comparison_via_rational():
    # supported mixed comparison: sign of (x - r) for rational r
    assert sqrt_rational(2) > Fraction(7, 5)
    assert sqrt_rational(2) < Fraction(3, 2)
    assert Fraction(3, 2) > sqrt_rational(2)


def test_compare_values_across_fields():
    assert compare_values(sqrt_rational(2), sqrt_rational(3)) == -1
    assert compare_values(sqrt_rational(3), sqrt_rational(2)) == 1
    # nearly equal values from distinct fields still separate
    x = sqrt_rational(2)  # 1.41421356...
    y = Fraction(141421356237, 10**11) + sqrt_rational(5) * Fraction(1, 10**14)
    assert compare_values(x, y) in (-1, 1)


@settings(max_examples=200, deadline=None)
@given(
    p=st.fractions(min_value=-10, max_value=10, max_denominator=30),
    q=st.fractions(min_value=-10, max_value=10, max_denominator=30),
    s=st.fractions(min_value=0, max_value=10, max_denominator=30),
)
def test_square_radicand_is_rational(p, q, s):
    assert quad_make(p, q, s * s) == p + q * s


@settings(max_examples=200, deadline=None)
@given(
    p=st.fractions(min_value=-10, max_value=10, max_denominator=20),
    q=st.fractions(min_value=-10, max_value=10, max_denominator=20),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 13]),
)
def test_field_axioms(p, q, d):
    x = quad_make(p, q, d)
    if sign(x) != 0:
        assert x * (1 / x) == Fraction(1)
    assert x + (-x) == 0 or sign(x + (-x)) == 0


def test_immutability_and_hash():
    x = sqrt_rational(2)
    with pytest.raises(AttributeError):
        x.p = Fraction(1)
    assert hash(x) == hash(sqrt_rational(2))
    assert x == sqrt_rational(2)
    assert x != sqrt_rational(3)
    assert x != Fraction(1)


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(17, 12), "17/12"),
        (Fraction(5), "5"),
        (Fraction(-3, 4), "-3/4"),
        (sqrt_rational(2), "0+1*sqrt(2)"),
        (Fraction(5, 2) - sqrt_rational(7) / 3, "5/2-1/3*sqrt(7)"),
        (-1 + 2 * sqrt_rational(3), "-1+2*sqrt(3)"),
    ],
)
def test_format_round_trip(value, text):
    assert format_exact(value) == text
    assert parse_exact(text) == value


def test_parse_accepts_sugar():
    assert parse_exact("sqrt(2)") == sqrt_rational(2)
    assert parse_exact("3*sqrt(2)") == 3 * sqrt_rational(2)
    assert parse_exact("sqrt(9/4)") == Fraction(3, 2)
    assert parse_exact("-sqrt(2)") == -sqrt_rational(2)
    with pytest.raises(ValueError):
        parse_exact("1.5")
    with pytest.raises(ValueError):
        parse_exact("sqrt(-2)")


def test_float_presentation():
    assert float(Fraction(17, 12)) == pytest.approx(1.4166666666667, abs=1e-12)
    assert float(sqrt_rational(2)) == pytest.approx(math.sqrt(2), abs=1e-14)


def test_pow_small_exponents():
    s2 = sqrt_rational(2)
    assert s2**0 == 1
    assert s2**2 == 2
    assert (1 + s2) ** 2 == 3 + 2 * s2
