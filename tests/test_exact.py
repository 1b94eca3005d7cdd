"""Exact arithmetic kernel: radicals and factorial poles."""

from fractions import Fraction

import pytest

from extremal.exact import (
    POLE,
    PoleError,
    Radical,
    factorial,
    factorial_ratio,
    parse_radical,
    sqrt_of_rational,
)


def test_radical_canonicalization():
    # sqrt(8) = 2*sqrt(2); sqrt(9) = 3
    assert Radical({8: 1}) == Radical({2: 2})
    assert Radical({9: 1}) == Radical.from_rational(3)
    assert Radical({4: Fraction(1, 2)}) == Radical.from_rational(1)


def test_radical_arithmetic_field_ops():
    r2 = sqrt_of_rational(2)
    r3 = sqrt_of_rational(3)
    x = r2 + r3
    assert x * x == Radical({1: 5, 6: 2})
    assert (r2 * r3) == sqrt_of_rational(6)
    assert x - x == Radical.from_rational(0)
    assert not (x - x)


def test_radical_inverse():
    x = sqrt_of_rational(2) + Radical.from_rational(1)
    assert x * x.inverse() == Radical.from_rational(1)
    y = sqrt_of_rational(6) + sqrt_of_rational(2) - Radical.from_rational(3)
    assert y * y.inverse() == Radical.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        Radical.from_rational(0).inverse()


def test_radical_division_and_pow():
    r2 = sqrt_of_rational(2)
    assert (Radical.from_rational(1) / r2) == Radical({2: Fraction(1, 2)})
    assert r2 ** 4 == Radical.from_rational(4)


def test_radical_str_parse_roundtrip():
    vals = [
        Radical.from_rational(0),
        Radical.from_rational(Fraction(-5, 3)),
        sqrt_of_rational(Fraction(1, 2)),
        sqrt_of_rational(12, sign=-1) + Radical.from_rational(2),
        Radical({1: Fraction(1, 3), 2: Fraction(-2, 7), 5: 1}),
    ]
    for v in vals:
        assert parse_radical(str(v)) == v


def test_radical_sign_and_float():
    assert (sqrt_of_rational(2) - Radical.from_rational(1)).sign() == 1
    assert (sqrt_of_rational(2) - Radical.from_rational(2)).sign() == -1
    assert Radical.from_rational(0).sign() == 0
    assert abs(float(sqrt_of_rational(2)) - 2 ** 0.5) < 1e-12


def test_sqrt_of_rational():
    assert sqrt_of_rational(Fraction(4, 9)) == Radical.from_rational(Fraction(2, 3))
    assert sqrt_of_rational(Fraction(1, 2)) == Radical({2: Fraction(1, 2)})
    with pytest.raises(ValueError):
        sqrt_of_rational(-1)


def test_factorial_pole_convention():
    assert factorial(4) == 24
    assert factorial(0) == 1
    assert factorial(-2) is POLE
    with pytest.raises(ValueError):
        factorial(Fraction(1, 2))


def test_factorial_ratio_denominator_pole_is_zero():
    # a pole among the denominators kills the whole term
    assert factorial_ratio([3], [-1]) == 0
    assert factorial_ratio([3, 2], [1, -4, 2]) == 0


def test_factorial_ratio_numerator_pole_raises():
    with pytest.raises(PoleError):
        factorial_ratio([-1], [2])
    # but a denominator pole is checked first, so mixed terms vanish quietly
    assert factorial_ratio([-1], [-2]) == 0


def test_factorial_ratio_value():
    assert factorial_ratio([5], [3, 2]) == Fraction(10)
    assert factorial_ratio([], []) == 1
