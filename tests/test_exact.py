"""Exact arithmetic kernel: radicals and factorial poles."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import extremal
from extremal import exact
from extremal.exact import (
    PoleError,
    Radical,
    _factorial_split,
    _squarefree_split,
    factorial_ratio,
    integer,
    parse_radical,
    sqrt_factorial_ratio,
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
    # division is a product with the inverse, a power a repeated product
    r2 = sqrt_of_rational(2)
    assert Radical.from_rational(1) * r2.inverse() == Radical({2: Fraction(1, 2)})
    assert r2 * r2 * r2 * r2 == Radical.from_rational(4)


def test_radical_str_parse_roundtrip():
    vals = [
        Radical.from_rational(0),
        Radical.from_rational(Fraction(-5, 3)),
        sqrt_of_rational(Fraction(1, 2)),
        -sqrt_of_rational(12) + Radical.from_rational(2),
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


@pytest.mark.parametrize("x, n", [(3, 3), (-2, -2), (1.0, 1), ("1", 1), ("-4", -4),
                                  (Fraction(6, 3), 2), (True, 1)])
def test_integer_accepts_integral_values(x, n):
    got = integer(x)
    assert got == n and type(got) is int


@pytest.mark.parametrize("x", [Fraction(3, 2), 1.5, "3/2", 1.9, "2.7", "x"])
def test_integer_refuses_a_value_it_would_have_to_truncate(x):
    with pytest.raises(ValueError):
        integer(x)


def test_factorial_ratio_non_integer_raises():
    with pytest.raises(ValueError):
        factorial_ratio([Fraction(1, 2)], [])
    with pytest.raises(ValueError):
        factorial_ratio([2], [Fraction(3, 2)])
    assert factorial_ratio([Fraction(4)], [Fraction(2, 1)]) == 12


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


def test_exact_imports_no_sympy():
    # the kernel is plain integer arithmetic: sympy stays unloaded
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import extremal.exact as ex\n"
        "ex.sqrt_of_rational(Fraction(8, 3))\n"
        "ex.Radical({12: 1, 2: Fraction(-3, 5)}).sign()\n"
        "ex.factorial_ratio([7], [2, 3])\n"
        "print('sympy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(extremal.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# -- properties on generated inputs -----------------------------------

_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_radicals = st.dictionaries(st.integers(1, 40), _fractions, max_size=4).map(Radical)


def _mp(x):
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
                       for d, c in x.terms.items())


def _mp_sign(x):
    with mpmath.workdps(80):
        v = _mp(x)
        assert v == 0 or abs(v) > mpmath.mpf(10) ** -60, "too close to call"
        return int(mpmath.sign(v))


@settings(max_examples=100, deadline=None)
@given(_radicals, _radicals, _radicals)
def test_radical_field_axioms(x, y, z):
    zero, one = Radical.from_rational(0), Radical.from_rational(1)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x - x == zero
    assert hash(x + y) == hash(y + x)
    if x:
        assert x * x.inverse() == one
        assert x.inverse().inverse() == x
        if y:
            assert (x * y).inverse() == x.inverse() * y.inverse()
            assert (y * x.inverse()) * x == y


def test_rational_radical_hashes_as_its_fraction():
    # == treats a rational Radical as its int or Fraction, so hash must too
    for q in (0, 3, -2, Fraction(1, 2), Fraction(-7, 3)):
        r = Radical.from_rational(q)
        assert r == q and hash(r) == hash(q) == hash(Fraction(q))
        assert {q: "x"}.get(r) == "x" and {r: "y"}.get(q) == "y"
        assert len({r, q}) == 1
    assert Radical({2: 1}) != 2 and Radical({2: 1}) != None  # noqa: E711


@settings(max_examples=100, deadline=None)
@given(_radicals)
def test_radical_sign_matches_mpmath(x):
    assert x.sign() == _mp_sign(x)
    assert (-x).sign() == -x.sign()


@settings(max_examples=50, deadline=None)
@given(_radicals, st.integers(4, 14))
def test_radical_sign_near_cancellation(x, digits):
    # subtract a decimal approximation, so the difference is below 10^-digits
    with mpmath.workdps(80):
        approx = Fraction(int(mpmath.floor(_mp(x) * 10 ** digits)), 10 ** digits)
    y = x - approx
    assert y.sign() == _mp_sign(y)


@pytest.mark.parametrize("n", [2, 6, 13, 24, 40])
def test_radical_sign_near_integer_powers(n):
    # (sqrt2 + sqrt3)^n is within (sqrt3 - sqrt2)^n of an integer
    x = math.prod([sqrt_of_rational(2) + sqrt_of_rational(3)] * n)
    with mpmath.workdps(80):
        v = _mp(x)
        lo, hi = int(mpmath.floor(v)), int(mpmath.ceil(v))
    assert (x - lo).sign() == 1
    assert (x - hi).sign() == -1
    assert (x - lo).sign() == _mp_sign(x - lo)
    assert (-(x - hi)).sign() == _mp_sign(-(x - hi))


def _split_oracle(n):
    k, d = 1, 1
    for p, e in sympy.factorint(n).items():
        k *= p ** (e // 2)
        d *= p ** (e % 2)
    return k, d


_primes = st.integers(2, 10 ** 6).map(sympy.nextprime)
_radicands = st.one_of(
    st.integers(1, 10 ** 12),
    st.builds(lambda p, q: p * q, _primes, _primes),
    st.builds(lambda p, q, m: p * p * q * m, _primes, _primes, st.integers(1, 1000)),
    st.builds(lambda ns, q: math.prod(map(math.factorial, ns)) * q,
              st.lists(st.integers(0, 80), min_size=1, max_size=6), _primes),
)


@settings(max_examples=200, deadline=None)
@given(_radicands)
def test_squarefree_split_matches_factorint(n):
    assert _squarefree_split(n) == _split_oracle(n)


_args = st.lists(st.integers(-2, 40), max_size=6)
_scales = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                    st.fractions(max_denominator=10 ** 4))


@settings(max_examples=400, deadline=None)
@given(_args, _args, st.integers(0, 10 ** 6), _scales)
def test_sqrt_factorial_ratio_matches_the_formed_ratio(nums, dens, extra, scale):
    # poles, zero ratios, zero scales and extra > 1 all occur
    try:
        want = sqrt_of_rational(extra * factorial_ratio(nums, dens)) * scale
    except PoleError:
        with pytest.raises(PoleError):
            sqrt_factorial_ratio(nums, dens, extra, scale)
        return
    got = sqrt_factorial_ratio(nums, dens, extra, scale)
    assert got == want and hash(got) == hash(want)
    assert got.terms == want.terms and all(type(c) is Fraction for c in got.terms.values())


def test_sqrt_factorial_ratio_poles():
    assert sqrt_factorial_ratio([3, -1], [2, -1]) == 0
    assert sqrt_factorial_ratio([-1], [-2], extra=5, scale=7) == 0
    with pytest.raises(PoleError):
        sqrt_factorial_ratio([-1], [2], scale=0)
    with pytest.raises(ValueError):
        sqrt_factorial_ratio([Fraction(1, 2)], [])
    # sqrt(2 * 4! / 2!) / 2 = sqrt(24) / 2
    assert sqrt_factorial_ratio([4], [2], extra=2, scale=Fraction(1, 2)) == Radical({6: 1})


def test_factorial_split_is_legendre():
    for n in range(60):
        k, d = _factorial_split(n)
        assert (k, d) == _split_oracle(math.factorial(n))


def test_factorial_split_cache_is_bounded():
    bound = _factorial_split.cache_info().maxsize
    assert bound is not None
    _factorial_split.cache_clear()
    for n in range(bound + 50):
        _factorial_split(n)
    assert _factorial_split.cache_info().currsize == bound
    # the oldest splits were evicted, and come back equal
    assert _factorial_split(3) == (1, 6)
    _factorial_split.cache_clear()


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1, 200), st.fractions(max_denominator=50), max_size=5),
       st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50)))
def test_radical_times_a_rational_takes_the_scalar_path(terms, x):
    r = Radical(terms)
    general = Radical.__mul__(r, Radical.from_rational(x))
    for got in (r * x, x * r):
        assert got == general and hash(got) == hash(general)
        assert got.terms == general.terms


def test_sixj_splits_no_radicand_but_its_extra(monkeypatch):
    # Racah's 6j sum and its factorials never reach trial division
    from extremal import wigner2

    seen = []
    split = exact._squarefree_split
    monkeypatch.setattr(exact, "_squarefree_split", lambda n: seen.append(n) or split(n))
    wigner2._sixj.cache_clear()
    assert wigner2.sixj_doubled(20, 20, 20, 20, 20, 20)
    assert wigner2.sixj_doubled(19, 20, 21, 18, 21, 20)
    assert seen == [1, 1]
