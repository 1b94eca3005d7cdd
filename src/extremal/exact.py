"""Exact arithmetic kernel: sums of square roots, factorials, and half-integer
spins with their ranges and projections.

Every coefficient in the package ultimately lives in the field generated over Q
by square roots of positive integers.  A value is kept as a canonical finite sum
sum_d c_d * sqrt(d) with squarefree radicands d, so structural equality is
numeric equality.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "Radical",
    "Pole",
    "POLE",
    "PoleError",
    "factorial",
    "factorial_ratio",
    "sqrt_of_rational",
    "parse_radical",
    "half",
    "spin_range",
    "projections",
]


def half(x):
    """x as an exact half-integer Fraction; ValueError otherwise."""
    f = Fraction(x)
    if (2 * f).denominator != 1:
        raise ValueError("not a half-integer: %s" % (x,))
    return f


def spin_range(lo, hi):
    """The spins lo, lo + 1/2, ... up to hi."""
    x = Fraction(lo)
    while x <= hi:
        yield x
        x += Fraction(1, 2)


def projections(j):
    """The projections j, j - 1, ..., -j of spin j."""
    m = j
    while m >= -j:
        yield m
        m -= 1


def _squarefree_split(n):
    """n = k^2 * d with d squarefree; returns (k, d).  Requires n >= 1."""
    if n < 1:
        raise ValueError("radicand must be positive, got %r" % (n,))
    k, d = 1, 1
    # factorint handles the large factorial products that show up in the
    # normalization coefficients; trial division would stall on those.
    from sympy import factorint

    for p, e in factorint(n).items():
        k *= p ** (e // 2)
        if e % 2:
            d *= p
    return k, d


class Radical:
    """Canonical sum of rational multiples of square roots of squarefree integers.

    terms maps squarefree radicand d >= 1 to a nonzero Fraction coefficient;
    the represented value is sum c_d * sqrt(d).  Closed under +, -, *, and
    (for nonzero values) division.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for d, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                k, sf = _squarefree_split(d)
                clean[sf] = clean.get(sf, Fraction(0)) + c * k
        self.terms = {d: c for d, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, r):
        r = Fraction(r)
        out = cls.__new__(cls)
        out.terms = {1: r} if r else {}
        return out

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        return not self.terms or set(self.terms) == {1}

    def to_rational(self):
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {1}:
            raise ValueError("%s is irrational" % self)
        return self.terms[1]

    def __float__(self):
        return float(sum(float(c) * d ** 0.5 for d, c in self.terms.items()))

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Radical):
            return x
        if isinstance(x, (int, Fraction)):
            return Radical.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, Fraction(0)) + c
        out = Radical.__new__(Radical)
        out.terms = {d: c for d, c in terms.items() if c != 0}
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Radical.__new__(Radical)
        out.terms = {d: -c for d, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1,d2)
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                terms[d] = terms.get(d, Fraction(0)) + c
        out = Radical.__new__(Radical)
        out.terms = {d: c for d, c in terms.items() if c != 0}
        return out

    __rmul__ = __mul__

    def inverse(self):
        if not self.terms:
            raise ZeroDivisionError("inverse of zero radical")
        if self.is_rational():
            return Radical.from_rational(1 / self.terms[1])
        # Rationalize one prime at a time: split x = a + sqrt(p)*b with a, b
        # free of sqrt(p); then 1/x = (a - sqrt(p) b) / (a^2 - p b^2).
        p = None
        for d in self.terms:
            if d > 1:
                for q in range(2, d + 1):
                    if d % q == 0:
                        p = q
                        break
                break
        a = Radical({d: c for d, c in self.terms.items() if d % p != 0})
        b = Radical({d // p: c for d, c in self.terms.items() if d % p == 0})
        denom = a * a - Radical({1: Fraction(p)}) * b * b
        conj = a - Radical({p: Fraction(1)}) * b
        return conj * denom.inverse()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Radical.from_rational(1)
        for _ in range(n):
            out = out * self
        return out

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- serialization ------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            c = self.terms[d]
            if d == 1:
                parts.append(str(c))
            else:
                parts.append("%s*sqrt(%d)" % (c, d))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "Radical(%s)" % self

    def sign(self):
        """Sign of the represented real number: -1, 0, or 1."""
        if not self.terms:
            return 0
        # Interval-free exact test: iteratively square away radicals.
        # For the sums occurring here (few terms, moderate sizes) a float
        # estimate with exact fallback is reliable; use high-precision sympy.
        import sympy

        v = sum(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(d)
                for d, c in self.terms.items())
        return int(sympy.sign(v))


_RAD_TERM = re.compile(
    r"^\s*(?P<coeff>[+-]?\d+(?:/\d+)?)?\s*(?:(?P<star>\*)?\s*sqrt\((?P<rad>\d+)\))?\s*$"
)


def parse_radical(s):
    """Inverse of Radical.__str__: parse 'c1*sqrt(d1) + c2*sqrt(d2)'."""
    s = s.strip()
    if s == "0":
        return Radical.from_rational(0)
    s = s.replace("- ", "+ -").replace("-sqrt", "-1*sqrt")
    terms = {}
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _RAD_TERM.match(chunk)
        if not m or (m.group("coeff") is None and m.group("rad") is None):
            raise ValueError("cannot parse radical term %r" % chunk)
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        rad = int(m.group("rad")) if m.group("rad") else 1
        terms[rad] = terms.get(rad, Fraction(0)) + coeff
    return Radical(terms)


def sqrt_of_rational(r, sign=1):
    """sign * sqrt(r) for a nonnegative rational r, in canonical Radical form."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("square root of negative rational %s" % r)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if r == 0:
        return Radical.from_rational(0)
    # sqrt(p/q) = sqrt(p*q)/q
    n = r.numerator * r.denominator
    k, d = _squarefree_split(n)
    out = Radical.__new__(Radical)
    out.terms = {d: Fraction(sign * k, r.denominator)}
    return out


# -- factorials with the reciprocal-pole convention ------------------


class PoleError(ArithmeticError):
    """A negative-integer factorial ended up uncancelled in a numerator."""


class Pole:
    """Flagged value of (-k)! for k >= 1; its reciprocal is exactly zero."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "POLE"


POLE = Pole()


def _int_factorial(n):
    """n! as an int for n >= 0; POLE for negative integers."""
    if n != int(n):
        raise ValueError("factorial of non-integer %s" % (n,))
    n = int(n)
    return POLE if n < 0 else math.factorial(n)


def factorial(n):
    """n! as a Fraction for n >= 0; POLE for negative integers.

    The pole convention enforces the summation bounds of the coupling-
    coefficient formulas: a pole in a denominator kills the whole term
    (1/(-k)! = 0), while a pole surviving in a numerator is an error.
    """
    f = _int_factorial(n)
    return f if f is POLE else Fraction(f)


def factorial_ratio(numerators, denominators):
    """prod(n! for n in numerators) / prod(d! for d in denominators).

    Any pole among the denominators makes the ratio exactly zero; a pole
    among the numerators (with no denominator pole to kill the term first)
    raises PoleError.
    """
    den = 1
    for d in denominators:
        f = _int_factorial(d)
        if f is POLE:
            return Fraction(0)
        den *= f
    num = 1
    for n in numerators:
        f = _int_factorial(n)
        if f is POLE:
            raise PoleError("factorial of %s in numerator" % (n,))
        num *= f
    return Fraction(num, den)

