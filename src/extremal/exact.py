"""Exact arithmetic kernel: sums of square roots, factorials, and the one
parser of half-integer labels and one of integer labels.

Every coefficient in the package ultimately lives in the field generated over Q
by square roots of positive integers.  A value is kept as a canonical finite sum
sum_d c_d * sqrt(d) with squarefree radicands d, so structural equality is
numeric equality.

`doubled` parses half-integer labels once into the ints 2j, on which the
su(2) and su(3) layers range them and apply the one triangle rule, `triangle`;
`integer` parses the su(3) labels (lam, mu); `label_cache` parses before caching.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache, wraps

__all__ = [
    "Radical",
    "PoleError",
    "SingularWeightError",
    "TruncationError",
    "factorial_ratio",
    "sqrt_factorial_ratio",
    "sqrt_of_rational",
    "parse_radical",
    "half",
    "integer",
    "doubled",
    "triangle",
    "label_cache",
]


def half(x):
    """x as an exact half-integer Fraction; ValueError otherwise."""
    f = x if type(x) is Fraction else Fraction(x)
    if f.denominator > 2:
        raise ValueError("not a half-integer: %s" % (x,))
    return f


def integer(x):
    """x as an int, from an int, an integral float or string, or a Fraction;
    ValueError for any other value (no truncation)."""
    f = x if isinstance(x, (int, Fraction)) else Fraction(x)
    if f.denominator != 1:
        raise ValueError("not an integer: %s" % (x,))
    return f.numerator


def doubled(*labels):
    """Half-integer labels as doubled ints; ValueError for any other label."""
    return tuple(f.numerator * (2 // f.denominator) for f in map(half, labels))


def triangle(a, b, c):
    """|a-b| <= c <= a+b with an even sum, on doubled labels; false if one is negative."""
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def label_cache(maxsize, parse):
    """Cache a builder in an lru_cache of `maxsize` entries keyed by
    parse(*labels), so a refused label raises before the cache is touched and
    every spelling of one label shares one entry; the public function carries
    the cache's `cache_info`, `cache_clear` and `cache_parameters`."""
    def decorate(build):
        cached = lru_cache(maxsize=maxsize)(build)

        @wraps(build)
        def builder(*labels):
            return cached(*parse(*labels))

        for name in ("cache_info", "cache_clear", "cache_parameters"):
            setattr(builder, name, getattr(cached, name))
        return builder
    return decorate


def _squarefree_split(n):
    """n = k^2 * d with d squarefree; returns (k, d).  Requires n >= 1.

    Trial division runs while p^3 <= n; what is left then has at most two
    prime factors, so it is a square or squarefree, and one isqrt tells which.
    Only small radicands come here: `sqrt_factorial_ratio` splits factorials
    by Legendre's formula, so no factorial ratio or Racah sum, whose large
    prime factor q could cost q^(2/3) divisions, reaches it from a coupling formula.
    """
    if n < 1:
        raise ValueError("radicand must be positive, got %r" % (n,))
    k, d = 1, 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return k * r, d
    return k, d * n


class Radical:
    """Canonical sum of rational multiples of square roots of squarefree integers.

    terms maps squarefree radicand d >= 1 to a nonzero Fraction coefficient;
    the represented value is sum c_d * sqrt(d).  Closed under +, -, *, and
    (for nonzero values) `inverse`.
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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = Radical.__new__(Radical)
            out.terms = {d: c * other for d, c in self.terms.items()} if other else {}
            return out
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
        d = next(d for d in self.terms if d > 1)
        p = next(q for q in range(2, d + 1) if d % q == 0)
        a = Radical({d: c for d, c in self.terms.items() if d % p != 0})
        b = Radical({d // p: c for d, c in self.terms.items() if d % p == 0})
        denom = a * a - Radical({1: Fraction(p)}) * b * b
        conj = a - Radical({p: Fraction(1)}) * b
        return conj * denom.inverse()

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        t = self.terms
        if not t or (len(t) == 1 and 1 in t):
            # a rational value equals its Fraction, so it hashes as one
            return hash(t.get(1, 0))
        return hash(frozenset(t.items()))

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
        """Sign of the represented real number: -1, 0, or 1.

        With L clearing the denominators, 2^k * L * value lies in [lo, lo +
        width] by isqrt(d * 4^k); k doubles until 0 is outside.  This ends, as
        the width stays fixed while the value scales up, and a nonzero sum of
        square roots of distinct squarefree integers is nonzero (Besicovitch).
        """
        if not self.terms:
            return 0
        L = math.lcm(*(c.denominator for c in self.terms.values()))
        ints = [(d, c.numerator * (L // c.denominator)) for d, c in self.terms.items()]
        width = sum(abs(a) for _, a in ints)
        k = 16
        while True:
            lo = sum(a * math.isqrt(d << 2 * k) + min(a, 0) for d, a in ints)
            if lo > 0:
                return 1
            if lo + width < 0:
                return -1
            k *= 2


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


def sqrt_of_rational(r):
    """sqrt(r) for a nonnegative rational r, in canonical Radical form."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("square root of negative rational %s" % r)
    if r == 0:
        return Radical.from_rational(0)
    # sqrt(p/q) = sqrt(p*q)/q
    n = r.numerator * r.denominator
    k, d = _squarefree_split(n)
    out = Radical.__new__(Radical)
    out.terms = {d: Fraction(k, r.denominator)}
    return out


# -- factorials with the reciprocal-pole convention ------------------


class PoleError(ArithmeticError):
    """A negative-integer factorial ended up uncancelled in a numerator."""


class SingularWeightError(ArithmeticError):
    """A coefficient denominator vanishes at the requested weight."""


class TruncationError(ValueError):
    """The truncation bound is too small for the requested application."""


def _pole_checked(numerators, denominators):
    """The arguments as int lists (nums, dens), or None when a denominator is
    negative (the ratio is 0); PoleError when only a numerator is."""
    given = list(numerators), list(denominators)
    nums, dens = [int(n) for n in given[0]], [int(d) for d in given[1]]
    if (nums, dens) != given:
        raise ValueError("factorial of non-integer in %s / %s" % given)
    if min(dens, default=0) < 0:
        return None
    if min(nums, default=0) < 0:
        raise PoleError("factorial of %d in numerator" % min(nums))
    return nums, dens


def factorial_ratio(numerators, denominators):
    """prod(n! for n in numerators) / prod(d! for d in denominators).

    The reciprocal-pole convention enforces the summation bounds of the
    coupling-coefficient formulas: a negative integer among the denominators
    makes the ratio exactly zero (1/(-k)! = 0), and one among the numerators
    (with no denominator pole to kill the term first) raises PoleError.
    """
    args = _pole_checked(numerators, denominators)
    if args is None:
        return Fraction(0)
    return Fraction(*(math.prod(map(math.factorial, a)) for a in args))


# The factorial arguments of a coupling value are at most j1 + j2 + j3 + 1
# (a 6j: its largest triad sum + 1), so 256 entries hold every split of a table
# or symbol with that sum below 255.  The split of n! has about n log2(n) / 2
# bits: 256 entries at n <= 6001, a 6j at j = 2000, hold about 1.2 MB.
@lru_cache(maxsize=256)
def _factorial_split(n):
    """n! = k^2 * d with d squarefree, by Legendre's formula over the primes
    up to n from a sieve of Eratosthenes; returns (k, d)."""
    prime = bytearray([1]) * (n + 1)
    k = d = 1
    for p in range(2, n + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, n + 1, p)))
            e, q = 0, n  # Legendre: e = sum over i of n // p^i
            while q:
                q //= p
                e += q
            k, d = k * p ** (e // 2), d * p ** (e % 2)
    return k, d


def sqrt_factorial_ratio(numerators, denominators, extra=1, scale=1):
    """scale * sqrt(extra * prod(n!) / prod(d!)) as a Radical, for an int
    extra >= 0 and an int or Fraction scale; poles as in `factorial_ratio`.

    The ratio is never formed: the squarefree parts of the cached splits n! =
    k^2 d combine by one gcd each, s d = g^2 (s/g)(d/g), so only `extra` goes
    through trial division.
    """
    args = _pole_checked(numerators, denominators)
    out = Radical.__new__(Radical)
    out.terms = {}
    if args and scale and extra:
        k, s = _squarefree_split(extra)
        den = 1
        for n in args[0]:
            a, d = _factorial_split(n)
            g = math.gcd(s, d)
            s, k = (s // g) * (d // g), k * a * g
        for n in args[1]:  # sqrt(s / (a^2 d)) = sqrt(s d) / (a d)
            a, d = _factorial_split(n)
            g = math.gcd(s, d)
            s, k, den = (s // g) * (d // g), k * g, den * a * d
        out.terms = {s: Fraction(k * scale.numerator, den * scale.denominator)}
    return out
