"""Noncommutative rewrite engine for U(su(n)) and its Taylor extension.

Elements are kept in PBW normal form: sums of monomials

    (lowering word) * (rational function of the Cartan h_i) * (raising word),

with the generators inside each word sorted by a fixed normal ordering of the
positive roots.  A TaylorElement additionally carries a truncation bound N:
monomials of total raising degree > N are dropped, and equality is understood
modulo that filtration.

Straightening works on words of generators only: a Cartan coefficient rides
beside the word at its right end and moves past generators by an exact shift,
f(h) X = X f(h + s_X).  A word folds into normal form one generator at a time
from the right, reduce(g w) = g reduce(w), each step a memoized product of a
generator with a normal word of one kind (the PBW commutation rules of
Humphreys, "Introduction to Lie Algebras and Representation Theory", 17.3).

Generators are index pairs (i, j), i != j, for e_ij; Cartan letters are
rational functions of h1..h_{n-1}, h_i = e_ii - e_{i+1,i+1}, held as a Coeff:
an integer numerator of packed-int monomials (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007) over one positive int and a factored denominator.  Every denominator
the projector series produces is a product of integer shifts of linear forms
in the h_i, so a shift h -> h + s only adds ints and poles are read off the
factors.  Coefficient text is rendered natively, in the bytes sympy's printer
gives; the engine never loads sympy.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm

from .algebra import NormalOrdering, RootSystemData, build_root_system, default_ordering
from .algebra import normal_ordering
from .exact import SingularWeightError, TruncationError, label_cache

__all__ = [
    "Coeff",
    "RewriteEngine",
    "TaylorElement",
    "rewrite_word",
    "shared_engine",
    "h_symbols",
    "SingularWeightError",
    "TruncationError",
]


@functools.cache  # one entry per rank, and build_root_system admits only n <= 6
def h_symbols(n):
    """Cartan symbols h1..h_{n-1} for su(n)."""
    import sympy

    return tuple(sympy.Symbol("h%d" % i) for i in range(1, n))


# -- packed numerators ------------------------------------------------
#
# The monomial h1^e1 ... hk^ek is the int sum of e_i << BITS * (k - i).  Each
# stored exponent is below 2^(BITS - 1): the top bit of every field is a
# guard, so a sum of two exponents never carries into the next field, and a
# product refuses an output monomial with a guard bit set.  Two 15-bit
# fields fill one 30-bit digit of a CPython int, where int arithmetic is
# fastest.  No numerator is changed in place: Coeffs and the `_cofactor`
# memo share them.

BITS = 15
_FIELD = (1 << BITS) - 1
_LIMIT = 1 << (BITS - 1)
_GUARD = sum(_LIMIT << (BITS * i) for i in range(5))  # k <= 5, as n <= 6


def _pack(monom):
    """An exponent tuple as a packed monomial."""
    m = 0
    for e in monom:
        if e >= _LIMIT:
            raise OverflowError("exponent %d exceeds the %d-bit field" % (e, BITS - 1))
        m = (m << BITS) | e
    return m


def _unpack(m, k):
    """The exponent tuple of a packed monomial in k variables."""
    return tuple((m >> (BITS * (k - 1 - i))) & _FIELD for i in range(k))


def _form(key):
    """The linear form a.h + c of key = (a_1, ..., a_k, c) as a numerator."""
    k = len(key) - 1
    p = {1 << (BITS * (k - 1 - i)): a for i, a in enumerate(key[:-1]) if a}
    if key[-1]:
        p[0] = key[-1]
    return p


def _mul(a, b):
    """Product of two numerators; OverflowError when an exponent reaches the
    guard bit."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (mb, cb), = b.items()
        if not mb:
            return a if cb == 1 else {m: c * cb for m, c in a.items()}
        out = {m + mb: c * cb for m, c in a.items()}
    else:
        out = {}
        get = out.get
        for mb, cb in b.items():
            for ma, ca in a.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        if 0 in out.values():
            out = {m: c for m, c in out.items() if c}
    if any(map(_GUARD.__and__, out)):
        raise OverflowError("a product's exponent exceeds the %d-bit field" % (BITS - 1))
    return out


def _add(a, b):
    """Sum of two numerators."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    get = out.get
    for m, c in b.items():
        c += get(m, 0)
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _shift(num, svec):
    """num with h_i -> h_i + svec[i]: a term's power h_i^e expands as
    (h_i + s)^e, a memoized power of that linear form."""
    k = len(svec)
    for i, s in enumerate(svec):
        if not s:
            continue
        at = BITS * (k - 1 - i)
        key = tuple(int(j == i) for j in range(k)) + (s,)
        out = {}
        get = out.get
        for m, c in num.items():
            e = (m >> at) & _FIELD
            if not e:
                out[m] = get(m, 0) + c
                continue
            m -= e << at
            for mm, b in _cofactor(((key, e),)).items():
                mm += m
                out[mm] = get(mm, 0) + c * b
        num = {m: c for m, c in out.items() if c} if 0 in out.values() else out
    return num


def _divide(num, key):
    """num / (a.h + c) for a primitive linear form key, or None if it does
    not divide.  Lex-leading-term division over ZZ: the form's leading term
    is a_i h_i for its first nonzero a_i, and a quotient exists over ZZ when
    one exists over QQ (Gauss's lemma), so the first remainder term that
    a_i h_i does not divide ends the division."""
    k = len(key) - 1
    i = next(j for j, a in enumerate(key[:-1]) if a)
    lead, at = key[i], BITS * (k - 1 - i)
    rest = [(m, -a) for m, a in _form(key).items() if m != 1 << at]
    rem, quo = dict(num), {}
    while rem:
        m = max(rem)
        c = rem.pop(m)
        if not (m >> at) & _FIELD or c % lead:
            return None
        m, c = m - (1 << at), c // lead
        quo[m] = c
        for mm, a in rest:
            mm += m
            v = rem.get(mm, 0) + c * a
            if v:
                rem[mm] = v
            else:
                del rem[mm]
    return quo


@functools.lru_cache(maxsize=2048)
def _cofactor(factors):
    """prod (a.h + c)^m over factors = ((key, m), ...), as a numerator.

    Bounded memo of the linear-form powers and their products: the padding
    of one Coeff.__add__ is one such product, a shift expands each power
    h_i^e as one, and the same few recur throughout a series product.
    """
    if len(factors) == 1:
        (key, m), = factors
        base = p = _form(key)
        for _ in range(m - 1):
            p = _mul(p, base)
        return p
    p = _cofactor(factors[:1])
    for f in factors[1:]:
        p = _mul(p, _cofactor((f,)))
    return p


def _padded(num, s, forms):
    """num times the int s and the powers of linear forms ((key, m), ...)."""
    if forms:
        pad = _cofactor(tuple(sorted(forms)))
        return _mul(num, pad if s == 1 else {m: c * s for m, c in pad.items()})
    return num if s == 1 else {m: c * s for m, c in num.items()}


def _sum_text(terms):
    """sympy's text of a sum of (coefficient, exponent tuple) terms, in
    order: `h1**2*h2`, `3*h1/4`, joined by ` + ` and ` - `."""
    out = ""
    for c, monom in terms:
        a = abs(c)
        m = "*".join(("h%d" % i if e == 1 else "h%d**%d" % (i, e))
                     for i, e in enumerate(monom, 1) if e)
        if m and a.numerator != 1:
            m = "%d*%s" % (a.numerator, m)
        if m and a.denominator != 1:
            m = "%s/%d" % (m, a.denominator)
        out += "%s%s" % (" - " if c < 0 else " + ", m or a)
    return out[3:] if out[1] == "+" else "-" + out[3:]


@functools.lru_cache(maxsize=1024)
def form_text(key, scale=1):
    """scale * (a.h + c) for the linear form key, as sympy prints it."""
    terms = [(scale * a, (0,) * i + (1,)) for i, a in enumerate(key[:-1]) if a]
    return _sum_text(terms + [(scale * key[-1], ())] * bool(key[-1]))


def _factor_order(item):
    """sympy's order of denominator factors (form key, exponent): symbols h_i
    by name, then sums by their number of terms and term by term (a constant
    before a symbol term, symbols by name then coefficient, constants by
    value), then by exponent.  Names h1..h5 sort like their indices."""
    key, m = item
    terms = [(1, i, a) for i, a in enumerate(key[:-1]) if a] + [(0, key[-1])] * bool(key[-1])
    return len(terms) > 1, len(terms), terms, m


def _primitive(num, q):
    """(num, q) divided by gcd(content(num), q); q = 1 for num = 0."""
    if q == 1:
        return num, q
    g = q
    for c in num.values():
        g = gcd(g, c)
        if g == 1:
            return num, q
    return {m: c // g for m, c in num.items()}, q // g


def _rank(a, b):
    """The rank of a sum or product of the Coeffs a and b: a constant takes
    the other's rank; ValueError for two non-constants of different ranks."""
    if not (a.den or any(a.num)):
        return b.n
    if b.den or any(b.num):
        raise ValueError("Coeff of su(%d) combined with a Coeff of su(%d)" % (a.n, b.n))
    return a.n


class Coeff:
    """Rational function of the h_i with the denominator kept factored.

    The value is num / (q * prod den) for su(n): num is a packed numerator
    (a dict from monomials, the exponents of h1..h_{n-1} in BITS-bit fields
    with h1 highest, so int order is lex order, to ints; an exponent must
    stay below 2^(BITS - 1), the guard bit), q a positive int with
    gcd(content(num), q) = 1, kept so by every operation, and den maps a
    linear form a.h + c, encoded as a tuple of ints (a_1, ..., a_{n-1}, c)
    that is primitive and has its first nonzero a_i positive, to its
    multiplicity.  sympy enters only through from_expr, which parses, and
    as_expr, which builds an expression.  The denominator is not reduced on
    construction; reduced() divides out denominator factors before
    evaluation or printing, exactly over ZZ as each form is primitive.

    == compares (num, q, den) and, but for a constant, the rank n by
    structure, and agrees with hash, so memo probes never do polynomial
    arithmetic; (h+1)/(h+1) == 1 is False.  Equality as rational functions
    is not (a - b).
    """

    __slots__ = ("n", "num", "q", "den", "_hash")

    def __init__(self, n, num, den=None, q=1):
        """`n` is the int rank of su(n) and `num` a packed numerator that
        goes with q; a sympy expression enters through from_expr."""
        self.n = n
        self.num = num
        self.q = q
        self.den = den or {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, n, q):
        """An int, Fraction or sympy Rational as a constant Coeff."""
        p = int(q.numerator)
        return cls(n, {0: p} if p else {}, None, int(q.denominator))

    @classmethod
    def from_expr(cls, n, expr):
        """Parse a sympy expression in h1..h_{n-1} for su(n); the denominator
        must factor into linear forms of the h_i."""
        import sympy

        syms = h_symbols(n)
        by_name = {h.name: h for h in syms}  # h1 with assumptions is h1 too
        expr = sympy.sympify(expr)
        expr = expr.xreplace({s: by_name[s.name] for s in expr.free_symbols if s.name in by_name})
        foreign = expr.free_symbols - set(syms)
        if foreign:
            raise ValueError("symbols outside h1..h%d of su(%d): %s"
                             % (n - 1, n, ", ".join(sorted(map(str, foreign)))))
        num, den = sympy.cancel(sympy.together(expr)).as_numer_denom()
        # factor_list gives primitive integer factors, first coefficient > 0
        const, flist = sympy.factor_list(den, *syms)
        factors = {}
        for f, mult in flist:
            poly = sympy.Poly(f, *syms, domain="ZZ")
            if poly.total_degree() > 1:
                raise ValueError("nonlinear denominator factor: %s" % f)
            key = tuple(int(poly.coeff_monomial(m)) for m in syms + (1,))
            factors[key] = factors.get(key, 0) + int(mult)
        # the numerator over QQ, its denominators cleared into q
        terms = [(m, c) for m, c in sympy.Poly(num / const, *syms, domain="QQ").terms() if c]
        q = lcm(*(int(c.q) for _, c in terms))
        out, q = _primitive({_pack(m): int(c * q) for m, c in terms}, q)
        return cls(n, out, factors, q)

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return not self.den and self.q == 1 and self.num == {0: 1}

    def __hash__(self):
        # computed once: numerators and denominators are shared between
        # coefficients and never changed in place
        h = self._hash
        if h is None:
            num = self.num
            if not self.den and not any(num):
                # a constant equals its int or Fraction, so it hashes as one
                h = hash(Fraction(num.get(0, 0), self.q))
            else:
                h = hash((self.n, frozenset(num.items()), self.q, frozenset(self.den.items())))
            self._hash = h
        return h

    def __eq__(self, other):
        """Structural equality of (num, q, den), and of the rank unless the
        value is a constant; see the class docstring.  An int or Fraction
        compares as a constant; any other type is left to its own __eq__."""
        if isinstance(other, (int, Fraction)):
            other = Coeff.from_rational(self.n, other)
        elif not isinstance(other, Coeff):
            return NotImplemented
        return (self.q == other.q and self.num == other.num and self.den == other.den
                and (self.n == other.n or not (self.den or any(self.num))))

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Coeff):
            other = Coeff.from_rational(self.n, other)
        if other.is_one() or self.is_one():  # no Coeff is changed in place
            return self if other.is_one() else other
        n = self.n if self.n == other.n else _rank(self, other)
        den = self.den
        if other.den:
            if den:
                den = dict(den)
                for k, m in other.den.items():
                    den[k] = den.get(k, 0) + m
            else:
                den = other.den
        num, q = _primitive(_mul(self.num, other.num), self.q * other.q)
        return Coeff(n, num, den, q)

    __rmul__ = __mul__

    def __neg__(self):
        return Coeff(self.n, {m: -c for m, c in self.num.items()}, self.den, self.q)

    def __add__(self, other):
        if not isinstance(other, Coeff):
            other = Coeff.from_rational(self.n, other)
        if not other.num:
            return self
        if not self.num:
            return other
        n = self.n if self.n == other.n else _rank(self, other)
        q = lcm(self.q, other.q)
        # each numerator is padded to q and by the denominator forms it lacks
        den, forms_a, forms_b = self.den, (), ()
        if den != other.den:
            den, forms_a, forms_b = dict(den), [], []
            for k, mb in other.den.items():
                ma = den.get(k, 0)
                if ma < mb:
                    forms_a.append((k, mb - ma))
                    den[k] = mb
            for k, ma in self.den.items():
                mb = other.den.get(k, 0)
                if mb < ma:
                    forms_b.append((k, ma - mb))
        num = _add(_padded(self.num, q // self.q, forms_a),
                   _padded(other.num, q // other.q, forms_b))
        num, q = _primitive(num, q)
        return Coeff(n, num, den, q)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def shift(self, svec, scale=1):
        """h_k -> h_k + scale * svec[k], exactly, in place of substitution."""
        if not any(svec) or scale == 0:
            return self
        num = self.num
        if any(num):
            num = _shift(num, [scale * s for s in svec])
        den = {}
        for k, m in self.den.items():
            delta = scale * sum(a * s for a, s in zip(k[:-1], svec))
            den[k[:-1] + (k[-1] + delta,)] = m
        return Coeff(self.n, num, den, self.q)

    def cleared(self, den):
        """The polynomial self times its own denominator and the linear
        forms den = {key: m}: num / q * prod (a.h + c)^m over den."""
        num = _mul(self.num, _cofactor(tuple(sorted(den.items())))) if den else self.num
        num, q = _primitive(num, self.q)
        return Coeff(self.n, num, None, q)

    # -- normal form --------------------------------------------------

    def reduced(self):
        """Divide out denominator factors from the numerator where possible.

        Each factor is primitive, so a quotient over QQ is one over ZZ
        (Gauss's lemma), and dividing keeps gcd(content(num), q) = 1.
        """
        if not self.num:
            return Coeff(self.n, {})
        num, den = self.num, {}
        for k, m in self.den.items():
            while m > 0:
                quo = _divide(num, k)
                if quo is None:
                    break
                num, m = quo, m - 1
            if m:
                den[k] = m
        if num is self.num:
            return self
        return Coeff(self.n, num, den, self.q)

    def evaluate(self, values):
        """Value at h = values (sequence of ints or Fractions); Fraction result.

        Raises SingularWeightError naming the vanishing factor if the reduced
        denominator hits zero, and ValueError unless there is one value per
        h_i.
        """
        if len(values) != self.n - 1:
            raise ValueError("a weight of su(%d) has %d entries, got %d"
                             % (self.n, self.n - 1, len(values)))
        c = self.reduced()
        if not c.num:
            return Fraction(0)
        den = Fraction(c.q)
        for k, m in c.den.items():
            v = sum(a * x for a, x in zip(k[:-1], values)) + k[-1]
            if v == 0:
                raise SingularWeightError(
                    "denominator factor %s vanishes at weight %s"
                    % (form_text(k), tuple(map(str, values)))
                )
            den *= v**m
        num, k = 0, len(values)
        for monom, a in c.num.items():
            for x, e in zip(values, _unpack(monom, k)):
                if e:
                    a *= x**e
            num += a
        return num / den

    def text(self):
        """`num` or `(num)/(den)`: the text sympy prints for the two halves
        of fraction(self.as_expr()) when self is reduced.  A one-term
        numerator hands q to the denominator, where it distributes over a
        lone factor, `(-h1)/(6*h1 + 6)`; a longer one keeps its rational
        coefficients, `(h1/2 + 1/2)/(h2 - 1)`, and a positive constant with
        one negative single-variable term prints constant first, `1 - h1`."""
        k, q = self.n - 1, self.q
        items = [(_unpack(m, k), a) for m, a in sorted(self.num.items(), reverse=True)]
        if not items:
            return "0"
        if len(items) == 1:
            terms = [(items[0][1], items[0][0])]
        else:
            terms, q = [(Fraction(a, q), m) for m, a in items], 1
            if (len(terms) == 2 and terms[0][0] < 0 < terms[1][0]
                    and not any(terms[1][1]) and sum(map(bool, terms[0][1])) == 1):
                terms.reverse()
        num = _sum_text(terms)
        if not self.den:
            return num if q == 1 else "(%s)/(%d)" % (num, q)
        factors = sorted(self.den.items(), key=_factor_order)
        if len(factors) == 1 and factors[0][1] == 1:
            return "(%s)/(%s)" % (num, form_text(factors[0][0], q))
        den = [str(q)] if q != 1 else []
        for key, m in factors:
            t = form_text(key)  # a sum, unlike a symbol h_i, has a space
            t = "(%s)" % t if " " in t else t
            den.append(t if m == 1 else "%s**%d" % (t, m))
        return "(%s)/(%s)" % (num, "*".join(den))

    def as_expr(self):
        """Canonical sympy expression, for display and interop."""
        import sympy

        syms, k = h_symbols(self.n), self.n - 1

        def poly(num, q=1):
            return sympy.Add(*(sympy.Mul(sympy.Rational(c, q), *(
                sympy.Pow(x, e) for x, e in zip(syms, _unpack(m, k)) if e))
                for m, c in num.items()))

        c = self.reduced()
        e = poly(c.num, c.q)
        for key, m in sorted(c.den.items()):
            e = e / poly(_form(key)) ** m
        return e

    def __repr__(self):
        return "Coeff(%s)" % self.reduced().text()


_MEMO_LIMIT = 50_000  # straightening memo entries; su(4) P*P at N = 3 fills 32,250


def _prepend(g, P):
    """The normal word g P, when g goes first."""
    return ((g, P[0][1] + 1),) + P[1:] if P and P[0][0] == g else ((g, 1),) + P


def _times(a, b):
    """a * b for ints and Coeffs, with no product by the int 1."""
    if a.__class__ is int and a == 1:
        return b
    return a if b.__class__ is int and b == 1 else a * b


class RewriteEngine:
    """Straightening engine for one su(n) with one fixed normal ordering.

    Holds the rewrite caches; all results are exact (truncation is applied
    only when assembling TaylorElements).
    """

    def __init__(self, sys: RootSystemData, order: NormalOrdering = None):
        self.sys = sys
        self.n = sys.n
        self.order = normal_ordering(sys, order)
        self.coeff_one = Coeff(self.n, {0: 1})
        # place of each letter in a normal-ordered word: lowering letters
        # before raising ones, each kind in the order of its roots
        seq = self.order.sequence
        self._rank = {}
        for pos, (i, j) in enumerate(seq):
            self._rank[(j, i)], self._rank[(i, j)] = pos, len(seq) + pos
        self._reduce_cache, self._shift_cache, self._word_shift_cache = {}, {}, {}

    # -- coefficients -------------------------------------------------

    def coeff(self, x):
        """Coerce a number, Fraction, sympy expression, or Coeff.  A constant
        Coeff of another rank becomes su(n)'s; any other raises ValueError."""
        if isinstance(x, Coeff):
            if x.n == self.n:
                return x
            if x.den or any(x.num):
                raise ValueError("a coefficient of su(%d) for an engine of su(%d)" % (x.n, self.n))
            return Coeff(self.n, x.num, None, x.q)
        if isinstance(x, (int, Fraction)):
            return Coeff.from_rational(self.n, x)
        return Coeff.from_expr(self.n, x)

    def recip_linear(self, factors):
        """1 / prod of linear forms; each factor is (svec over h, const), ints
        with the first nonzero entry of svec positive and no common divisor."""
        keys = [tuple(svec) + (c,) for svec, c in factors]
        return Coeff(self.n, {0: 1}, {key: keys.count(key) for key in keys})

    # -- letters ------------------------------------------------------

    def root_weight(self, packed):
        """Weight of a packed word in simple-root coordinates: e_ij adds
        alpha_i + ... + alpha_{j-1} for i < j and subtracts
        alpha_j + ... + alpha_{i-1} for i > j."""
        w = [0] * (self.n - 1)
        for (i, j), e in packed:
            if i > j:
                i, j, e = j, i, -e
            for k in range(i - 1, j - 1):
                w[k] += e
        return tuple(w)

    def word_shift(self, packed):
        """The shift s of a packed word W, [h_k, W] = s_k W: the Cartan
        matrix times W's root weight, memoized."""
        s = self._word_shift_cache.get(packed)
        if s is None:
            w = [0, *self.root_weight(packed), 0]
            s = self._word_shift_cache[packed] = tuple(
                2 * w[k] - w[k - 1] - w[k + 1] for k in range(1, self.n))
        return s

    def shift_expr(self, coeff, svec, scale=1):
        """coeff with h_k -> h_k + scale*svec[k], memoized."""
        if not any(svec) or scale == 0:
            return coeff
        key = (coeff, svec, scale)
        out = self._shift_cache.get(key)
        if out is None:
            out = self._shift_cache[key] = coeff.shift(svec, scale)
        return out

    def h_span(self, i, j):
        """e_ii - e_jj as a Coeff (i < j: h_i + ... + h_{j-1}), the linear
        form of e_ij's root weight."""
        return Coeff(self.n, _form(self.root_weight((((i, j), 1),)) + (0,)))

    def commutator(self, a, b):
        """[e_a, e_b] as (sign, letter), the letter a generator pair or a
        Cartan Coeff; (0, None) when they commute."""
        (i, j), (k, l) = a, b
        if j == k:
            return 1, (self.h_span(i, j) if i == l else (i, l))
        return (-1, (k, j)) if i == l else (0, None)

    # -- straightening ------------------------------------------------
    #
    # An engine keeps three memos.  One holds each straightened suffix word,
    # each product (g, P) of a letter with a normal word of one kind
    # (`_task`), and each product of two words of one kind (`product`); the
    # others hold shifted coefficients (`shift_expr`) and the shifts of
    # packed words (`word_shift`).  Products wait on each other on one
    # explicit stack (`_run`), so no straightening nests a frame per letter.

    def reduce(self, word):
        """Normal-order a word of generators; returns dict {(L, R): Coeff}.

        L and R are tuples of ((i,j), exp) in ordering sequence order; the
        coefficient sits between them.  Exact (no truncation).  The longest
        normal-ordered suffix of the word is its own normal form, and each
        letter before it folds into the normal form of the suffix after it
        (`_fold`).  Every suffix so straightened is memoized on its tuple of
        generator pairs, so words that share a tail share its work.
        """
        self._bound_memos()
        word = tuple(word)
        memo, rank = self._reduce_cache, self._rank
        out = memo.get(word)
        if out is not None:
            return out
        i = max(len(word) - 1, 0)  # word[i:] is the longest normal suffix
        while i and rank[word[i - 1]] <= rank[word[i]]:
            i -= 1
        j = i  # and word[j:] the longest memoized one, when j < i
        while j and word[j - 1 :] in memo:
            j -= 1
        if j < i:
            out = memo[word[j:]]
        else:
            low = [g for g in word[i:] if g[0] > g[1]]
            out = {(self._pack(low), self._pack(word[i + len(low) :])): self.coeff_one}
        for k in range(j - 1, -1, -1):
            out = memo[word[k:]] = self._run(self._fold(word[k], out))
        memo[word] = out
        return out

    def product(self, A, B):
        """Normal words A and B of one kind multiplied: {word: int}, memoized."""
        if not A or not B:
            return {A or B: 1}
        self._bound_memos()
        out = self._reduce_cache.get((A, B))
        if out is None:
            terms = {((B, ()) if B[0][0][0] > B[0][0][1] else ((), B)): 1}
            for g in reversed(self.unpack(A)):
                terms = self._run(self._fold(g, terms))
            out = self._reduce_cache[(A, B)] = {L or R: m for (L, R), m in terms.items()}
        return out

    def _bound_memos(self):
        """Empty all three memos past _MEMO_LIMIT straightening entries; run
        first in `reduce` and `product`, where no straightening is in flight."""
        if len(self._reduce_cache) > _MEMO_LIMIT:
            for memo in (self._reduce_cache, self._shift_cache, self._word_shift_cache):
                memo.clear()

    def _known(self, g, P):
        """The product g P if g goes first or it is memoized, else None."""
        if g[0] > g[1]:
            if not P or self._rank[g] <= self._rank[P[0][0]]:
                return {(_prepend(g, P), ()): 1}
        elif not P or (P[0][0][0] < P[0][0][1] and self._rank[g] <= self._rank[P[0][0]]):
            return {((), _prepend(g, P)): 1}
        return self._reduce_cache.get((g, P))

    def _fold(self, g, terms):
        """g times the normal terms {(L, R): c}, c an int or a Coeff: a
        generator that yields each product (g, P) it needs and does not
        know, is sent its value, and returns the normal terms.  A lowering g
        multiplies L; a raising one gives g L = sum L' c' R', and c moves
        left past R' = r as c(h - s_r), before r R is a raising product."""
        out = {}
        for (L, R), c in terms.items():
            prod = self._known(g, L)
            if prod is None:
                prod = yield (g, L)
            for (L2, R1), c1 in prod.items():
                if R1:
                    r = R1[0][0]
                    c1 = _times(c1, c if c.__class__ is int else c.shift(self.word_shift(R1), -1))
                    high = self._known(r, R)
                    if high is None:
                        high = yield (r, R)
                else:
                    c1, high = _times(c1, c), {((), R): 1}
                for (_, R2), m in high.items():
                    key, v = (L2, R2), _times(c1, m)
                    cur = out.get(key)
                    out[key] = v if cur is None else cur + v
        return {k: v for k, v in out.items() if v}

    def _task(self, g, P):
        """Generator of the product g P = l (g P') + [g, l] P', memoized.
        For g and P of one kind its terms are words of that kind with int
        multiplicities; for g raising and P lowering they are L' c' R', R'
        empty or one raising letter, c' an int or a Coeff."""
        l, e = P[0]
        rest = ((l, e - 1),) + P[1:] if e > 1 else P[1:]
        sub = self._known(g, rest)
        if sub is None:
            sub = yield (g, rest)
        out = yield from self._fold(l, sub)
        sign, x = self.commutator(g, l)
        part = {}
        if isinstance(x, Coeff):  # h P' = P' h(h + s_P')
            part = {(rest, ()): x.shift(self.word_shift(rest))}
        elif x:
            part = self._known(x, rest)
            if part is None:
                part = yield (x, rest)
        for k, v in part.items():
            out[k] = out.get(k, 0) + (v if sign > 0 else -v)
        out = self._reduce_cache[(g, P)] = {k: v for k, v in out.items() if v}
        return out

    def _run(self, gen):
        """Drive a straightening generator and the tasks it waits on to its end."""
        memo, stack, value = self._reduce_cache, [gen], None
        while True:
            try:
                need = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
                continue
            value = memo.get(need)
            if value is None:
                stack.append(self._task(*need))

    def times_right(self, terms, f):
        """terms times the Cartan coefficient f on the right:
        L c R f = L c f(h - s_R) R."""
        return {(L, R): c * self.shift_expr(f, self.word_shift(R), scale=-1)
                for (L, R), c in terms.items()}

    @staticmethod
    def _pack(letters):
        return tuple((g, len(list(run))) for g, run in groupby(letters))

    @staticmethod
    def unpack(packed):
        """The letters of a packed word, as a tuple."""
        return tuple(g for g, e in packed for _ in range(e))

    # -- element constructors ----------------------------------------

    def zero(self, bound):
        return TaylorElement(self, bound, {})

    def one(self, bound):
        return TaylorElement(self, bound, {((), ()): self.coeff_one})

    def monomial(self, lowering, coeff, raising, bound):
        """lowering * coeff * raising, words of ((i, j), exponent) items in
        normal order: lowering letters, then raising ones, each word rising in
        `_rank`.  ValueError naming a letter that is not an off-diagonal pair
        (i, j) of su(n), is out of that order, or has no positive int exponent."""
        key = (tuple(lowering), tuple(raising))
        half = len(self.order.sequence)
        for word, low in zip(key, (0, half)):
            at = low
            for g, e in word:
                self._check_pair(g)
                if not (isinstance(e, int) and e > 0 and at <= self._rank[g] < low + half):
                    raise ValueError("letter %r with exponent %r is not a factor of a "
                                     "normal-ordered monomial of su(%d)" % (g, e, self.n))
                at = self._rank[g] + 1
        return TaylorElement(self, bound, {key: self.coeff(coeff)})

    def check_system(self, sys):
        """ValueError unless `sys` is a root system of this engine's su(n)."""
        if sys.n != self.n:
            raise ValueError("an engine of su(%d) for a root system of su(%d)" % (self.n, sys.n))

    def _check_pair(self, g):
        if g not in self._rank:
            raise ValueError("letter %r is not an off-diagonal pair (i, j) of su(%d)"
                             % (g, self.n))

    def generator(self, i, j, bound):
        if i == j:
            raise ValueError("diagonal letters are Cartan polynomials")
        word = (((i, j), 1),)
        return self.monomial((), 1, word, bound) if i < j else self.monomial(word, 1, (), bound)

    def cartan(self, expr, bound):
        return self.monomial((), expr, (), bound)


def rewrite_word(word, sys, N=64, engine=None):
    """Reduce an arbitrary word to PBW normal form as a TaylorElement.

    word items are generator pairs (i, j), Cartan letters ('h', k), Cartan
    expressions (sympy or Coeff), or (item, exponent) pairs.  Each Cartan
    letter moves to the right end of the word, c X = X c(h + s_X), so only
    the generators are straightened.  A generator pair that is not an
    off-diagonal pair of su(n), or a Cartan index outside 1..n-1, raises
    ValueError naming the letter, and an engine of another rank than sys's
    ValueError naming both.
    """
    eng = engine if engine is not None else shared_engine(sys.n)
    eng.check_system(sys)
    gens, cartans = [], []
    for item in word:
        exp = 1
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], tuple):
            item, exp = item  # ((i,j), e) or (('h',k), e)
            if not isinstance(exp, int) or exp < 0:
                raise ValueError("exponent %r of %r is not a nonnegative int" % (exp, item))
        if isinstance(item, tuple) and item[0] != "h":
            eng._check_pair(item)
            gens.extend([item] * exp)
            continue
        if isinstance(item, tuple):
            if item[1] not in range(1, eng.n):
                raise ValueError("Cartan letter %r is outside h1..h%d of su(%d)"
                                 % (item, eng.n - 1, eng.n))
            item = eng.h_span(item[1], item[1] + 1)  # h_k = e_kk - e_{k+1,k+1}
        cartans.extend([(eng.coeff(item), len(gens))] * exp)
    f = eng.coeff_one
    for c, at in cartans:
        f = f * eng.shift_expr(c, eng.word_shift(eng._pack(gens[at:])))
    return TaylorElement(eng, N, eng.times_right(eng.reduce(gens), f))._pruned()


def _engine_key(n, order=None):
    """(n, the sequence of `order` as a tuple of pairs), None standing for
    the default ordering; ValueError for a rank outside 2..6."""
    sys = build_root_system(n)
    seq = default_ordering(sys).sequence if order is None else getattr(order, "sequence", order)
    return n, tuple(map(tuple, seq))


@label_cache(8, _engine_key)  # the five default orderings, and three others
def shared_engine(n, seq):
    """shared_engine(n, order=None): the engine of su(n) in the normal
    ordering `order`, one per (rank, ordering), built on first use, when it
    validates the ordering: one that is not normal raises ValueError."""
    return RewriteEngine(build_root_system(n), seq)


class TaylorElement:
    """Truncated formal sum of PBW normal monomials.

    An element that canonical() built knows it, and canonical() returns it
    as it is: products and star are canonical already, so output reduces
    each coefficient once.
    """

    __slots__ = ("engine", "bound", "terms", "_canonical")

    def __init__(self, engine, bound, terms):
        self.engine, self.bound, self.terms = engine, bound, terms
        self._canonical = False

    # -- structure ----------------------------------------------------

    @staticmethod
    def degree(packed):
        return sum(e for _, e in packed)

    @staticmethod
    def height(packed):
        """Height of a packed raising word: e_ij (i < j) counts j - i."""
        return sum(e * (j - i) for (i, j), e in packed)

    def raising_degree(self, key):
        return self.degree(key[1])

    def _pruned(self):
        self.terms = {k: v for k, v in self.terms.items() if self.degree(k[1]) <= self.bound}
        return self

    def canonical(self):
        """The element with every coefficient reduced and the zeros dropped."""
        if self._canonical:
            return self
        out = {k: r for k, v in self.terms.items() if (r := v.reduced())}
        out = TaylorElement(self.engine, self.bound, out)
        out._canonical = True
        return out

    def monomials(self):
        """Sorted list of (lowering, coeff, raising) for stable output."""
        items = sorted(self.terms.items(), key=lambda kv: (self.degree(kv[0][0]) + self.degree(kv[0][1]), kv[0]))
        return [(L, self.terms[(L, R)], R) for (L, R), _ in items]

    # -- arithmetic ---------------------------------------------------

    def _check_compat(self, other):
        a, b = self.engine, other.engine
        if a is not b and (a.sys, a.order) != (b.sys, b.order):
            raise ValueError("incompatible root systems or orderings")

    def __add__(self, other):
        if not isinstance(other, TaylorElement):
            return NotImplemented
        self._check_compat(other)
        bound = min(self.bound, other.bound)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            cur = terms.get(k)
            terms[k] = v if cur is None else cur + v
        return TaylorElement(self.engine, bound, terms)._pruned()

    def __sub__(self, other):
        return self + (-other) if isinstance(other, TaylorElement) else NotImplemented

    def __neg__(self):
        return TaylorElement(self.engine, self.bound, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = self.engine.coeff(c)
        return TaylorElement(self.engine, self.bound, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Product truncated at the smaller bound; a non-element scales."""
        if not isinstance(other, TaylorElement):
            return self.scale(other)
        return self.mul(other)

    def mul(self, other, bound=None):
        """Product truncated at `bound`, by default the smaller input bound.

        Left terms La ca Ra are grouped by Ra and right terms Lb cb Rb by
        Lb, and each word pair Ra Lb is straightened once into core terms
        L1 c1 R1.  Per core term, R1 Rb is multiplied out (`product`) and cut
        to raising degree <= bound before any coefficient arithmetic, and cb
        shifted back past R1 taken, once per right term; ca shifted past L1
        times c1 once per left term.  Each pair of the two multiplies once,
        then by the int multiplicity of each term of La L1 and the cut R1 Rb.

        Straightening keeps weight: in simple-root coordinates wt(R1) =
        wt(Ra Lb) - wt(L1) with wt(L1) <= 0, so height(R1) is at least the
        sum of the max(wt(Ra Lb)_k, 0), while a raising word of degree <=
        bound has height <= bound * (n - 1).  So a pair Ra Lb that forces
        R1 Rb higher for the lowest Rb of its group is not straightened, and
        no higher R1 Rb is multiplied out: all they give would be cut.  Each
        output term is kept or dropped by its own raising degree, so a
        smaller `bound` gives exactly the full product's terms of degree <=
        bound; a larger one raises ValueError (terms above it are unknown).
        """
        self._check_compat(other)
        eng = self.engine
        top = min(self.bound, other.bound)
        if bound is None:
            bound = top
        elif bound > top:
            raise ValueError("output bound %d exceeds the inputs' bound %d" % (bound, top))
        degree, height, weight = TaylorElement.degree, TaylorElement.height, eng.root_weight
        limit, product = bound * (eng.n - 1), eng.product
        lefts, rights = {}, {}
        for (La, Ra), ca in self.terms.items():
            lefts.setdefault(Ra, []).append((La, ca))
        for (Lb, Rb), cb in other.terms.items():
            rights.setdefault(Lb, []).append((Rb, height(Rb), cb))
        rights = [(eng.unpack(Lb), weight(Lb), min(h for _, h, _ in rs), rs)
                  for Lb, rs in rights.items()]
        acc = {}
        for Ra, left in lefts.items():
            ra_letters, wa = eng.unpack(Ra), weight(Ra)
            for lb_letters, wb, hb, right in rights:
                if hb + sum(x + y for x, y in zip(wa, wb) if x + y > 0) > limit:
                    continue
                for (L1, R1), c1 in eng.reduce(ra_letters + lb_letters).items():
                    # La ca L1 c1 R1 cb Rb: ca moves right past L1, cb left past R1
                    h1, s1, cuts = height(R1), eng.word_shift(R1), []
                    for Rb, h, cb in right:
                        if h + h1 <= limit:
                            highs = [x for x in product(R1, Rb).items() if degree(x[0]) <= bound]
                            if highs:
                                cuts.append((eng.shift_expr(cb, s1, -1), highs))
                    if not cuts:
                        continue
                    s1 = eng.word_shift(L1)
                    for La, ca in left:
                        low = eng.shift_expr(ca, s1) * c1
                        lows = product(La, L1).items()
                        for cb, highs in cuts:
                            mid = low * cb
                            for L2, ml in lows:
                                for R2, mr in highs:
                                    key, v = (L2, R2), _times(mid, ml * mr)
                                    cur = acc.get(key)
                                    acc[key] = v if cur is None else cur + v
        return TaylorElement(eng, bound, acc).canonical()

    def __rmul__(self, other):
        return self.scale(other)

    # -- involution ---------------------------------------------------

    def star(self):
        """Antilinear anti-involution with e_ij* = e_ji, h* = h."""
        eng = self.engine
        acc = {}
        for (L, R), c in self.terms.items():
            # (L c R)* = R* c L* = R* L* c(h + s_L*), and s_L* = -s_L
            low = [(j, i) for (i, j) in reversed(eng.unpack(R))]
            high = [(j, i) for (i, j) in reversed(eng.unpack(L))]
            f = eng.shift_expr(c, eng.word_shift(L), -1)
            for key, v in eng.times_right(eng.reduce(low + high), f).items():
                cur = acc.get(key)
                acc[key] = v if cur is None else cur + v
        return TaylorElement(eng, self.bound, acc).canonical()._pruned()

    # -- evaluation ---------------------------------------------------

    def evaluate_cartan(self, weight):
        """Substitute h_i -> weight[i] (1-based); coefficients become numbers.

        Raises SingularWeightError naming the vanishing factor if a
        denominator hits zero, and ValueError for a key outside 1..n-1.
        """
        eng = self.engine
        for i in weight:
            if i not in range(1, eng.n):
                raise ValueError("Cartan index %r is outside h1..h%d of su(%d)"
                                 % (i, eng.n - 1, eng.n))
        values = [Fraction(weight.get(i, 0)) for i in range(1, eng.n)]
        out = {k: Coeff.from_rational(eng.n, x) for k, v in self.terms.items()
               if (x := v.evaluate(values))}
        return TaylorElement(eng, self.bound, out)

    # -- comparison ---------------------------------------------------

    def residual(self, other, deg=None):
        """Monomials of self - other with raising degree <= deg (default: the
        common bound); empty list means equality modulo the filtration."""
        diff = (self - other).canonical()
        if deg is None:
            deg = diff.bound
        return [(L, c, R) for (L, R), c in sorted(diff.terms.items()) if self.degree(R) <= deg]

    def equals_mod_filtration(self, other, deg=None):
        return not self.residual(other, deg)

    # -- output -------------------------------------------------------

    @staticmethod
    def _word_str(packed):
        return " ".join("e%d%d" % g + ("^%d" % e if e > 1 else "") for g, e in packed)

    def monomial_texts(self):
        """(lowering, coefficient, raising) text of each canonical monomial,
        in `monomials` order: words as `e21^a e31`, coefficients as `num` or
        `(num)/(den)`."""
        return [(self._word_str(L), c.text(), self._word_str(R))
                for L, c, R in self.canonical().monomials()]

    def dump(self):
        """Stable debug form: `e21^a e31^b * [num/den] * e12^c e13^d` lines."""
        lines = [" * ".join(s for s in (L, "[%s]" % c, R) if s)
                 for L, c, R in self.monomial_texts()]
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return "TaylorElement(N=%d,\n%s\n)" % (self.bound, self.dump())
