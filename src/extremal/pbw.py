"""Noncommutative rewrite engine for U(su(n)) and its Taylor extension.

Elements are kept in PBW normal form: sums of monomials

    (lowering word) * (rational function of the Cartan h_i) * (raising word),

with the generators inside each word sorted by a fixed normal ordering of the
positive roots.  A TaylorElement additionally carries a truncation bound N:
monomials of total raising degree > N are dropped, and equality is understood
modulo that filtration.

Straightening works on words of generators only.  A Cartan coefficient rides
beside the word at its right end and moves past generators by an exact shift,
f(h) X = X f(h + s_X), so every memo key is a tuple of generator pairs.

Generators are index pairs (i, j), i != j, for e_ij; Cartan letters are
rational functions of h1..h_{n-1}, h_i = e_ii - e_{i+1,i+1}.  Coefficients are
stored as num / (q * den): an integer polynomial numerator, one positive int
q, and a factored denominator.  Every denominator that the projector series
produces is a product of integer shifts of linear forms in the h_i, and
keeping the factors explicit makes shifting h -> h + s and pole detection
cheap.  Each linear form a.h + c is a tuple of ints (a_1, ..., a_{n-1}, c),
primitive and with its first nonzero a_i positive, so a shift only adds an
int to c.  Integer numerators keep the ring arithmetic on Python ints, and
the powers of the linear forms that bring two coefficients over a common
denominator are computed once (`form_power`, a bounded memo).  Coeff equality
is structural and agrees with its hash; equality as rational functions is
not (a - b).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

import sympy
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import ring as _poly_ring

from .algebra import NormalOrdering, RootSystemData, build_root_system
from .exact import SingularWeightError, TruncationError

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


_H_CACHE = {}
_RING_CACHE = {}


def h_symbols(n):
    """Cartan symbols h1..h_{n-1} for su(n)."""
    if n not in _H_CACHE:
        _H_CACHE[n] = tuple(sympy.Symbol("h%d" % i) for i in range(1, n))
    return _H_CACHE[n]


def cartan_ring(n):
    """Polynomial ring QQ[h1..h_{n-1}] shared by all engines of one rank."""
    if n not in _RING_CACHE:
        _RING_CACHE[n] = _poly_ring(
            ",".join("h%d" % i for i in range(1, n)), QQ
        )[0]
    return _RING_CACHE[n]


@functools.lru_cache(maxsize=8)
def _integer_ring(ring):
    """ZZ[h1..h_{n-1}], the ring of Coeff numerators over `ring`."""
    return ring.clone(domain=ZZ)


@functools.lru_cache(maxsize=1024)
def form_power(ring, key, m):
    """(a.h + c)^m in `ring` for the linear form key = (a_1, ..., a_{n-1}, c).

    Bounded memo: Coeff.__add__ pads numerators with these powers, and the
    same few forms recur throughout a series product.
    """
    if m != 1:
        return form_power(ring, key, 1) ** m
    p = ring(key[-1])
    for g, a in zip(ring.gens, key[:-1]):
        if a:
            p = p + g * a
    return p


def _primitive(num, q):
    """(num, q) divided by gcd(content(num), q); q = 1 for num = 0."""
    if q == 1:
        return num, q
    g = q
    for c in num.values():
        g = gcd(g, c)
        if g == 1:
            return num, q
    return (num.quo_ground(g) if num else num), q // g


def _poly_mul(a, b):
    """a * b, with a constant factor applied as a scalar."""
    for x, y in ((a, b), (b, a)):
        if len(y) == 1:
            c = y.get(y.ring.zero_monom)
            if c is not None:
                return x if c == 1 else x.mul_ground(c)
    return a * b


class Coeff:
    """Rational function of the h_i with the denominator kept factored.

    The value is num / (q * prod den): num is a polynomial over ZZ (sympy
    PolyElement in the clone of `ring` over ZZ), q a positive int with
    gcd(content(num), q) = 1, kept so by every operation, and den maps a
    linear form a.h + c, encoded as a tuple of ints (a_1, ..., a_{n-1}, c)
    that is primitive and has its first nonzero a_i positive, to its
    multiplicity.  Integer numerators keep sympy's ring arithmetic on Python
    ints; numerator() and denominator() give the value's two halves as
    polynomials of `ring`, over QQ.  The denominator is not reduced on
    construction (zero testing only needs the numerator); reduced() divides
    out denominator factors before evaluation or printing, exactly over ZZ
    because each form is primitive (Gauss's lemma).

    == compares (num, q, den) by structure and agrees with hash, so memo
    probes never do polynomial arithmetic; (h+1)/(h+1) == 1 is False.
    Equality as rational functions is not (a - b).
    """

    __slots__ = ("ring", "num", "q", "den")

    def __init__(self, ring, num, den=None, q=1):
        """`ring` is the QQ ring; a numerator from it has its denominators
        cleared into q here.  Internal callers pass a ZZ numerator and the q
        that goes with it."""
        if num.ring is ring:
            c, num = num.clear_denoms()
            num, q = num.set_ring(_integer_ring(ring)), q * int(c)
        self.ring = ring
        self.num = num
        self.q = q
        self.den = den or {}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, ring, q):
        """An int, Fraction or sympy Rational as a constant Coeff."""
        zz = _integer_ring(ring)
        return cls(ring, zz.ground_new(int(q.numerator)), None, int(q.denominator))

    @classmethod
    def from_expr(cls, ring, expr):
        """Parse a sympy expression; the denominator must factor into linear
        forms of the h_i."""
        expr = sympy.cancel(sympy.together(sympy.sympify(expr)))
        num, den = sympy.fraction(expr)
        syms = h_symbols(len(ring.gens) + 1)
        out_num = ring.from_expr(num.subs(zip(syms, (g.as_expr() for g in ring.gens))))
        # factor_list gives primitive integer factors, first coefficient > 0
        const, flist = sympy.factor_list(den, *syms)
        factors = {}
        for f, mult in flist:
            poly = sympy.Poly(f, *syms, domain="ZZ")
            if poly.total_degree() > 1:
                raise ValueError("nonlinear denominator factor: %s" % f)
            key = tuple(int(poly.coeff_monomial(m)) for m in syms + (1,))
            factors[key] = factors.get(key, 0) + int(mult)
        return cls(ring, out_num * QQ(int(const.q), int(const.p)), factors)

    def numerator(self):
        """num / q as a polynomial of `ring` (over QQ)."""
        p = self.num.set_ring(self.ring)
        return p if self.q == 1 else p.mul_ground(QQ(1, self.q))

    def denominator(self):
        """Product of the denominator factors as a polynomial of `ring`."""
        p = self.ring.one
        for k, m in self.den.items():
            p = p * form_power(self.ring, k, m)
        return p

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return not self.den and self.q == 1 and self.num == self.num.ring.one

    def __hash__(self):
        # not hash(self.num): a PolyElement caches its hash, and sympy's
        # in-place building (as in div) can cache it before the last term
        return hash((frozenset(self.num.items()), self.q, frozenset(self.den.items())))

    def __eq__(self, other):
        """Structural equality of (num, q, den); see the class docstring."""
        other = self._coerce(other)
        return self.q == other.q and self.num == other.num and self.den == other.den

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Coeff):
            return other
        return Coeff.from_rational(self.ring, other)

    def __mul__(self, other):
        other = self._coerce(other)
        den = self.den
        if other.den:
            den = dict(den)
            for k, m in other.den.items():
                den[k] = den.get(k, 0) + m
        num, q = _primitive(_poly_mul(self.num, other.num), self.q * other.q)
        return Coeff(self.ring, num, den, q)

    __rmul__ = __mul__

    def __neg__(self):
        return Coeff(self.ring, -self.num, self.den, self.q)

    def __add__(self, other):
        other = self._coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        na, nb = self.num, other.num
        q = lcm(self.q, other.q)
        if q != self.q:
            na = na * (q // self.q)
        if q != other.q:
            nb = nb * (q // other.q)
        zz = na.ring
        den = {}
        for k in set(self.den) | set(other.den):
            ma, mb = self.den.get(k, 0), other.den.get(k, 0)
            if ma < mb:
                na = na * form_power(zz, k, mb - ma)
            elif mb < ma:
                nb = nb * form_power(zz, k, ma - mb)
            den[k] = max(ma, mb)
        num, q = _primitive(na + nb, q)
        return Coeff(self.ring, num, den, q)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def shift(self, svec, scale=1):
        """h_k -> h_k + scale * svec[k], exactly, in place of substitution."""
        if not any(svec) or scale == 0:
            return self
        num = self.num
        if not num.is_ground:
            for g, s in zip(num.ring.gens, svec):
                if s:
                    num = num.compose(g, g + scale * s)
        den = {}
        for k, m in self.den.items():
            delta = scale * sum(a * s for a, s in zip(k[:-1], svec))
            den[k[:-1] + (k[-1] + delta,)] = m
        return Coeff(self.ring, num, den, self.q)

    # -- normal form --------------------------------------------------

    def reduced(self):
        """Divide out denominator factors from the numerator where possible.

        Each factor is primitive, so a quotient over QQ is one over ZZ
        (Gauss's lemma), and dividing keeps gcd(content(num), q) = 1.
        """
        if not self.num:
            return Coeff(self.ring, self.num)
        num, den = self.num, {}
        for k, m in self.den.items():
            p = form_power(num.ring, k, 1)
            while m > 0:
                quo, r = num.div(p)
                if r:
                    break
                num, m = quo, m - 1
            if m:
                den[k] = m
        return Coeff(self.ring, num, den, self.q)

    def evaluate(self, values):
        """Value at h = values (sequence of Fractions); Fraction result.

        Raises SingularWeightError naming the vanishing factor if the reduced
        denominator hits zero.
        """
        c = self.reduced()
        if not c.num:
            return Fraction(0)
        den = Fraction(c.q)
        for k, m in c.den.items():
            v = sum(a * x for a, x in zip(k[:-1], values)) + k[-1]
            if v == 0:
                raise SingularWeightError(
                    "denominator factor %s vanishes at weight %s"
                    % (form_power(c.ring, k, 1).as_expr(), tuple(map(str, values)))
                )
            den *= v**m
        num = 0
        for monom, a in c.num.items():
            for x, e in zip(values, monom):
                if e:
                    a *= x**e
            num += a
        return num / den

    def as_expr(self):
        """Canonical sympy expression, for display and interop."""
        c = self.reduced()
        e = c.numerator().as_expr()
        for k, m in sorted(c.den.items()):
            e = e / form_power(c.ring, k, 1).as_expr() ** m
        return e

    def __repr__(self):
        return "Coeff(%s)" % self.as_expr()


class RewriteEngine:
    """Straightening engine for one su(n) with one fixed normal ordering.

    Holds the rewrite caches; all results are exact (truncation is applied
    only when assembling TaylorElements).
    """

    def __init__(self, sys: RootSystemData, order: NormalOrdering = None):
        from .algebra import normal_ordering

        self.sys = sys
        self.n = sys.n
        self.order = normal_ordering(sys, order)
        self.ring = cartan_ring(self.n)
        self.coeff_one = Coeff(self.ring, self.ring.one)
        # place of each letter in a normal-ordered word: lowering letters
        # before raising ones, each kind in the order of its roots
        seq = self.order.sequence
        self._rank = {}
        for pos, (i, j) in enumerate(seq):
            self._rank[(j, i)], self._rank[(i, j)] = pos, len(seq) + pos
        self._reduce_cache = {}
        self._unpack_cache = {}
        self._shift_cache = {}
        self._word_shift_cache = {}
        self._h_span_cache = {}
        self._eval_cache = {}  # (Coeff, weight) -> Radical, for repmod.apply_element

    # -- coefficients -------------------------------------------------

    def coeff(self, x):
        """Coerce a number, Fraction, sympy expression, or Coeff."""
        if isinstance(x, Coeff):
            return x
        if isinstance(x, (int, Fraction)):
            return Coeff.from_rational(self.ring, x)
        return Coeff.from_expr(self.ring, x)

    def recip_linear(self, factors):
        """1 / prod of linear forms; each factor is (svec over h, const), ints
        with the first nonzero entry of svec positive and no common divisor."""
        den = {}
        for svec, c in factors:
            key = tuple(svec) + (c,)
            den[key] = den.get(key, 0) + 1
        return Coeff(self.ring, self.ring.one, den)

    # -- letters ------------------------------------------------------

    def shift_vector(self, g):
        """[h_k, e_g] = s_k e_g; returns tuple s over k = 1..n-1."""
        i, j = g
        return tuple(
            (k == i) - (k == j) - (k + 1 == i) + (k + 1 == j)
            for k in range(1, self.n)
        )

    def word_shift(self, letters):
        """Sum of the shift vectors of a word of generators, memoized."""
        key = tuple(letters)
        s = self._word_shift_cache.get(key)
        if s is None:
            s = [0] * (self.n - 1)
            for g in key:
                for k, x in enumerate(self.shift_vector(g)):
                    s[k] += x
            s = self._word_shift_cache[key] = tuple(s)
        return s

    def shift_expr(self, coeff, svec, scale=1):
        """coeff with h_k -> h_k + scale*svec[k], memoized."""
        if not any(svec) or scale == 0:
            return coeff
        key = (coeff, svec, scale)
        try:
            return self._shift_cache[key]
        except KeyError:
            pass
        out = coeff.shift(svec, scale)
        self._shift_cache[key] = out
        return out

    def h_span_vec(self, i, j):
        """Coefficient vector of e_ii - e_jj over the h_k."""
        v = [0] * (self.n - 1)
        lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
        for k in range(lo, hi):
            v[k - 1] = sign
        return tuple(v)

    def h_span(self, i, j):
        """e_ii - e_jj as a Coeff (i < j: h_i + ... + h_{j-1}), memoized."""
        c = self._h_span_cache.get((i, j))
        if c is None:
            p = self.ring.zero
            for k, a in enumerate(self.h_span_vec(i, j)):
                if a:
                    p = p + self.ring.gens[k] * a
            c = self._h_span_cache[(i, j)] = Coeff(self.ring, p)
        return c

    def commutator(self, a, b):
        """[e_a, e_b] as a list of (sign, letter); letter is a generator pair
        or a Cartan Coeff."""
        i, j = a
        k, l = b
        out = []
        if j == k and i == l:
            out.append((1, self.h_span(i, j)))
            return out
        if j == k:
            out.append((1, (i, l)))
        if i == l:
            out.append((-1, (k, j)))
        return out

    # -- straightening ------------------------------------------------

    def reduce(self, word):
        """Normal-order a word of generators; returns dict {(L, R): Coeff}.

        Words hold generators only.  L and R are tuples of ((i,j), exp) in
        ordering sequence order; the coefficient sits between them.  A Cartan
        commutator met while straightening rides at the right end of the word
        (head h rest = head rest h(h + s_rest)) and enters the coefficient
        through times_right.  Exact (no truncation).  Every intermediate word
        is memoized on its tuple of generator pairs, so repeated straightening
        of the same subproblems (ubiquitous in series products) costs nothing.
        A worklist stands in for recursion: a word is straightened once the
        words it swaps and contracts to are in the memo, so the stack depth
        does not grow with the word.
        """
        word = tuple(word)
        cache, rank = self._reduce_cache, self._rank
        if word in cache:
            return cache[word]
        todo = [word]
        while todo:
            w = todo[-1]
            if w in cache:
                todo.pop()
                continue
            for i in range(len(w) - 1):
                if rank[w[i]] > rank[w[i + 1]]:
                    break
            else:
                low = [g for g in w if g[0] > g[1]]
                high = [g for g in w if g[0] < g[1]]
                cache[w] = {(self._pack(low), self._pack(high)): self.coeff_one}
                todo.pop()
                continue
            a, b = w[i], w[i + 1]
            head, rest = w[:i], w[i + 2 :]
            parts = [(1, head + (b, a) + rest, None)]
            for sign, letter in self.commutator(a, b):
                if isinstance(letter, tuple):
                    parts.append((sign, head + (letter,) + rest, None))
                else:
                    parts.append((sign, head + rest, letter))
            missing = [u for _, u, _ in parts if u not in cache]
            if missing:
                todo.extend(missing)
                continue
            out = dict(cache[parts[0][1]])
            for sign, u, letter in parts[1:]:
                sub = cache[u]
                if letter is not None:
                    sub = self.times_right(sub, self.shift_expr(letter, self.word_shift(rest)))
                for k, v in sub.items():
                    if sign < 0:
                        v = -v
                    cur = out.get(k)
                    out[k] = v if cur is None else cur + v
            cache[w] = {k: v for k, v in out.items() if v}
            todo.pop()
        return cache[word]

    def times_right(self, terms, f):
        """terms times the Cartan coefficient f on the right:
        L c R f = L c f(h - s_R) R."""
        return {
            (L, R): c * self.shift_expr(f, self.word_shift(self.unpack(R)), scale=-1)
            for (L, R), c in terms.items()
        }

    def _pack(self, letters):
        packed = []
        for g in letters:
            if packed and packed[-1][0] == g:
                packed[-1][1] += 1
            else:
                packed.append([g, 1])
        return tuple((g, e) for g, e in packed)

    def unpack(self, packed):
        """The letters of a packed word, as a tuple; memoized."""
        out = self._unpack_cache.get(packed)
        if out is None:
            out = self._unpack_cache[packed] = tuple(g for g, e in packed for _ in range(e))
        return out

    # -- element constructors ----------------------------------------

    def zero(self, bound):
        return TaylorElement(self, bound, {})

    def one(self, bound):
        return TaylorElement(self, bound, {((), ()): self.coeff_one})

    def monomial(self, lowering, coeff, raising, bound):
        key = (tuple(lowering), tuple(raising))
        return TaylorElement(self, bound, {key: self.coeff(coeff)})

    def generator(self, i, j, bound):
        if i == j:
            raise ValueError("diagonal letters are Cartan polynomials")
        if i < j:
            return self.monomial((), 1, (((i, j), 1),), bound)
        return self.monomial((((i, j), 1),), 1, (), bound)

    def cartan(self, expr, bound):
        return self.monomial((), expr, (), bound)


def rewrite_word(word, sys, order=None, N=64, engine=None):
    """Reduce an arbitrary word to PBW normal form as a TaylorElement.

    word items are generator pairs (i, j), Cartan letters ('h', k), Cartan
    expressions (sympy or Coeff), or (item, exponent) pairs.  Each Cartan
    letter moves to the right end of the word, c X = X c(h + s_X), so only
    the generators are straightened.
    """
    eng = engine if engine is not None else RewriteEngine(sys, order)
    gens, cartans = [], []
    for item in word:
        exp = 1
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], tuple):
            item, exp = item  # ((i,j), e) or (('h',k), e)
        if isinstance(item, tuple) and item[0] != "h":
            gens.extend([item] * exp)
            continue
        if isinstance(item, tuple):
            item = Coeff(eng.ring, eng.ring.gens[item[1] - 1])
        cartans.extend([(eng.coeff(item), len(gens))] * exp)
    f = eng.coeff_one
    for c, at in cartans:
        f = f * eng.shift_expr(c, eng.word_shift(gens[at:]))
    out = TaylorElement(eng, N, eng.times_right(eng.reduce(gens), f))
    return out._pruned()


@functools.lru_cache(maxsize=None)
def shared_engine(n):
    """The engine of su(n) in its default normal ordering, one per rank."""
    return RewriteEngine(build_root_system(n))


class TaylorElement:
    """Truncated formal sum of PBW normal monomials."""

    __slots__ = ("engine", "bound", "terms")

    def __init__(self, engine, bound, terms):
        self.engine = engine
        self.bound = bound
        self.terms = terms

    # -- structure ----------------------------------------------------

    @staticmethod
    def degree(packed):
        return sum(e for _, e in packed)

    def raising_degree(self, key):
        return self.degree(key[1])

    def _pruned(self):
        self.terms = {
            k: v for k, v in self.terms.items() if self.degree(k[1]) <= self.bound
        }
        return self

    def canonical(self):
        out = {}
        for k, v in self.terms.items():
            v = v.reduced()
            if v:
                out[k] = v
        return TaylorElement(self.engine, self.bound, out)

    def monomials(self):
        """Sorted list of (lowering, coeff, raising) for stable output."""
        items = sorted(self.terms.items(), key=lambda kv: (self.degree(kv[0][0]) + self.degree(kv[0][1]), kv[0]))
        return [(L, self.terms[(L, R)], R) for (L, R), _ in items]

    # -- arithmetic ---------------------------------------------------

    def _check_compat(self, other):
        if self.engine is not other.engine:
            if (
                self.engine.sys != other.engine.sys
                or self.engine.order != other.engine.order
            ):
                raise ValueError("incompatible root systems or orderings")

    def __add__(self, other):
        self._check_compat(other)
        bound = min(self.bound, other.bound)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            cur = terms.get(k)
            terms[k] = v if cur is None else cur + v
        return TaylorElement(self.engine, bound, terms)._pruned()

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TaylorElement(self.engine, self.bound, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = self.engine.coeff(c)
        return TaylorElement(self.engine, self.bound, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TaylorElement):
            return self.scale(other)
        self._check_compat(other)
        eng = self.engine
        bound = min(self.bound, other.bound)
        acc = {}
        for (La, Ra), ca in self.terms.items():
            ra_letters = eng.unpack(Ra)
            for (Lb, Rb), cb in other.terms.items():
                core = eng.times_right(eng.reduce(ra_letters + eng.unpack(Lb)), cb)
                for (L1, R1), c1 in core.items():
                    # La ca L1 c1 R1 Rb ; move ca right past L1
                    mid = eng.shift_expr(ca, eng.word_shift(eng.unpack(L1))) * c1
                    lows = eng.reduce(eng.unpack(La) + eng.unpack(L1))
                    highs = eng.reduce(eng.unpack(R1) + eng.unpack(Rb))
                    for (L2, _e1), cl in lows.items():
                        for (_e2, R2), cr in highs.items():
                            if TaylorElement.degree(R2) > bound:
                                continue
                            key = (L2, R2)
                            v = cl * mid * cr
                            cur = acc.get(key)
                            acc[key] = v if cur is None else cur + v
        out = TaylorElement(eng, bound, acc).canonical()
        return out

    def __rmul__(self, other):
        return self.scale(other)

    # -- involution ---------------------------------------------------

    def star(self):
        """Antilinear anti-involution with e_ij* = e_ji, h* = h."""
        eng = self.engine
        acc = {}
        for (L, R), c in self.terms.items():
            # (L c R)* = R* c L* = R* L* c(h + s_L*)
            low = [(j, i) for (i, j) in reversed(eng.unpack(R))]
            high = [(j, i) for (i, j) in reversed(eng.unpack(L))]
            f = eng.shift_expr(c, eng.word_shift(high))
            for key, v in eng.times_right(eng.reduce(low + high), f).items():
                cur = acc.get(key)
                acc[key] = v if cur is None else cur + v
        return TaylorElement(eng, self.bound, acc).canonical()._pruned()

    # -- evaluation ---------------------------------------------------

    def evaluate_cartan(self, weight):
        """Substitute h_i -> weight[i] (1-based); coefficients become numbers.

        Raises SingularWeightError naming the vanishing factor if a
        denominator hits zero.
        """
        eng = self.engine
        values = [Fraction(weight.get(i, 0)) for i in range(1, eng.n)]
        out = {}
        for k, v in self.terms.items():
            val = v.evaluate(values)
            if val != 0:
                out[k] = Coeff.from_rational(eng.ring, val)
        return TaylorElement(eng, self.bound, out)

    # -- comparison ---------------------------------------------------

    def residual(self, other, deg=None):
        """Monomials of self - other with raising degree <= deg (default: the
        common bound); empty list means equality modulo the filtration."""
        diff = (self - other).canonical()
        if deg is None:
            deg = diff.bound
        return [
            (L, c, R)
            for (L, R), c in sorted(diff.terms.items())
            if self.degree(R) <= deg
        ]

    def equals_mod_filtration(self, other, deg=None):
        return not self.residual(other, deg)

    # -- output -------------------------------------------------------

    @staticmethod
    def _word_str(packed, transpose=False):
        parts = []
        for (i, j), e in packed:
            name = "e%d%d" % ((j, i) if transpose else (i, j))
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return " ".join(parts)

    def dump(self):
        """Stable debug form: `e21^a e31^b * [num/den] * e12^c e13^d` lines."""
        lines = []
        for L, c, R in self.canonical().monomials():
            num, den = sympy.fraction(c.as_expr())
            cs = "[%s]" % num if den == 1 else "[(%s)/(%s)]" % (num, den)
            seg = [s for s in (self._word_str(L), cs, self._word_str(R)) if s]
            lines.append(" * ".join(seg))
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return "TaylorElement(N=%d,\n%s\n)" % (self.bound, self.dump())
