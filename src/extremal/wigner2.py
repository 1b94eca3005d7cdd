"""su(2) coupling layer: lowering monomials, general projection operators,
Clebsch-Gordan coefficients by two independent routes, and 6j/9j symbols.

The closed-form CGC is the alternating factorial sum; the projector route
builds the coupled-system extremal projector on an explicit tensor module and
reads the coefficients off as exact matrix elements.  Both routes carry the
Condon-Shortley phases: the projector route through the positive square root
of the diagonal normalization, the closed form through its printed signs.
The 6j symbol is Racah's single sum; the 9j symbol sums products of three 6j
symbols over one spin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import build_root_system
from .exact import Radical, factorial_ratio, half, sqrt_of_rational
from .pbw import RewriteEngine
from .projector import apply_factor, extremal_projector
from .repmod import ModuleVector, apply_element, mat_vec, su2_irrep, tensor

__all__ = [
    "ScaledElement",
    "lowering_monomial",
    "general_projector",
    "cgc_closed",
    "cgc_projector",
    "sixj",
    "ninej",
]

_SYS2 = build_root_system(2)
_ENG2 = None


def su2_engine():
    global _ENG2
    if _ENG2 is None:
        _ENG2 = RewriteEngine(_SYS2)
    return _ENG2


def _valid_jm(j, m):
    return abs(m) <= j and (j - m).denominator == 1


def _triad(a, b, c):
    """su(2) coupling triangle: |a-b| <= c <= a+b with integer perimeter."""
    return (a + b + c).denominator == 1 and abs(a - b) <= c <= a + b


class ScaledElement:
    """A TaylorElement with an overall Radical scalar factored out.

    Coefficients of TaylorElements are rational functions of the Cartan
    elements, while the normalizations of the lowering monomials are square
    roots; keeping the scalar separate keeps both sides exact.
    """

    __slots__ = ("scalar", "element")

    def __init__(self, scalar, element):
        self.scalar = scalar
        self.element = element

    def star(self):
        return ScaledElement(self.scalar, self.element.star())

    def apply(self, v, M, singular="raise"):
        return apply_element(self.element, v, M, singular=singular).scale(self.scalar)

    def __repr__(self):
        return "ScaledElement(%s, %r)" % (self.scalar, self.element)


def lowering_monomial(j, m, N=None, engine=None):
    """F_{m;j} = sqrt((j+m)!/((2j)!(j-m)!)) J_-^{j-m}; maps |jj> to |jm>."""
    j, m = half(j), half(m)
    if not _valid_jm(j, m):
        raise ValueError("invalid (j, m) = (%s, %s)" % (j, m))
    eng = engine if engine is not None else su2_engine()
    k = int(j - m)
    if N is None:
        N = int(2 * j)
    scalar = sqrt_of_rational(factorial_ratio([j + m], [2 * j, j - m]))
    word = ((((2, 1), k),) if k else ())
    return ScaledElement(scalar, eng.monomial(word, 1, (), N))


def general_projector(j, m, mprime, N=None, engine=None):
    """P^j_{m;m'} = F_{m;j} P F_{j;m'}: maps |jm'> to |jm>, kills the rest."""
    j, m, mp = half(j), half(m), half(mprime)
    for mm in (m, mp):
        if not _valid_jm(j, mm):
            raise ValueError("invalid (j, m) = (%s, %s)" % (j, mm))
    eng = engine if engine is not None else su2_engine()
    if N is None:
        N = int(2 * j)
    left = lowering_monomial(j, m, N=N, engine=eng)
    right = lowering_monomial(j, mp, N=N, engine=eng).star()
    P = extremal_projector(_SYS2, N=N, engine=eng)
    return ScaledElement(
        left.scalar * right.scalar, left.element * P * right.element
    )


# -- closed-form CGC --------------------------------------------------


@lru_cache(maxsize=None)
def _cgc_closed(*labels):
    # Racah's sum in binomials (Johansson & Forssen 2016), on doubled labels:
    # with a, b, c = j1+j2-j3, j1-j2+j3, -j1+j2+j3, the coefficient is
    # sqrt(pref) * sum_k (-1)^k C(a,k) C(b, j1-m1-k) C(c, j2+m2-k)
    j1, m1, j2, m2, j3, m3 = (2 * x.numerator // x.denominator for x in labels)
    a, b, c = (j1 + j2 - j3) // 2, (j1 - j2 + j3) // 2, (j2 + j3 - j1) // 2
    x, y = (j1 - m1) // 2, (j2 + m2) // 2
    total = 0
    for k in range(max(0, x - b, y - c), min(a, x, y) + 1):
        term = math.comb(a, k) * math.comb(b, x - k) * math.comb(c, y - k)
        total += -term if k % 2 else term
    pref = (j3 + 1) * factorial_ratio(
        [(j1 + m1) // 2, x, y, (j2 - m2) // 2, (j3 + m3) // 2, (j3 - m3) // 2],
        [(j1 + j2 + j3) // 2 + 1, a, b, c],
    )
    return sqrt_of_rational(pref) * total


def _coupling(*labels):
    """The labels j1, m1, j2, m2, j3, m3 as half-integers, or None when a
    selection rule of (j1 m1 j2 m2 | j3 m3) fails."""
    j1, m1, j2, m2, j3, m3 = labels = tuple(half(x) for x in labels)
    ok = (m1 + m2 == m3 and _triad(j1, j2, j3)
          and _valid_jm(j1, m1) and _valid_jm(j2, m2) and _valid_jm(j3, m3))
    return labels if ok else None


def cgc_closed(j1, m1, j2, m2, j3, m3):
    """(j1 m1 j2 m2 | j3 m3) by the alternating factorial-sum formula.

    Total on its domain: any selection-rule failure returns 0.
    """
    labels = _coupling(j1, m1, j2, m2, j3, m3)
    if labels is None:
        return Radical.from_rational(0)
    return _cgc_closed(*labels)


# -- projector-route CGC ----------------------------------------------


@lru_cache(maxsize=None)
def _coupled_module(j1, j2):
    return tensor(su2_irrep(j1), su2_irrep(j2))


@lru_cache(maxsize=None)
def _projected_tower(j1, j2, j3):
    """P applied to |j1 j1>|j2 j3-j1>, then lowered step by step.

    Returns (diagonal element as Fraction, dict m3 -> raw J_-^{j3-m3} P v0).
    """
    M = _coupled_module(j1, j2)
    v0_idx = int(j2 - (j3 - j1))  # first factor at m = j1 (index 0)
    v0 = ModuleVector({v0_idx: 1})
    pv = apply_factor((1, 2), v0, M)  # the su(2) projector is its one factor
    diag = pv.coords.get(v0_idx)
    if diag is None:
        return None
    lowered = {j3: pv}
    jminus = M.matrix((2, 1))
    w = pv
    m3 = j3
    while m3 > -j3:
        w = ModuleVector(mat_vec(jminus, w.coords))
        m3 -= 1
        lowered[m3] = w
    return diag.to_rational(), lowered


def cgc_projector(j1, m1, j2, m2, j3, m3):
    """(j1 m1 j2 m2 | j3 m3) as a matrix element of P^{j3}_{m3;j3}.

    The general projection operator of the coupled system is applied to
    |j1 j1>|j2 j3-j1> and the result is paired with <j1 m1|<j2 m2|; the
    normalization is the positive square root of the diagonal element.
    """
    labels = _coupling(j1, m1, j2, m2, j3, m3)
    if labels is None:
        return Radical.from_rational(0)
    j1, m1, j2, m2, j3, m3 = labels
    data = _projected_tower(j1, j2, j3)
    if data is None:
        return Radical.from_rational(0)
    diag, lowered = data
    d2 = int(2 * j2) + 1
    bra = int(j1 - m1) * d2 + int(j2 - m2)
    val = lowered[m3].coords.get(bra)
    if val is None:
        return Radical.from_rational(0)
    scalar = sqrt_of_rational(factorial_ratio([j3 + m3], [2 * j3, j3 - m3]))
    return val * scalar * sqrt_of_rational(Fraction(1) / diag)


# -- recoupling symbols -----------------------------------------------


@lru_cache(maxsize=None)
def _sixj(a, b, c, d, e, f):
    # Racah's single sum (Racah 1942): the product of the four triangle
    # coefficients Delta(xyz) = (x+y-z)!(x-y+z)!(-x+y+z)!/(x+y+z+1)!, under
    # one square root, times sum_t (-1)^t (t+1)! / prod of seven factorials,
    # summed in ints over the common denominator prod (hi-s)! prod (q-lo)!
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    delta = factorial_ratio(
        [n for x, y, z in triads for n in (x + y - z, x - y + z, -x + y + z)],
        [x + y + z + 1 for x, y, z in triads],
    )
    sums = [int(x + y + z) for x, y, z in triads]
    quads = [int(a + b + d + e), int(b + c + e + f), int(c + a + f + d)]
    lo, hi = max(sums), min(quads)
    total = 0
    for t in range(lo, hi + 1):
        term = math.factorial(t + 1)
        for s in sums:
            term *= math.perm(hi - s, hi - t)
        for q in quads:
            term *= math.perm(q - lo, t - lo)
        total += -term if t % 2 else term
    den = factorial_ratio([], [hi - s for s in sums] + [q - lo for q in quads])
    return sqrt_of_rational(delta) * (total * den)


def sixj(a, b, c, d, e, f):
    """{a b c; d e f}, zero unless all four coupling triangles hold."""
    a, b, c = half(a), half(b), half(c)
    d, e, f = half(d), half(e), half(f)
    if min(a, b, c, d, e, f) < 0:
        return Radical.from_rational(0)
    for t in ((a, b, c), (c, d, e), (b, d, f), (a, e, f)):
        if not _triad(*t):
            return Radical.from_rational(0)
    return _sixj(a, b, c, d, e, f)


def ninej(rows):
    """{a b c; d e f; g h i} as the standard 6j contraction over one spin."""
    (a, b, c), (d, e, f), (g, h, i) = [tuple(half(x) for x in r) for r in rows]
    lo = max(abs(a - i), abs(b - f), abs(d - h))
    hi = min(a + i, b + f, d + h)
    total = Radical.from_rational(0)
    x = lo
    while x <= hi:
        term = sixj(a, b, c, f, i, x) * sixj(d, e, f, b, x, h) * sixj(g, h, i, x, a, d)
        total = total + term * Radical.from_rational(
            Fraction((2 * x + 1) * (-1) ** int(2 * x))
        )
        x += 1
    return total
