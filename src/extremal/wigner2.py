"""su(2) coupling layer: Clebsch-Gordan coefficients by two independent
routes, and 6j/9j symbols.

The closed-form CGC is the alternating factorial sum; the projector route
applies the coupled-system extremal projector to an explicit tensor module and
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

from .exact import Radical, factorial_ratio, half, sqrt_of_rational
from .projector import apply_factor
from .repmod import ModuleVector, mat_vec, su2_irrep, tensor

__all__ = [
    "cgc_closed",
    "cgc_projector",
    "sixj",
    "ninej",
]

_ZERO = Radical.from_rational(0)


def _triad(a, b, c):
    """su(2) coupling triangle: |a-b| <= c <= a+b with integer perimeter."""
    return (a + b + c).denominator == 1 and abs(a - b) <= c <= a + b


# -- closed-form CGC --------------------------------------------------


@lru_cache(maxsize=None)
def _cgc_closed(j1, m1, j2, m2, j3, m3):
    # Racah's sum in binomials (Johansson & Forssen 2016), on doubled labels:
    # with a, b, c = j1+j2-j3, j1-j2+j3, -j1+j2+j3, the coefficient is
    # sqrt(pref) * sum_k (-1)^k C(a,k) C(b, j1-m1-k) C(c, j2+m2-k)
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
    """The labels j1, m1, j2, m2, j3, m3 doubled to ints, or None when a
    selection rule of (j1 m1 j2 m2 | j3 m3) fails."""
    j1, m1, j2, m2, j3, m3 = doubled = tuple(
        f.numerator * (2 // f.denominator) for f in map(half, labels))
    ok = (m1 + m2 == m3 and (j1 + j2 + j3) % 2 == 0
          and abs(j1 - j2) <= j3 <= j1 + j2
          and all(abs(m) <= j and (j - m) % 2 == 0
                  for j, m in ((j1, m1), (j2, m2), (j3, m3))))
    return doubled if ok else None


def cgc_closed(j1, m1, j2, m2, j3, m3):
    """(j1 m1 j2 m2 | j3 m3) by the alternating factorial-sum formula.

    Total on its domain: any selection-rule failure returns 0.
    """
    labels = _coupling(j1, m1, j2, m2, j3, m3)
    if labels is None:
        return _ZERO
    return _cgc_closed(*labels)


# -- projector-route CGC ----------------------------------------------


@lru_cache(maxsize=None)
def _coupled_module(j1, j2):
    return tensor(su2_irrep(Fraction(j1, 2)), su2_irrep(Fraction(j2, 2)))


@lru_cache(maxsize=None)
def _projected_tower(j1, j2, j3):
    """P applied to |j1 j1>|j2 j3-j1>, then lowered step by step; all
    labels doubled.

    Returns (diagonal element as Fraction, dict 2*m3 -> raw J_-^{j3-m3} P v0).
    """
    M = _coupled_module(j1, j2)
    v0_idx = (j2 - j3 + j1) // 2  # first factor at m = j1 (index 0)
    pv = apply_factor((1, 2), ModuleVector({v0_idx: 1}), M)  # P's one factor
    diag = pv.coords.get(v0_idx)
    if diag is None:
        return None
    lowered = {j3: pv}
    jminus = M.matrix((2, 1))
    for m3 in range(j3 - 2, -j3 - 1, -2):
        pv = ModuleVector(mat_vec(jminus, pv.coords))
        lowered[m3] = pv
    return diag.to_rational(), lowered


def cgc_projector(j1, m1, j2, m2, j3, m3):
    """(j1 m1 j2 m2 | j3 m3) as a matrix element of P^{j3}_{m3;j3}.

    The general projection operator of the coupled system is applied to
    |j1 j1>|j2 j3-j1> and the result is paired with <j1 m1|<j2 m2|; the
    normalization is the positive square root of the diagonal element.
    """
    labels = _coupling(j1, m1, j2, m2, j3, m3)
    if labels is None:
        return _ZERO
    j1, m1, j2, m2, j3, m3 = labels
    data = _projected_tower(j1, j2, j3)
    if data is None:
        return _ZERO
    diag, lowered = data
    val = lowered[m3].coords.get((j1 - m1) // 2 * (j2 + 1) + (j2 - m2) // 2)
    if val is None:
        return _ZERO
    scalar = sqrt_of_rational(factorial_ratio([(j3 + m3) // 2], [j3, (j3 - m3) // 2]))
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
