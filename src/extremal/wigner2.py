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

from .exact import Radical, doubled, factorial_ratio, half, triangle
from .exact import sqrt_factorial_ratio
from .projector import factor_on_frame
from .repmod import frame_apply, su2_irrep, tensor

__all__ = [
    "cgc_closed",
    "cgc_closed_doubled",
    "cgc_projector",
    "cgc_projector_doubled",
    "cgc_table",
    "sixj",
    "sixj_doubled",
    "ninej",
    "ninej_doubled",
]

_ZERO = Radical.from_rational(0)


# -- closed-form CGC --------------------------------------------------


def cgc_closed_doubled(j1, m1, j2, m2, j3, m3):
    """`cgc_closed` on doubled labels that the selection rules allow."""
    # Racah's sum in binomials (Johansson & Forssen 2016), on doubled labels:
    # with a, b, c = j1+j2-j3, j1-j2+j3, -j1+j2+j3, the coefficient is the
    # root below times sum_k (-1)^k C(a,k) C(b, j1-m1-k) C(c, j2+m2-k)
    a, b, c = (j1 + j2 - j3) // 2, (j1 - j2 + j3) // 2, (j2 + j3 - j1) // 2
    x, y = (j1 - m1) // 2, (j2 + m2) // 2
    total = 0
    for k in range(max(0, x - b, y - c), min(a, x, y) + 1):
        term = math.comb(a, k) * math.comb(b, x - k) * math.comb(c, y - k)
        total += -term if k % 2 else term
    return sqrt_factorial_ratio(
        [(j1 + m1) // 2, x, y, (j2 - m2) // 2, (j3 + m3) // 2, (j3 - m3) // 2],
        [(j1 + j2 + j3) // 2 + 1, a, b, c], extra=j3 + 1, scale=total)


def _coupling(*labels):
    """The labels j1, m1, j2, m2, j3, m3 doubled to ints, or None when a
    selection rule of (j1 m1 j2 m2 | j3 m3) fails."""
    j1, m1, j2, m2, j3, m3 = ints = doubled(*labels)
    ok = (m1 + m2 == m3 and triangle(j1, j2, j3)
          and all(abs(m) <= j and (j - m) % 2 == 0
                  for j, m in ((j1, m1), (j2, m2), (j3, m3))))
    return ints if ok else None


def cgc_closed(j1, m1, j2, m2, j3, m3):
    """(j1 m1 j2 m2 | j3 m3) by the alternating factorial-sum formula.

    Total on its domain: any selection-rule failure returns 0.
    """
    labels = _coupling(j1, m1, j2, m2, j3, m3)
    return _ZERO if labels is None else cgc_closed_doubled(*labels)


def cgc_table(j1, j2, j3=None):
    """The allowed doubled labels (j1 m1 j2 m2 j3 m3) of the j1 x j2 table by
    descending j3, m3, m1; only the j3 block when j3 is given.  ValueError
    for a negative spin or a j3 that the table lacks."""
    d1, d2 = doubled(j1, j2)
    if d1 < 0 or d2 < 0:
        raise ValueError("spins must be nonnegative")
    j3s = range(d1 + d2, abs(d1 - d2) - 1, -2)
    if j3 is not None:
        d3 = doubled(j3)
        if d3[0] not in j3s:
            raise ValueError("j3=%s does not occur in %s x %s"
                             % (half(j3), half(j1), half(j2)))
        j3s = d3
    return [(d1, m1, d2, m3 - m1, d3, m3)
            for d3 in j3s for m3 in range(d3, -d3 - 1, -2)
            for m1 in range(min(d1, m3 + d2), max(-d1, m3 - d2) - 1, -2)]


# -- projector-route CGC ----------------------------------------------


@lru_cache(maxsize=64)
def _projected_tower(j1, j2, j3):
    """P applied to |j1 j1>|j2 j3-j1>, then lowered step by step; all
    labels doubled.

    Returns (diagonal element as Fraction, dict 2*m3 -> raw J_-^{j3-m3} P v0).
    """
    M = tensor(su2_irrep(Fraction(j1, 2)), su2_irrep(Fraction(j2, 2)))
    v0_idx = (j2 - j3 + j1) // 2  # first factor at m = j1 (index 0)
    # P's one factor, and the lowering, over M's frame
    parts = factor_on_frame((1, 2), M.to_frame(M.basis_vector(v0_idx)), M)
    pv = M.from_frame(parts)
    diag = pv.coords.get(v0_idx)
    if diag is None:
        return None
    lowered = {j3: pv}
    jminus = M.frame[(2, 1)]
    for m3 in range(j3 - 2, -j3 - 1, -2):
        parts = {k: frame_apply(jminus, p) for k, p in parts.items()}
        lowered[m3] = M.from_frame(parts)
    return diag.to_rational(), lowered


def cgc_projector(j1, m1, j2, m2, j3, m3):
    """(j1 m1 j2 m2 | j3 m3) as a matrix element of P^{j3}_{m3;j3}.

    The general projection operator of the coupled system is applied to
    |j1 j1>|j2 j3-j1> and the result is paired with <j1 m1|<j2 m2|; the
    normalization is the positive square root of the diagonal element.
    """
    labels = _coupling(j1, m1, j2, m2, j3, m3)
    return _ZERO if labels is None else cgc_projector_doubled(*labels)


def cgc_projector_doubled(j1, m1, j2, m2, j3, m3):
    """`cgc_projector` on doubled labels that the selection rules allow."""
    data = _projected_tower(j1, j2, j3)
    if data is None:
        return _ZERO
    diag, lowered = data
    val = lowered[m3].coords.get((j1 - m1) // 2 * (j2 + 1) + (j2 - m2) // 2)
    if val is None:
        return _ZERO
    # sqrt((j3+m3)! / ((2 j3)! (j3-m3)!) / diag), with 1/diag = q/p = pq/p^2
    p, q = diag.numerator, diag.denominator
    return val * sqrt_factorial_ratio([(j3 + m3) // 2], [j3, (j3 - m3) // 2], p * q, Fraction(1, p))


# -- recoupling symbols -----------------------------------------------


@lru_cache(maxsize=1024)
def _sixj(a, b, c, d, e, f):
    # Racah's single sum (Racah 1942), on doubled labels: the product of the
    # four triangle coefficients Delta(xyz) = (x+y-z)!(x-y+z)!(-x+y+z)!/(x+y+z+1)!
    # under one square root, times sum_t (-1)^t (t+1)! / prod of seven factorials,
    # summed in ints over the common denominator prod (hi-s)! prod (q-lo)!
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    sums = [(x + y + z) // 2 for x, y, z in triads]
    quads = [(a + b + d + e) // 2, (b + c + e + f) // 2, (c + a + f + d) // 2]
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
    return sqrt_factorial_ratio(
        [n // 2 for x, y, z in triads for n in (x + y - z, x - y + z, -x + y + z)],
        [(x + y + z) // 2 + 1 for x, y, z in triads], scale=total * den)


def sixj_doubled(a, b, c, d, e, f):
    """`sixj` on doubled labels."""
    triads = ((a, b, c), (c, d, e), (b, d, f), (a, e, f))
    return _sixj(a, b, c, d, e, f) if all(triangle(*t) for t in triads) else _ZERO


def sixj(a, b, c, d, e, f):
    """{a b c; d e f}, zero unless all four coupling triangles hold."""
    return sixj_doubled(*doubled(a, b, c, d, e, f))


def ninej_doubled(rows):
    """`ninej` on doubled labels."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    total = _ZERO
    for x in range(max(abs(a - i), abs(b - f), abs(d - h)), min(a + i, b + f, d + h) + 1, 2):
        term = (sixj_doubled(a, b, c, f, i, x) * sixj_doubled(d, e, f, b, x, h)
                * sixj_doubled(g, h, i, x, a, d))
        total = total + term * ((x + 1) * (-1) ** x)
    return total


def ninej(rows):
    """{a b c; d e f; g h i} as the standard 6j contraction over one spin."""
    return ninej_doubled([doubled(*r) for r in rows])
