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

from .exact import Radical, doubled, factorial_ratio, factorial_root, half, triangle
from .exact import sqrt_factorial_ratio
from .projector import factor_on_frame
from .repmod import frame_apply, su2_irrep, tensor

__all__ = [
    "cgc_closed",
    "cgc_closed_doubled",
    "cgc_closed_table",
    "cgc_projector",
    "cgc_projector_doubled",
    "cgc_projector_table",
    "sixj",
    "sixj_doubled",
    "ninej",
    "ninej_doubled",
]

_ZERO = Radical.from_rational(0)


# -- closed-form CGC --------------------------------------------------


def _projection_root(j, m):
    """sqrt(((j+m)/2)! ((j-m)/2)!) on doubled labels, as a root (k, den, s)."""
    return factorial_root([(j + m) // 2, (j - m) // 2], [])


def _triangle_root(j1, j2, j3):
    """sqrt((j3+1) / ((J+1)! a! b! c!)) on doubled labels, with J, a, b, c =
    (j1+j2+j3)/2, (j1+j2-j3)/2, (j1-j2+j3)/2, (-j1+j2+j3)/2, as a root (k, den, s)."""
    return factorial_root([], [(j1 + j2 + j3) // 2 + 1, (j1 + j2 - j3) // 2,
                               (j1 - j2 + j3) // 2, (j2 + j3 - j1) // 2], j3 + 1)


def _times(*roots):
    """The product of roots (k, den, s), each k / den * sqrt(s) with s
    squarefree, by one gcd per root after the first."""
    k, den, s = roots[0]
    for k2, den2, s2 in roots[1:]:
        g = math.gcd(s, s2)
        k, den, s = k * k2 * g, den * den2, (s // g) * (s2 // g)
    return k, den, s


def _cgc_value(j1, m1, j2, m2, j3, root):
    """(j1 m1 j2 m2 | j3 m3) on allowed doubled labels, given its root: the
    triangle root times the projection roots of (j1, m1), (j2, m2), (j3, m3)."""
    # Racah's sum in binomials (Johansson & Forssen 2016), on doubled labels:
    # with a, b, c = j1+j2-j3, j1-j2+j3, -j1+j2+j3, the coefficient is the
    # root times sum_k (-1)^k C(a,k) C(b, j1-m1-k) C(c, j2+m2-k)
    a, b, c = (j1 + j2 - j3) // 2, (j1 - j2 + j3) // 2, (j2 + j3 - j1) // 2
    x, y = (j1 - m1) // 2, (j2 + m2) // 2
    total = 0
    for k in range(max(0, x - b, y - c), min(a, x, y) + 1):
        term = math.comb(a, k) * math.comb(b, x - k) * math.comb(c, y - k)
        total += -term if k % 2 else term
    out = Radical.__new__(Radical)
    k, den, s = root
    out.terms = {s: Fraction(total * k, den)} if total else {}
    return out


def cgc_closed_doubled(j1, m1, j2, m2, j3, m3):
    """`cgc_closed` on doubled labels that the selection rules allow."""
    return _cgc_value(j1, m1, j2, m2, j3, _times(
        _triangle_root(j1, j2, j3), _projection_root(j3, m3),
        _projection_root(j1, m1), _projection_root(j2, m2)))


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


def _table_spins(j1, j2, j3):
    """The doubled j1, j2 of a table and its doubled j3 in print order (only
    j3 when given).  ValueError for a negative spin or a j3 that the table lacks."""
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
    return d1, d2, j3s


def _m1s(d1, d2, m3):
    """The doubled m1 of a table's m3 row, descending."""
    return range(min(d1, m3 + d2), max(-d1, m3 - d2) - 1, -2)


def cgc_closed_table(j1, j2, j3=None):
    """Yield (labels, value) for the allowed doubled labels (j1 m1 j2 m2 j3
    m3) of the j1 x j2 table by descending j3, m3, m1 (only the j3 block
    when j3 is given), with each value `cgc_closed_doubled(*labels)`.

    The roots of the values are shared: the projection roots of j1 and j2
    are taken once per table, the triangle root once per j3, and the
    projection root of j3 once per m3.  ValueError for a negative spin or
    a j3 that the table lacks, when the walk starts.
    """
    d1, d2, j3s = _table_spins(j1, j2, j3)
    roots1 = {m: _projection_root(d1, m) for m in range(-d1, d1 + 1, 2)}
    roots2 = {m: _projection_root(d2, m) for m in range(-d2, d2 + 1, 2)}
    for d3 in j3s:
        triangle_root = _triangle_root(d1, d2, d3)
        for m3 in range(d3, -d3 - 1, -2):
            root3 = _times(triangle_root, _projection_root(d3, m3))
            for m1 in _m1s(d1, d2, m3):
                m2 = m3 - m1
                yield ((d1, m1, d2, m2, d3, m3),
                       _cgc_value(d1, m1, d2, m2, d3, _times(root3, roots1[m1], roots2[m2])))


# -- projector-route CGC ----------------------------------------------


def _stretched(M, j1, j2, j3):
    """P |j1 j1>|j2 j3-j1> in M = j1 x j2 as one frame part (k, (s, x)), and
    the root that scales it, lowered (j3 - m3)/2 steps, to the CGCs of row
    m3; all labels doubled."""
    b = (j1 + j2 - j3) // 2  # the first factor at m = j1 (index 0)
    (k, (s, x)), = factor_on_frame((1, 2), M.to_frame(M.basis_vector(b)), M).items()
    # e_b enters the frame at radicand k = nu_b, so the diagonal element
    # <e_b|P|e_b> = k s x_b = p/q is the stretched CGC squared, never 0; the
    # root is sqrt((j3+m3)! / ((2 j3)! (j3-m3)!) / diag), with 1/diag = pq/p^2
    p, q = (k * s * x[b]).as_integer_ratio()
    return k, (s, x), lambda m3: sqrt_factorial_ratio(
        [(j3 + m3) // 2], [j3, (j3 - m3) // 2], p * q, Fraction(1, p))


def cgc_projector(j1, m1, j2, m2, j3, m3):
    """(j1 m1 j2 m2 | j3 m3) as a matrix element of P^{j3}_{m3;j3}.

    The general projection operator of the coupled system is applied to
    |j1 j1>|j2 j3-j1> and the result is paired with <j1 m1|<j2 m2|; the
    normalization is the positive square root of the diagonal element.
    """
    labels = _coupling(j1, m1, j2, m2, j3, m3)
    return _ZERO if labels is None else cgc_projector_doubled(*labels)


def cgc_projector_doubled(j1, m1, j2, m2, j3, m3):
    """`cgc_projector` on doubled labels that the selection rules allow:
    P applied once, then lowered (j3 - m3)/2 steps in one call."""
    M = tensor(su2_irrep(Fraction(j1, 2)), su2_irrep(Fraction(j2, 2)))
    k, part, root = _stretched(M, j1, j2, j3)
    part = frame_apply(M.frame[(2, 1)], part, (j3 - m3) // 2)
    b = (j1 - m1) // 2 * (j2 + 1) + (j2 - m2) // 2
    return M.from_frame({k: part}, root(m3)).coords.get(b, _ZERO)


def cgc_projector_table(j1, j2, j3=None):
    """Yield (labels, value) as `cgc_closed_table(j1, j2, j3)` does, with
    each value `cgc_projector_doubled(*labels)`.

    The tensor module is built once per table and P applied once per j3;
    each m3 row is the frame part lowered one step further, leaving the
    frame once.  ValueError as `cgc_closed_table`, when the walk starts.
    """
    d1, d2, j3s = _table_spins(j1, j2, j3)
    M = tensor(su2_irrep(Fraction(d1, 2)), su2_irrep(Fraction(d2, 2)))
    jminus = M.frame[(2, 1)]
    for d3 in j3s:
        k, part, root = _stretched(M, d1, d2, d3)
        for m3 in range(d3, -d3 - 1, -2):
            coords = M.from_frame({k: part}, root(m3)).coords
            for m1 in _m1s(d1, d2, m3):
                m2 = m3 - m1
                yield ((d1, m1, d2, m2, d3, m3),
                       coords.get((d1 - m1) // 2 * (d2 + 1) + (d2 - m2) // 2, _ZERO))
            part = frame_apply(jminus, part)


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
