"""Gelfand-Tsetlin basis for su(3) adapted to su(3) > u_Y(1) x su_T(2) > u(1).

Basis vectors of the irrep (lam, mu) are labeled (j, t, t_z): hypercharge
y = -(2*lam + mu)/3 + 2j, T-spin t, projection t_z.  `gt_basis` builds all
of them from a highest vector |h>, climbing each (j, t) multiplet once: its
top vector (t_z = t) is N_jt * P^t * e31^(j + mu/2 - t) * e21^(j - mu/2 + t) |h>,
where P^t is the extremal projector of the T-spin su(2) subalgebra
(T+ = e23, T- = e32, T0 = (e22 - e33)/2), applied as the (2,3) factor of the
su(3) projector by `projector.factor_on_frame`, and N_jt a closed-form factorial
normalization.  Each lower t_z is e32 on the vector before it, divided by
the e32 entry sqrt((t + t_z + 1)(t - t_z)).  The work runs over the module's
rational frame (`repmod`): the lowering, the projector factor and the e32
steps act on int frame parts, and the norm and the steps are one one-term
Radical per vector, applied as the vector leaves the frame.  `gt_vector`
reads the vectors built in the realized module `su3_irrep`.

`gt_module` is the irrep over its GT basis from the closed Gelfand-Tsetlin
matrix elements (Molev, arXiv math/0211289, Thm 2.3) for the generators
E'_ij = e_{4-i,4-j}, where (j, t, t_z) is the pattern with top row
(lam + mu, mu, 0), middle row (m12, m22) = (mu/2 + j + t, mu/2 + j - t) and
bottom entry m11 = mu/2 + j - t_z.  With one sign per e21 step it gives the
matrices of the projector-built vectors, which the tests check entry for
entry; it never realizes the irrep.  Its frame comes from the e21 and e32
entries by `repmod.frame_of_entries`, and e31 = [e32, e21] is taken over it,
in ints; its Radical `matrices` are built on first read.

Labels come in and go out as Fractions but are ranged and tested on doubled
ints (2j, 2t, 2t_z), like su(2) labels; `_gt_index` is the one record of an
irrep's labels, in label order with their positions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import doubled, half, integer, label_cache, sqrt_factorial_ratio, sqrt_of_rational
from .exact import triangle
from .projector import factor_on_frame
from .repmod import FrameMatrix, Irrep, _irrep_label, col_vec, frame_apply, frame_of_entries
from .repmod import su3_irrep, su3_label

__all__ = [
    "enumerate_gt_labels",
    "gt_hypercharge",
    "gt_norm_factor",
    "gt_label_index",
    "gt_multiplets",
    "gt_vector",
    "gt_basis",
    "gt_module",
    "su3_engine",
]


def su3_engine():
    """pbw.shared_engine(3), kept because perfbench/families.py imports it."""
    from .pbw import shared_engine

    return shared_engine(3)


def admissible_jt(lam, mu, j, t):
    """Whether (j, t) labels a multiplet of (lam, mu): the triangle (j, mu/2, t)
    and j + t <= lam + mu/2.  ValueError unless j and t are half-integers."""
    J, T = doubled(j, t)
    return triangle(J, mu, T) and J + T <= 2 * lam + mu


def enumerate_gt_labels(lam, mu):
    """All (j, t, t_z) labels of (lam, mu) in a fixed deterministic order.

    Order: ascending j, then ascending t, then descending t_z; the first
    label is the highest-weight one (0, mu/2, mu/2).
    """
    return list(_gt_index(lam, mu)[0])


def gt_hypercharge(lam, mu, j):
    return -Fraction(2 * lam + mu, 3) + 2 * Fraction(j)


def gt_norm_factor(lam, mu, j, t):
    """Normalization N^{(lam mu)}_{jt}: positive square root of a factorial
    ratio that makes the lowering-operator vector unit length; memoized per
    (lam, mu, j, t) in a bounded cache."""
    lam, mu = integer(lam), integer(mu)
    if not admissible_jt(lam, mu, j, t):
        raise ValueError("inadmissible (j, t) = (%s, %s) for (%d, %d)"
                         % (half(j), half(t), lam, mu))
    return _gt_norm_factor(lam, mu, *doubled(j, t))


@lru_cache(maxsize=1024)
def _gt_norm_factor(lam, mu, J, T):
    """gt_norm_factor of the doubled labels J = 2j, T = 2t."""
    top = 2 * lam + mu
    return sqrt_factorial_ratio(
        [(top - J + T) // 2 + 1, (top - J - T) // 2, (mu + J + T) // 2 + 1, (mu - J + T) // 2],
        [lam, mu, lam + mu + 1, (J + mu - T) // 2, (J - mu + T) // 2, T + 1],
    )


def gt_label_index(lam, mu, label):
    """Position of `label` = (j, t, t_z) in the GT basis of (lam, mu).

    ValueError unless it labels a vector there: a triple, (j, t)
    admissible, and t - t_z an integer in [0, 2t]."""
    try:
        j, t, tz = label
    except (TypeError, ValueError):
        raise ValueError("GT label %r of (%s, %s) is not a (j, t, t_z) triple"
                         % (label, lam, mu)) from None
    k = _gt_index(lam, mu)[1].get(doubled(j, t, tz))
    if k is None:
        gt_norm_factor(lam, mu, j, t)  # names an inadmissible (j, t)
        raise ValueError("inadmissible GT label %s for (%s, %s)" % (label, lam, mu))
    return k


def gt_multiplets(lam, mu):
    """The (j, t) multiplets of (lam, mu) in label order."""
    return [(j, t) for j, t, tz in _gt_index(lam, mu)[0] if tz == t]


@label_cache(64, _irrep_label)  # no guard: a coupled target's labels are read too
def _gt_index(lam, mu):
    """The one record of which labels (lam, mu) has: its (j, t, t_z) labels
    in label order, and {(2j, 2t, 2t_z): position}.

    For each 2j = J, the admissible 2t = T run from |J - mu| in steps of 2
    (the triangle (j, mu/2, t)) up to min(J + mu, 2 lam + mu - J)."""
    index = {}
    for J in range(2 * (lam + mu) + 1):
        for T in range(abs(J - mu), min(J + mu, 2 * lam + mu - J) + 1, 2):
            for Tz in range(T, -T - 1, -2):
                index[(J, T, Tz)] = len(index)
    # one Fraction per value, shared by the labels: large records stay small
    halves = {k: Fraction(k, 2) for k in range(-lam - mu, 2 * (lam + mu) + 1)}
    return tuple((halves[J], halves[T], halves[Tz]) for J, T, Tz in index), index


def gt_basis(M, lam, mu, v):
    """Every GT vector of (lam, mu) in label order, built in M from its
    highest vector v: the top of each (j, t) multiplet by the lowering
    operator, and each next t_z by one e32 step over its GT entry.

    The work runs over M's frame (`Irrep.to_frame`), in ints and one
    rational scale per frame part; the norm and the e32 steps multiply one
    one-term Radical per vector, and each vector leaves the frame once.
    The labels are read by `exact.integer`, as a coupled target may lie
    beyond the guard of `su3_label`; ValueError unless every coordinate of
    v has weight (lam, mu), and then unless v is a unit highest vector:
    nonzero, annihilated by e12 and e23 and of norm 1, each read off its
    frame parts."""
    lam, mu = integer(lam), integer(mu)
    e21, e31, e32 = (M.frame[g] for g in ((2, 1), (3, 1), (3, 2)))
    top = M.to_frame(v)
    for b in v.coords:
        if tuple(M.weights[b]) != (lam, mu):
            raise ValueError("coordinate %d of v has weight %s, not (%d, %d)"
                             % (b, tuple(M.weights[b]), lam, mu))
    if not top:
        raise ValueError("v is zero, not a highest vector")
    for g in ((1, 2), (2, 3)):
        if any(col_vec(M.frame[g].cols, x) for _, x in top.values()):
            raise ValueError("e%d%d does not annihilate v: it is no highest vector" % g)
    norm2 = {}  # |v|^2 by radicand, summed over each ordered pair of frame parts
    for k, (s, x) in top.items():
        for k2, (s2, x2) in top.items():
            g = math.gcd(k, k2)
            r = k // g * (k2 // g)
            norm2[r] = norm2.get(r, 0) + s * s2 * g * M.frame_dot(x, x2)
    if {r: c for r, c in norm2.items() if c} != {1: 1}:
        raise ValueError("v has squared norm %s, not 1" % v.norm2())
    out = []
    for J, T, Tz in _gt_index(lam, mu)[1]:
        if Tz == T:
            w = {k: frame_apply(e31, frame_apply(e21, p, (J - mu + T) // 2), (J + mu - T) // 2)
                 for k, p in top.items()}
            w = factor_on_frame((2, 3), w, M)
            scale = _gt_norm_factor(lam, mu, J, T)
        else:
            w = {k: frame_apply(e32, p) for k, p in w.items()}
            scale = scale * sqrt_of_rational(Fraction(4, (T + Tz + 2) * (T - Tz)))
        out.append(M.from_frame(w, scale))
    return out


def gt_vector(lam, mu, label):
    """The GT basis vector for `label` as exact coordinates in the realized
    module of su3_irrep(lam, mu)."""
    return _gt_basis(lam, mu)[gt_label_index(lam, mu, label)]


@label_cache(32, su3_label)  # su3_label admits 28 irreps
def _gt_basis(lam, mu):
    """The GT vectors in label order, built once."""
    M = su3_irrep(lam, mu)
    return gt_basis(M, lam, mu, M.basis_vector(0))


@label_cache(32, su3_label)  # su3_label admits 28 irreps
def gt_module(lam, mu):
    """The irrep (lam, mu) over its GT basis, built once per irrep.

    Tags are the GT labels in label order; h1 = (2 lam + mu)/2 - 3j - t_z,
    h2 = 2 t_z.  e32 lowers t_z by sqrt((t + t_z)(t - t_z + 1)).  e21 = E'_23
    takes (j, t, t_z) to (j + 1/2, t +- 1/2, t_z + 1/2) with the entry
    sign * sqrt((lam+mu-l)(l-mu+1)(l+2)(l-m11+1) / ((l-l')(l-l'+1))): t + 1/2
    raises m12 (l = m12, l' = m22 - 1, sign +1) and t - 1/2 raises m22
    (l = m22 - 1, l' = m12, sign -1, the phase of the projector-built
    vectors).  The frame comes from the squared e21 and e32 entries
    (`repmod.frame_of_entries`); e31 = [e32, e21] over it, and each raising
    generator is the transpose.
    """
    tags, index = _gt_index(lam, mu)
    e21, e32 = {}, {}
    for c, (J, T, Tz) in enumerate(index):
        if Tz > -T:
            e32[(index[(J, T, Tz - 2)], c)] = (1, Fraction((T + Tz) * (T - Tz + 2), 4))
        m12, m22, m11 = (mu + J + T) // 2, (mu + J - T) // 2, (mu + J - Tz) // 2
        for dT, l, lp, sign in ((1, m12, m22 - 1, 1), (-1, m22 - 1, m12, -1)):
            r = index.get((J + 1, T + dT, Tz + 1))
            if r is not None:  # also skips the pole of t = 0
                sq = (lam + mu - l) * (l - mu + 1) * (l + 2) * (l - m11 + 1)
                e21[(r, c)] = (sign, Fraction(sq, (l - lp) * (l - lp + 1)))
    nu, lowering = frame_of_entries({(2, 1): e21, (3, 2): e32}, len(index))
    (d21, f21), (d32, f32) = lowering[(2, 1)], lowering[(3, 2)]
    e31 = {}
    for c in range(len(index)):
        # column c of e32 e21 - e21 e32, over the denominator d21 d32
        col = col_vec(f32, dict(f21.get(c, ())))
        for r, v in col_vec(f21, dict(f32.get(c, ()))).items():
            col[r] = col.get(r, 0) - v
        if any(col.values()):
            e31[c] = [(r, v) for r, v in col.items() if v]
    lowering[(3, 1)] = FrameMatrix(d21 * d32, e31)
    # h1 is an int: Tz = T = J + mu (mod 2), so 3J + Tz = mu (mod 2)
    weights = [((2 * lam + mu - 3 * J - Tz) // 2, Tz) for J, _, Tz in index]
    return Irrep(n=3, label=(lam, mu), tags=list(tags), weights=weights,
                 nu=nu, lowering=lowering)
