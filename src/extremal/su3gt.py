"""Gelfand-Tsetlin basis for su(3) adapted to su(3) > u_Y(1) x su_T(2) > u(1).

Basis vectors of the irrep (lam, mu) are labeled (j, t, t_z): hypercharge
y = -(2*lam + mu)/3 + 2j, T-spin t, projection t_z.  `gt_basis` builds all
of them from a highest vector |h>, climbing each (j, t) multiplet once: its
top vector (t_z = t) is N_jt * P^t * e31^(j + mu/2 - t) * e21^(j - mu/2 + t) |h>,
where P^t is the extremal projector of the T-spin su(2) subalgebra
(T+ = e23, T- = e32, T0 = (e22 - e33)/2), applied as the (2,3) factor of the
su(3) projector by `projector.apply_factor`, and N_jt a closed-form factorial
normalization.  Each lower t_z is e32 on the vector before it, divided by
the e32 entry sqrt((t + t_z + 1)(t - t_z)).  `gt_vector` reads the vectors
built in the realized module `su3_irrep`.

`gt_module` is the irrep over its GT basis from the closed Gelfand-Tsetlin
matrix elements (Molev, arXiv math/0211289, Thm 2.3) in the frame
E'_ij = e_{4-i,4-j}, where (j, t, t_z) is the pattern with top row
(lam + mu, mu, 0), middle row (m12, m22) = (mu/2 + j + t, mu/2 + j - t) and
bottom entry m11 = mu/2 + j - t_z.  With one sign per e21 step it gives the
matrices of the projector-built vectors, which the tests check entry for
entry; it never realizes the irrep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import factorial_ratio, half, projections, spin_range, sqrt_of_rational
from .projector import apply_factor
from .repmod import Irrep, ModuleVector, mat_mul, mat_pow_vec, mat_vec, with_raising
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
    """The four label inequalities plus the integrality of mu/2 + j + t."""
    mu2 = Fraction(mu, 2)
    if j < 0 or t < 0:
        return False
    if (mu2 + j + t).denominator != 1:
        return False
    return (
        mu2 + j - t >= 0
        and -mu2 + j + t >= 0
        and mu2 - j + t >= 0
        and mu2 + j + t <= lam + mu
    )


def enumerate_gt_labels(lam, mu):
    """All (j, t, t_z) labels of (lam, mu) in a fixed deterministic order.

    Order: ascending j, then ascending t, then descending t_z; the first
    label is the highest-weight one (0, mu/2, mu/2).
    """
    lam, mu = int(lam), int(mu)
    if lam < 0 or mu < 0:
        raise ValueError("labels must be nonnegative")
    mu2 = Fraction(mu, 2)
    out = []
    for j in spin_range(0, lam + mu):
        # admissible_jt's inequalities solved for t; stepping by 1 from
        # |j - mu/2| keeps mu/2 + j + t integral
        t = abs(j - mu2)
        while t <= min(j + mu2, lam + mu2 - j):
            out.extend((j, t, tz) for tz in projections(t))
            t += 1
    return out


def gt_hypercharge(lam, mu, j):
    return -Fraction(2 * lam + mu, 3) + 2 * Fraction(j)


def gt_norm_factor(lam, mu, j, t):
    """Normalization N^{(lam mu)}_{jt}: positive square root of a factorial
    ratio that makes the lowering-operator vector unit length; computed once
    per (lam, mu, j, t)."""
    lam, mu = int(lam), int(mu)
    j, t = half(j), half(t)
    if not admissible_jt(lam, mu, j, t):
        raise ValueError("inadmissible (j, t) = (%s, %s) for (%d, %d)" % (j, t, lam, mu))
    return _gt_norm_factor(lam, mu, j, t)


@lru_cache(maxsize=None)
def _gt_norm_factor(lam, mu, j, t):
    mu2 = Fraction(mu, 2)
    ratio = factorial_ratio(
        [lam + mu2 - j + t + 1, lam + mu2 - j - t, mu2 + j + t + 1, mu2 - j + t],
        [lam, mu, lam + mu + 1, j + mu2 - t, j - mu2 + t, 2 * t + 1],
    )
    return sqrt_of_rational(ratio)


def gt_label_index(lam, mu, label):
    """Position of `label` = (j, t, t_z) in the GT basis of (lam, mu).

    ValueError unless it labels a vector there: (j, t) admissible, and
    t - t_z an integer in [0, 2t]."""
    k = _gt_index(int(lam), int(mu)).get(tuple(half(x) for x in label))
    if k is None:
        j, t, _ = (half(x) for x in label)
        gt_norm_factor(lam, mu, j, t)  # names an inadmissible (j, t)
        raise ValueError("inadmissible GT label %s for (%d, %d)" % (label, lam, mu))
    return k


def gt_multiplets(lam, mu):
    """The (j, t) multiplets of (lam, mu) in label order, from the label index."""
    return [(j, t) for j, t, tz in _gt_index(int(lam), int(mu)) if tz == t]


@lru_cache(maxsize=64)
def _gt_index(lam, mu):
    """{label: position} in label order, the one record of which labels exist."""
    return {lab: k for k, lab in enumerate(enumerate_gt_labels(lam, mu))}


def gt_basis(M, lam, mu, v):
    """Every GT vector of (lam, mu) in label order, built in M from its
    highest vector v: the top of each (j, t) multiplet by the lowering
    operator, and each next t_z by one e32 step over its GT entry."""
    mu2 = Fraction(mu, 2)
    e21, e31, e32 = (M.matrix(g) for g in ((2, 1), (3, 1), (3, 2)))
    out = []
    for j, t, tz in enumerate_gt_labels(lam, mu):
        if tz == t:
            coords = mat_pow_vec(e21, v.coords, j - mu2 + t)
            w = ModuleVector(mat_pow_vec(e31, coords, j + mu2 - t))
            w = apply_factor((2, 3), w, M).scale(gt_norm_factor(lam, mu, j, t))
        else:
            step = sqrt_of_rational(Fraction(1, (t + tz + 1) * (t - tz)))
            w = ModuleVector(mat_vec(e32, w.coords)).scale(step)
        out.append(w)
    return out


def gt_vector(lam, mu, label):
    """The GT basis vector for `label` as exact coordinates in the realized
    module of su3_irrep(lam, mu)."""
    lam, mu = su3_label(lam, mu)
    return _gt_basis(lam, mu)[gt_label_index(lam, mu, label)]


@lru_cache(maxsize=None)
def _gt_basis(lam, mu):
    """The GT vectors in label order, built once."""
    M = su3_irrep(lam, mu)
    return gt_basis(M, lam, mu, M.basis_vector(0))


@lru_cache(maxsize=None)
def gt_module(lam, mu):
    """The irrep (lam, mu) over its GT basis, built once.

    Tags are the GT labels in label order; h1 = (2 lam + mu)/2 - 3j - t_z,
    h2 = 2 t_z.  e32 lowers t_z by sqrt((t + t_z)(t - t_z + 1)).  e21 = E'_23
    takes (j, t, t_z) to (j + 1/2, t +- 1/2, t_z + 1/2) with the entry
    sign * sqrt((lam+mu-l)(l-mu+1)(l+2)(l-m11+1) / ((l-l')(l-l'+1))): t + 1/2
    raises m12 (l = m12, l' = m22 - 1, sign +1) and t - 1/2 raises m22
    (l = m22 - 1, l' = m12, sign -1, the phase of the projector-built
    vectors).  e31 = [e32, e21]; each raising generator is the transpose.
    """
    lam, mu = su3_label(lam, mu)
    index = _gt_index(lam, mu)
    tags = list(index)
    mu2, half1 = Fraction(mu, 2), Fraction(1, 2)
    e21, e32 = {}, {}
    for c, (j, t, tz) in enumerate(tags):
        if tz > -t:
            e32[(index[(j, t, tz - 1)], c)] = sqrt_of_rational((t + tz) * (t - tz + 1))
        m12, m22, m11 = mu2 + j + t, mu2 + j - t, mu2 + j - tz
        for dt, l, lp, sign in ((half1, m12, m22 - 1, 1), (-half1, m22 - 1, m12, -1)):
            r = index.get((j + half1, t + dt, tz + half1))
            if r is not None:  # also skips the pole of t = 0
                sq = (lam + mu - l) * (l - mu + 1) * (l + 2) * (l - m11 + 1)
                e21[(r, c)] = sqrt_of_rational(sq / ((l - lp) * (l - lp + 1)), sign)
    e31 = mat_mul(e32, e21)
    for k, v in mat_mul(e21, e32).items():
        e31[k] = e31.get(k, 0) - v
    mats = {(3, 1): {k: v for k, v in e31.items() if v}, (2, 1): e21, (3, 2): e32}
    weights = [(Fraction(2 * lam + mu, 2) - 3 * j - tz, 2 * tz) for j, _, tz in tags]
    return Irrep(algebra="su3", n=3, label=(lam, mu), tags=tags,
                 weights=weights, matrices=with_raising(mats))
