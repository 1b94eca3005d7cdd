"""su(3) Clebsch-Gordan machinery: tensor form of the projector, coupled
bases over GT bases, and projector matrix elements by two independent routes.

Route (b), the authoritative one, works on the tensor product of two irreps,
each over its GT basis (`su3gt.gt_module`), so that the product basis is
the |g1> x |g2>: the coupled-system extremal projector is sandwiched between
explicit GT lowering words, and a CGC is one coordinate of the resulting
coupled vector.  Route (a) evaluates the closed Wigner-calculus expression
(su(2) CGCs, 6j and 9j symbols with fixed brace layouts); the two must agree,
which is what pins down the layout and phase conventions recorded here.

Multiplicity convention: for each target highest weight, candidate seeds
|L1 h> x |L2 g2'> are scanned in the fixed GT label order of L2, a seed is
accepted when its projected highest vector is linearly independent of the
previously accepted ones, and the accepted vectors are Gram-Schmidt
orthonormalized in acceptance order; s counts from 1 in that order.  The
convention is deterministic but not canonical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import build_root_system
from .exact import Radical, factorial_ratio, half, spin_range, sqrt_of_rational
from .pbw import TaylorElement
from .projector import apply_factor, apply_projector, projector_factor
from .repmod import ModuleVector, apply_element, mat_pow_vec, tensor
from .su3gt import gt_lower, gt_module, gt_norm_factor, su3_engine
from .wigner2 import cgc_closed, ninej, sixj

__all__ = [
    "coeff_A",
    "tensor_form_parts",
    "build_tensor_form",
    "apply_tensor_form",
    "coeff_B",
    "pair_module",
    "decompose",
    "coupled_vector",
    "projector_matrix_element",
    "su3_cgc",
]

_SYS3 = build_root_system(3)
_ZERO = Radical.from_rational(0)

def coeff_A(lam, mu, j, jz):
    """Weight-evaluated series coefficient A_{j j_z} of the tensor form.

    phi_12 = e11 - e22 + 1 and phi_13 = e11 - e33 + 2 at weight (lam, mu)
    become lam + 1 and lam + mu + 2.
    """
    j, jz = half(j), half(jz)
    if (j - jz).denominator != 1 or abs(jz) > j:
        raise ValueError("invalid (j, j_z) = (%s, %s)" % (j, jz))
    phi12 = lam + 1
    phi13 = lam + mu + 2
    ratio = factorial_ratio(
        [phi12 + j + jz - 1, phi13], [2 * j, phi12 + 2 * j, phi13 + j + jz]
    )
    # (-1)^(3j) for half-integer j is ambiguous as printed; rounding 3j down
    # is the reading under which the tensor form matches the factorized
    # projector
    return Fraction((-1) ** math.floor(3 * j)) * phi12 * ratio


def tensor_form_parts(lam, mu, N, engine=None):
    """The three factors (P_T, sum over j and j_z of A R~ R, P_T) of the
    tensor form, with the series coefficients evaluated at weight (lam, mu).

    The two spin-j tensor components are paired with opposite projections,
    A_{j j_z} R~^j_{-j_z} R^j_{j_z}, so each summand preserves weight; this
    pairing (rather than the repeated-subscript one) is the reading under
    which the sum reproduces the factorized projector.

    For module application the factors should be applied sequentially,
    rightmost first: the middle factor has constant coefficients and shifts no
    weight, so every step is pole-free on dominant components, while the
    expanded product picks up spurious point poles that only cancel between
    its PBW monomials.
    """
    eng = engine if engine is not None else su3_engine()
    pt = projector_factor(_SYS3, (2, 3), N, engine=eng)
    terms = {}
    for jj in range(0, N + 1):
        j = Fraction(jj, 2)
        jz = -j
        while jz <= j:
            a, b = int(j - jz), int(j + jz)  # e21/e12 exponent, e31/e13 exponent
            norm = factorial_ratio([2 * j], [j - jz, j + jz])
            low = tuple(p for p in (((2, 1), a), ((3, 1), b)) if p[1])
            high = tuple(p for p in (((1, 2), a), ((1, 3), b)) if p[1])
            terms[(low, high)] = eng.coeff(coeff_A(lam, mu, j, jz) * norm)
            jz += 1
    mid = TaylorElement(eng, N, terms)
    return pt, mid, pt


def build_tensor_form(lam, mu, N, engine=None):
    """P_T (sum over j, j_z of A R~ R) P_T as one expanded element, with the
    coefficients evaluated at weight (lam, mu); acts like the full projector
    on weight-(lam, mu) vectors.  See tensor_form_parts for module use."""
    pt, mid, _ = tensor_form_parts(lam, mu, N, engine=engine)
    return pt * mid * pt


def apply_tensor_form(lam, mu, v, M):
    """Act with the tensor form of the projector on a module vector by
    applying its three factors sequentially."""
    pt, mid, _ = tensor_form_parts(lam, mu, M.weight_diameter)
    v = apply_element(pt, v, M, singular="zero")
    if not v.is_zero():
        v = apply_element(mid, v, M, singular="zero")
    if not v.is_zero():
        v = apply_element(pt, v, M, singular="zero")
    return v


def coeff_B(lam, mu, j, t, jp, tp, jpp, tpp):
    """Expansion coefficient B of the general projection operator in terms of
    the coupled tensor operators; zero whenever a triangle or factorial
    condition fails."""
    lam, mu = int(lam), int(mu)
    j, t, jp, tp, jpp, tpp = (half(x) for x in (j, t, jp, tp, jpp, tpp))
    mu2 = Fraction(mu, 2)
    s1 = sixj(j, jpp, j + jpp, tpp, t, mu2)
    if not s1:
        return Radical.from_rational(0)
    s2 = sixj(jp, jpp, jp + jpp, tpp, tp, mu2)
    if not s2:
        return Radical.from_rational(0)
    rational = factorial_ratio(
        [], [lam + mu2 + jpp + tpp + 2, lam + mu2 + jpp - tpp + 1, 2 * jpp]
    )
    if not rational:
        return Radical.from_rational(0)
    phase = (-1) ** int(2 * j + jp + jpp - tp + tpp)
    pref = (
        Fraction(phase * (lam + 1) * (mu + 1) * (lam + mu + 2))
        * rational
    )
    root = factorial_ratio(
        [lam + mu2 - j + t + 1, lam + mu2 - j - t,
         lam + mu2 - jp + tp + 1, lam + mu2 - jp - tp],
        [2 * j, 2 * jp],
    ) * Fraction((int(2 * (j + jpp)) + 1) * (int(2 * (jp + jpp)) + 1),
                 (int(2 * t) + 1) * (int(2 * tp) + 1))
    if not root:
        return Radical.from_rational(0)
    return Radical.from_rational(pref) * sqrt_of_rational(root) * s1 * s2


# -- coupled vectors over GT bases -------------------------------------


@lru_cache(maxsize=None)
def pair_module(lam1, mu1, lam2, mu2):
    """tensor(gt_module(lam1, mu1), gt_module(lam2, mu2)), built once: basis
    vector i1 * d2 + i2 is |g1> x |g2>, with tag (g1, g2)."""
    return tensor(gt_module(lam1, mu1), gt_module(lam2, mu2))


def _pair_index(lam1, mu1, g1, lam2, mu2, g2):
    M2 = gt_module(lam2, mu2)
    return gt_module(lam1, mu1).index(tuple(g1)) * M2.dim + M2.index(tuple(g2))


def _gt_raise(M, lam3, mu3, label, v):
    """Apply the star of the GT lowering operator (a raising word) to v."""
    j, t, tz = (half(x) for x in label)
    mu2 = Fraction(mu3, 2)
    coords = mat_pow_vec(M.matrix((2, 3)), v.coords, t - tz)
    w = apply_factor((2, 3), ModuleVector(coords), M)
    coords = mat_pow_vec(M.matrix((1, 3)), w.coords, j + mu2 - t)
    w = ModuleVector(mat_pow_vec(M.matrix((1, 2)), coords, j - mu2 + t))
    scalar = sqrt_of_rational(factorial_ratio([t + tz], [2 * t, t - tz]))
    return w.scale(gt_norm_factor(lam3, mu3, j, t) * scalar)


@lru_cache(maxsize=None)
def decompose(lam1, mu1, lam2, mu2):
    """Coupled highest-weight vectors of every constituent of the product.

    Returns a dict (lam3, mu3) -> list of orthonormal ModuleVectors in
    pair_module(lam1, mu1, lam2, mu2), indexed by the multiplicity label
    s - 1.  The seeds |L1 h> x |L2 g2> are its basis vectors 0 * d2 + i2.
    """
    Mt = pair_module(lam1, mu1, lam2, mu2)
    found = {}
    total = 0
    for i2 in range(gt_module(lam2, mu2).dim):
        w3 = Mt.weights[i2]
        if w3[0] < 0 or w3[1] < 0:
            continue
        hv = apply_projector(_SYS3, Mt.basis_vector(i2), Mt)
        if hv.is_zero():
            continue
        key = (int(w3[0]), int(w3[1]))
        basis = found.setdefault(key, [])
        red = hv
        for u in basis:
            red = red - u.scale(u.inner(hv))
        n2 = red.norm2()
        if not n2:
            continue
        basis.append(red.scale(sqrt_of_rational(Fraction(1) / n2.to_rational())))
        total += (key[0] + 1) * (key[1] + 1) * (key[0] + key[1] + 2) // 2
    if total != Mt.dim:
        raise RuntimeError(
            "decomposition of (%d,%d)x(%d,%d) incomplete: %d of %d"
            % (lam1, mu1, lam2, mu2, total, Mt.dim)
        )
    return found


@lru_cache(maxsize=None)
def coupled_vector(lam1, mu1, lam2, mu2, lam3, mu3, s, label):
    """The coupled vector |s (lam3 mu3) label> in pair_module(lam1, mu1,
    lam2, mu2): the GT lowering word of (lam3, mu3) for `label` applied to
    the s-th coupled highest vector.  Its coordinate at the tag (g1, g2) is
    the CGC ((lam1 mu1) g1, (lam2 mu2) g2 | s (lam3 mu3) label)."""
    found = decompose(lam1, mu1, lam2, mu2)
    copies = found.get((lam3, mu3), ())
    if not 1 <= s <= len(copies):
        raise ValueError(
            "(%d,%d) appears %d times in (%d,%d)x(%d,%d); s=%d"
            % (lam3, mu3, len(copies), lam1, mu1, lam2, mu2, s)
        )
    Mt = pair_module(lam1, mu1, lam2, mu2)
    return gt_lower(Mt, lam3, mu3, label, copies[s - 1])


def su3_cgc(lam1, mu1, g1, lam2, mu2, g2, lam3, mu3, g3, s=1):
    """CGC ((lam1 mu1) g1, (lam2 mu2) g2 | s (lam3 mu3) g3), g = (j, t, t_z).

    The coefficient is one coordinate of coupled_vector, the one at
    |g1> x |g2>.
    """
    v = coupled_vector(lam1, mu1, lam2, mu2, lam3, mu3, s, tuple(g3))
    return v.coords.get(_pair_index(lam1, mu1, g1, lam2, mu2, g2), _ZERO)


# -- projector matrix elements by two routes --------------------------


def projector_matrix_element(
    L1, g1, L2, g2, L3, g3, g3p, g1p, g2p, route="direct"
):
    """<L1 g1| <L2 g2| P^{L3}_{g3, g3'} |L1 g1'> |L2 g2'>.

    route="direct" computes on the coupled GT-basis module (authoritative);
    route="formula" evaluates the closed Wigner-calculus expression.
    """
    if route == "direct":
        return _pme_direct(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p)
    if route == "formula":
        return _pme_formula(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p)
    raise ValueError("route must be 'direct' or 'formula'")


def _pme_direct(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p):
    (lam1, mu1), (lam2, mu2), (lam3, mu3) = L1, L2, L3
    Mt = pair_module(lam1, mu1, lam2, mu2)
    ket = Mt.basis_vector(_pair_index(lam1, mu1, g1p, lam2, mu2, g2p))
    v = _gt_raise(Mt, lam3, mu3, g3p, ket)
    # the operator is the projector evaluated at weight (lam3, mu3): only the
    # component the raising word lifts into that weight space contributes
    target = (Fraction(lam3), Fraction(mu3))
    v = ModuleVector(
        {i: c for i, c in v.coords.items() if Mt.weights[i] == target}
    )
    if v.is_zero():
        return _ZERO
    v = apply_projector(_SYS3, v, Mt)
    if v.is_zero():
        return _ZERO
    v = gt_lower(Mt, lam3, mu3, g3, v)
    return v.coords.get(_pair_index(lam1, mu1, g1, lam2, mu2, g2), _ZERO)


def _pme_formula(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p):
    (lam1, mu1), (lam2, mu2), (lam3, mu3) = L1, L2, L3
    j1, t1, t1z = (half(x) for x in g1)
    j2, t2, t2z = (half(x) for x in g2)
    j3, t3, t3z = (half(x) for x in g3)
    j3p, t3p, t3zp = (half(x) for x in g3p)
    j1p, t1p, t1zp = (half(x) for x in g1p)
    j2p, t2p, t2zp = (half(x) for x in g2p)
    mu12, mu22, mu32 = Fraction(mu1, 2), Fraction(mu2, 2), Fraction(mu3, 2)
    zero = Radical.from_rational(0)

    # weight conservation: the isospin projections are balanced by the two
    # CGC prefactors below, the hypercharges by an implicit constraint on
    # the j labels (y1 + y2 = y3 on both sides)
    delta = Fraction((2 * lam1 + mu1) + (2 * lam2 + mu2) - (2 * lam3 + mu3), 6)
    if j1 + j2 - j3 != delta or j1p + j2p - j3p != delta:
        return zero

    c_bra = cgc_closed(t1, t1z, t2, t2z, t3, t3z)
    if not c_bra:
        return zero
    c_ket = cgc_closed(t1p, t1zp, t2p, t2zp, t3p, t3zp)
    if not c_ket:
        return zero

    a_sq = factorial_ratio(
        [2 * j1 + 1, 2 * j2 + 1,
         lam3 + mu32 - j3 + t3 + 1, lam3 + mu32 - j3 - t3],
        [lam1 + mu12 - j1 + t1 + 1, lam1 + mu12 - j1 - t1,
         lam2 + mu22 - j2 + t2 + 1, lam2 + mu22 - j2 - t2, 2 * j3],
    ) * factorial_ratio(
        [2 * j1p + 1, 2 * j2p + 1,
         lam3 + mu32 - j3p + t3p + 1, lam3 + mu32 - j3p - t3p],
        [lam1 + mu12 - j1p + t1p + 1, lam1 + mu12 - j1p - t1p,
         lam2 + mu22 - j2p + t2p + 1, lam2 + mu22 - j2p - t2p, 2 * j3p],
    ) * Fraction(
        (int(2 * t1) + 1) * (int(2 * t2) + 1)
        * (int(2 * t1p) + 1) * (int(2 * t2p) + 1)
    )
    if not a_sq:
        return zero
    a_fac = sqrt_of_rational(a_sq)

    total = zero
    for j1pp in spin_range(0, min(j1, j1p)):
        for j2pp in spin_range(0, min(j2, j2p)):
            jsum = j1 + j2 - j1pp - j2pp
            jsump = j1p + j2p - j1pp - j2pp
            if (j1 + j2 - j3 - j1pp - j2pp) < 0:
                continue
            if (j1p + j2p - j3p - j1pp - j2pp) < 0:
                continue
            for t1pp in spin_range(0, j1pp + mu12):
                for t2pp in spin_range(0, j2pp + mu22):
                    t3pp = abs(t1pp - t2pp)
                    while t3pp <= t1pp + t2pp:
                        term = _cgc6_term(
                            lam1, mu12, lam2, mu22, lam3, mu32,
                            j1, t1, j2, t2, j3, t3,
                            j1p, t1p, j2p, t2p, j3p, t3p,
                            j1pp, j2pp, t1pp, t2pp, t3pp,
                        )
                        if term:
                            n1 = ninej(
                                ((j1 - j1pp, j2 - j2pp, jsum),
                                 (t1pp, t2pp, t3pp),
                                 (t1, t2, t3))
                            )
                            if n1:
                                n2 = ninej(
                                    ((j1p - j1pp, j2p - j2pp, jsump),
                                     (t1pp, t2pp, t3pp),
                                     (t1p, t2p, t3p))
                                )
                                if n2:
                                    total = total + term * n1 * n2
                        t3pp += Fraction(1, 2)
    scale = Fraction((lam3 + 1) * (mu3 + 1) * (lam3 + mu3 + 2))
    return c_bra * c_ket * a_fac * total * Radical.from_rational(scale)


def _cgc6_term(
    lam1, mu12, lam2, mu22, lam3, mu32,
    j1, t1, j2, t2, j3, t3,
    j1p, t1p, j2p, t2p, j3p, t3p,
    j1pp, j2pp, t1pp, t2pp, t3pp,
):
    """One coefficient C of the quintuple sum, six 6j symbols included."""
    zero = Radical.from_rational(0)
    jsum = j1 + j2 - j1pp - j2pp
    jsump = j1p + j2p - j1pp - j2pp
    # summation points where a factorial argument is not an integer lie
    # outside the admissible label lattice and contribute nothing
    for x in (
        mu12 + j1pp + t1pp,
        mu22 + j2pp + t2pp,
        mu32 + j1 + j2 - j3 - j1pp - j2pp + t3pp,
    ):
        if x.denominator != 1:
            return zero
    if lam1 + mu12 - j1pp - t1pp < 0 or lam2 + mu22 - j2pp - t2pp < 0:
        return zero
    rat = factorial_ratio(
        [2 * jsum + 1, 2 * jsump + 1],
        [2 * j1pp, 2 * j2pp, 2 * (j1 - j1pp), 2 * (j2 - j2pp),
         2 * (j1p - j1pp), 2 * (j2p - j2pp), 2 * (j1 + j2 - j3 - j1pp - j2pp)],
    )
    if not rat:
        return zero
    rat = rat * factorial_ratio(
        [lam1 + mu12 - j1pp + t1pp + 1, lam1 + mu12 - j1pp - t1pp,
         lam2 + mu22 - j2pp + t2pp + 1, lam2 + mu22 - j2pp - t2pp],
        [lam3 + mu32 + j1 + j2 - j3 - j1pp - j2pp + t3pp + 2,
         lam3 + mu32 + j1 + j2 - j3 - j1pp - j2pp - t3pp + 1],
    )
    if not rat:
        return zero
    rat = rat * Fraction(
        (int(2 * t1pp) + 1) * (int(2 * t2pp) + 1) * (int(2 * t3pp) + 1)
    )
    # the phase must treat both sides alike (the printed mixed form breaks
    # hermiticity between bra and ket labels); with the hypercharge selection
    # rule the all-unprimed and all-primed readings coincide
    phase = (-1) ** int(2 * (j1 + j2 + j3 - j1pp - j2pp))
    sixjs = [
        sixj(j1 - j1pp, j1pp, j1, mu12, t1, t1pp),
        sixj(j2 - j2pp, j2pp, j2, mu22, t2, t2pp),
        sixj(j3, j1 + j2 - j3 - j1pp - j2pp, jsum, t3pp, t3, mu32),
        sixj(j1p - j1pp, j1pp, j1p, mu12, t1p, t1pp),
        sixj(j2p - j2pp, j2pp, j2p, mu22, t2p, t2pp),
        sixj(j3p, j1p + j2p - j3p - j1pp - j2pp, jsump, t3pp, t3p, mu32),
    ]
    out = Radical.from_rational(Fraction(phase) * rat)
    for sj in sixjs:
        if not sj:
            return zero
        out = out * sj
    return out
