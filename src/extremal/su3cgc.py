"""su(3) Clebsch-Gordan machinery: coupled bases over GT bases, and
projector matrix elements by two independent routes.

Route (b), the authoritative one, works on the tensor product of two irreps,
each over its GT basis (`su3gt.gt_module`), so that the product basis is
the |g1> x |g2>: the coupled-system extremal projector yields the coupled
highest vectors, explicit GT lowering words the rest of each coupled basis,
and a CGC is one coordinate of a coupled vector.  Route (a) evaluates the
closed Wigner-calculus expression (su(2) CGCs, 6j and 9j symbols with fixed
brace layouts); the two must agree, which is what pins down the layout and
phase conventions recorded here.

Multiplicity convention: for each target highest weight, candidate seeds
|L1 h> x |L2 g2'> are scanned in the fixed GT label order of L2, a seed is
accepted when its projected highest vector is linearly independent of the
previously accepted ones, and the accepted vectors are Gram-Schmidt
orthonormalized in acceptance order; s counts from 1 in that order.  The
convention is deterministic but not canonical.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import build_root_system
from .exact import Radical, factorial_ratio, half, spin_range, sqrt_of_rational
from .projector import apply_projector
from .repmod import tensor
from .su3gt import gt_lower, gt_module, gt_norm_factor
from .wigner2 import cgc_closed, ninej, sixj

__all__ = [
    "pair_module",
    "decompose",
    "coupled_vector",
    "projector_matrix_element",
    "su3_cgc",
]

_SYS3 = build_root_system(3)
_ZERO = Radical.from_rational(0)


# -- coupled vectors over GT bases -------------------------------------


@lru_cache(maxsize=None)
def pair_module(lam1, mu1, lam2, mu2):
    """tensor(gt_module(lam1, mu1), gt_module(lam2, mu2)), built once: basis
    vector i1 * d2 + i2 is |g1> x |g2>, with tag (g1, g2)."""
    return tensor(gt_module(lam1, mu1), gt_module(lam2, mu2))


def _pair_index(lam1, mu1, g1, lam2, mu2, g2):
    M2 = gt_module(lam2, mu2)
    return gt_module(lam1, mu1).index(tuple(g1)) * M2.dim + M2.index(tuple(g2))


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

    route="direct" reads it off the coupled vectors (authoritative);
    route="formula" evaluates the closed Wigner-calculus expression.
    """
    if route == "direct":
        return _pme_direct(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p)
    if route == "formula":
        return _pme_formula(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p)
    raise ValueError("route must be 'direct' or 'formula'")


def _pme_direct(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p):
    # on the product, P^{L3}_{g3, g3'} = sum_s |s L3 g3> <s L3 g3'|
    for j, t, _ in (g3, g3p):
        gt_norm_factor(*L3, j, t)  # ValueError on an inadmissible label
    bra = _pair_index(*L1, g1, *L2, g2)
    ket = _pair_index(*L1, g1p, *L2, g2p)
    total = _ZERO
    for s in range(1, len(decompose(*L1, *L2).get(tuple(L3), ())) + 1):
        u = coupled_vector(*L1, *L2, *L3, s, tuple(g3)).coords.get(bra)
        v = coupled_vector(*L1, *L2, *L3, s, tuple(g3p)).coords.get(ket)
        if u and v:
            total = total + u * v
    return total


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
