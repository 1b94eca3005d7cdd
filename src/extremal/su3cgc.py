"""su(3) Clebsch-Gordan machinery: coupled bases over GT bases, and
projector matrix elements by two independent routes.

Route (b), the authoritative one, works on the tensor product of two irreps,
each over its GT basis (`su3gt.gt_module`), so that the product basis is
the |g1> x |g2>: the coupled-system extremal projector yields the coupled
highest vectors, `su3gt.gt_basis` the rest of each coupled basis, and a CGC
is one coordinate of a coupled vector.  The product carries the factors'
rational frame (`repmod.tensor`), and `decompose` orthogonalizes the
projected vectors there by `repmod.orthogonalize`, in ints under the
frame's nu-weighted inner product, so each coupled highest vector takes one
square root per coordinate, 1/sqrt(n^2) times the frame's.  Route (a)
evaluates the closed Wigner-calculus expression (su(2) CGCs, 6j and 9j
symbols with fixed brace layouts); the two must agree, which is what pins
down the layout and phase conventions recorded here.

Multiplicity convention: for each target highest weight, candidate seeds
|L1 h> x |L2 g2'> are scanned in the fixed GT label order of L2, a seed is
accepted when its projected highest vector is linearly independent of the
previously accepted ones, and the accepted vectors are Gram-Schmidt
orthonormalized in acceptance order; s counts from 1 in that order.  The
convention is deterministic but not canonical.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import build_root_system
from .exact import Radical, doubled, factorial_ratio, integer, label_cache, sqrt_of_rational
from .exact import sqrt_factorial_ratio, triangle
from .projector import apply_projector
from .repmod import _irrep_label, orthogonalize, su3_dim, su3_label, tensor
from .su3gt import _gt_index, gt_basis, gt_label_index, gt_module
from .wigner2 import cgc_closed_doubled, ninej_doubled, sixj_doubled

__all__ = [
    "pair_module",
    "decompose",
    "coupled_basis",
    "projector_matrix_element",
    "su3_cgc",
]

_SYS3 = build_root_system(3)
_ZERO = Radical.from_rational(0)


# -- coupled vectors over GT bases -------------------------------------


def _pair_labels(lam1, mu1, lam2, mu2):
    """Both factors' labels, each parsed by `su3_label`."""
    return su3_label(lam1, mu1) + su3_label(lam2, mu2)


def _coupled_labels(lam1, mu1, lam2, mu2, lam3, mu3, s):
    """The factors' labels by `su3_label`, then lam3, mu3 >= 0 and s >= 1 by
    `exact.integer` with no guard, as a constituent may exceed it."""
    labels = _pair_labels(lam1, mu1, lam2, mu2) + (integer(lam3), integer(mu3), integer(s))
    if min(labels[4:6]) < 0 or labels[6] < 1:
        raise ValueError("want lam3, mu3 >= 0 and s >= 1, got (%d,%d), s=%d" % labels[4:])
    return labels


@label_cache(16, _pair_labels)
def pair_module(lam1, mu1, lam2, mu2):
    """tensor(gt_module(lam1, mu1), gt_module(lam2, mu2)), built once per
    pair of labels: basis vector i1 * d2 + i2 is |g1> x |g2>, with tag
    (g1, g2)."""
    return tensor(gt_module(lam1, mu1), gt_module(lam2, mu2))


def _pair_index(lam1, mu1, g1, lam2, mu2, g2):
    d2 = gt_module(lam2, mu2).dim
    return gt_label_index(lam1, mu1, g1) * d2 + gt_label_index(lam2, mu2, g2)


@label_cache(16, _pair_labels)
def decompose(lam1, mu1, lam2, mu2):
    """Coupled highest-weight vectors of every constituent of the product.

    Returns a dict (lam3, mu3) -> list of orthonormal ModuleVectors in
    pair_module(lam1, mu1, lam2, mu2), indexed by the multiplicity label
    s - 1.  The seeds |L1 h> x |L2 g2> are its basis vectors 0 * d2 + i2.
    """
    Mt = pair_module(lam1, mu1, lam2, mu2)
    found = {}
    orth = {}  # weight -> [(int frame coordinates of a kept residual, its squared norm)]
    total = 0
    for i2 in range(gt_module(lam2, mu2).dim):
        w3 = Mt.weights[i2]
        if w3[0] < 0 or w3[1] < 0:
            continue
        hv = apply_projector(_SYS3, Mt.basis_vector(i2), Mt)
        if hv.is_zero():
            continue
        # a basis vector's projection has one frame part, whose int
        # coordinates span its line; Gram-Schmidt on those stays in ints
        [(_, red)] = Mt.to_frame(hv).values()
        basis = orth.setdefault(w3, [])
        red = orthogonalize(red, basis, Mt.frame_dot)
        if not red:
            continue
        n2 = Mt.frame_dot(red, red)
        basis.append((red, n2))
        unit = Mt.from_frame({1: (1, red)}, sqrt_of_rational(Fraction(1, n2)))
        found.setdefault(w3, []).append(unit)
        total += su3_dim(*w3)
    if total != Mt.dim:
        raise RuntimeError("decomposition of (%d,%d)x(%d,%d) incomplete: %d of %d"
                           % (lam1, mu1, lam2, mu2, total, Mt.dim))
    return found


@label_cache(64, _coupled_labels)
def coupled_basis(lam1, mu1, lam2, mu2, lam3, mu3, s):
    """The coupled vectors |s (lam3 mu3) g3> in pair_module(lam1, mu1, lam2,
    mu2), in the GT label order of (lam3, mu3): `gt_basis` applied to the
    s-th coupled highest vector.  The coordinate of the one for g3 at the
    tag (g1, g2) is the CGC ((lam1 mu1) g1, (lam2 mu2) g2 | s (lam3 mu3) g3).
    ValueError when s exceeds the multiplicity of (lam3, mu3)."""
    found = decompose(lam1, mu1, lam2, mu2)
    copies = found.get((lam3, mu3), ())
    if s > len(copies):
        raise ValueError("(%d,%d) appears %d times in (%d,%d)x(%d,%d); s=%d"
                         % (lam3, mu3, len(copies), lam1, mu1, lam2, mu2, s))
    Mt = pair_module(lam1, mu1, lam2, mu2)
    return gt_basis(Mt, lam3, mu3, copies[s - 1])


def su3_cgc(lam1, mu1, g1, lam2, mu2, g2, lam3, mu3, g3, s=1):
    """CGC ((lam1 mu1) g1, (lam2 mu2) g2 | s (lam3 mu3) g3), g = (j, t, t_z).

    The coefficient is one coordinate of the coupled vector for g3, the one
    at |g1> x |g2>.
    """
    v = coupled_basis(lam1, mu1, lam2, mu2, lam3, mu3, s)[gt_label_index(lam3, mu3, g3)]
    return v.coords.get(_pair_index(lam1, mu1, g1, lam2, mu2, g2), _ZERO)


# -- projector matrix elements by two routes --------------------------


def projector_matrix_element(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p, route="direct"):
    """<L1 g1| <L2 g2| P^{L3}_{g3, g3'} |L1 g1'> |L2 g2'>.

    route="direct" reads it off the coupled vectors (authoritative);
    route="formula" evaluates the closed Wigner-calculus expression.
    Both refuse a label that is not in its irrep with ValueError; the
    direct route checks the desk-scale guard on L1, L2 and L3 first.
    """
    direct = route == "direct"
    if not direct and route != "formula":
        raise ValueError("route must be 'direct' or 'formula'")
    L1, L2, L3 = ((su3_label if direct else _irrep_label)(*L) for L in (L1, L2, L3))
    for L, g in ((L1, g1), (L2, g2), (L3, g3), (L3, g3p), (L1, g1p), (L2, g2p)):
        gt_label_index(*L, g)
    return (_pme_direct if direct else _pme_formula)(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p)


def _pme_direct(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p):
    # on the product, P^{L3}_{g3, g3'} = sum_s |s L3 g3> <s L3 g3'|
    bra = _pair_index(*L1, g1, *L2, g2)
    ket = _pair_index(*L1, g1p, *L2, g2p)
    k3, k3p = gt_label_index(*L3, g3), gt_label_index(*L3, g3p)
    total = _ZERO
    for s in range(1, len(decompose(*L1, *L2).get(L3, ())) + 1):
        basis = coupled_basis(*L1, *L2, *L3, s)
        u, v = basis[k3].coords.get(bra), basis[k3p].coords.get(ket)
        if u and v:
            total = total + u * v
    return total


def _pme_formula(L1, g1, L2, g2, L3, g3, g3p, g1p, g2p):
    # the sum over (j1'', j2'', t1'', t2'', t3'') of a shared factor times
    # side(bra) times side(ket), inside the prefactors of both sides; every
    # label is doubled (J = 2j, T = 2t), and so is mu/2
    (lam1, mu1), (lam2, mu2), (lam3, mu3) = L1, L2, L3

    def pair(lam, mu, J, T):
        # the factorial arguments lam + mu/2 - j + t + 1 and lam + mu/2 - j - t
        return [(2 * lam + mu - J + T) // 2 + 1, (2 * lam + mu - J - T) // 2]

    # weight conservation: the isospin projections are balanced by the two
    # t-CGCs below, the hypercharges by an implicit constraint on the j
    # labels (y1 + y2 = y3 on both sides): j1 + j2 - j3 = delta
    delta, off = divmod((2 * lam1 + mu1) + (2 * lam2 + mu2) - (2 * lam3 + mu3), 3)
    if off:
        return _ZERO
    outer = Radical.from_rational(1)
    a_num, a_den, a_extra = [], [], 1  # the prefactors of both sides, under one root
    sides = []
    for labels in ((g1, g2, g3), (g1p, g2p, g3p)):
        J1, T1, T1z, J2, T2, T2z, J3, T3, T3z = doubled(*labels[0], *labels[1], *labels[2])
        if J1 + J2 - J3 != delta or T1z + T2z != T3z or not triangle(T1, T2, T3):
            return _ZERO
        outer = outer * cgc_closed_doubled(T1, T1z, T2, T2z, T3, T3z)
        a_num += [J1 + 1, J2 + 1] + pair(lam3, mu3, J3, T3)
        a_den += pair(lam1, mu1, J1, T1) + pair(lam2, mu2, J2, T2) + [J3]
        a_extra *= (T1 + 1) * (T2 + 1)
        sides.append((J1, T1, J2, T2, J3, T3))
    if not outer:
        return _ZERO

    def side(J1, T1, J2, T2, J3, T3):
        # one side's factors at the summation point
        Jsum = J1 + J2 - J1pp - J2pp
        out = sixj_doubled(J1 - J1pp, J1pp, J1, mu1, T1, T1pp) * sixj_doubled(
            J2 - J2pp, J2pp, J2, mu2, T2, T2pp
        ) * sixj_doubled(J3, rest, Jsum, T3pp, T3, mu3)
        if not out:
            return out
        rat = factorial_ratio([Jsum + 1], [J1 - J1pp, J2 - J2pp])
        nine = ninej_doubled(((J1 - J1pp, J2 - J2pp, Jsum), (T1pp, T2pp, T3pp), (T1, T2, T3)))
        return out * nine * rat

    bra, ket = sides
    # (j1'', t1''), (j2'', t2'') run over the (j, t) multiplets of L1, L2 by
    # ascending j, and t3'' over the triangle (t1'', t2'', t3''): any other
    # point fails a 6j triangle in side
    m1 = [(J, T) for J, T, Tz in _gt_index(*L1)[1] if Tz == T and J <= min(bra[0], ket[0])]
    m2 = [(J, T) for J, T, Tz in _gt_index(*L2)[1] if Tz == T and J <= min(bra[2], ket[2])]
    total = _ZERO
    for J1pp, T1pp in m1:
        for J2pp, T2pp in m2:
            rest = delta - J1pp - J2pp  # j1 + j2 - j3 - j1'' - j2'', both sides
            if rest < 0:
                break
            for T3pp in range(abs(T1pp - T2pp), T1pp + T2pp + 1, 2):
                b = side(*bra)
                if not b:
                    continue
                shared = factorial_ratio(
                    pair(lam1, mu1, J1pp, T1pp) + pair(lam2, mu2, J2pp, T2pp),
                    [J1pp, J2pp, rest, (2 * lam3 + mu3 + rest + T3pp) // 2 + 2,
                     (2 * lam3 + mu3 + rest - T3pp) // 2 + 1],
                ) * (T1pp + 1) * (T2pp + 1) * (T3pp + 1)
                # the phase (-1)^(2(j1 + j2 + j3 - j1'' - j2'')) is the
                # same on both sides, as j1 + j2 + j3 = delta + 2 j3
                total = total + b * side(*ket) * (shared * (-1) ** rest)
    return outer * sqrt_factorial_ratio(
        a_num, a_den, a_extra, (lam3 + 1) * (mu3 + 1) * (lam3 + mu3 + 2)) * total
