"""Reference routes kept as independent checks of the package.

Nothing in `extremal` calls these.  They are the older or symbolic routes:
su(2) general projection operators built as `TaylorElement`s, the tensor form
of the su(3) projector, the GT raising word, and small exact matrix algebra.
The tests compare the package's numeric routes against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from extremal.algebra import build_root_system
from extremal.exact import Radical, factorial_ratio, half, sqrt_of_rational
from extremal.pbw import TaylorElement, shared_engine
from extremal.projector import apply_factor, extremal_projector, projector_factor
from extremal.repmod import ModuleVector, apply_element, mat_mul, mat_pow_vec
from extremal.su3gt import gt_norm_factor

_ZERO = Radical.from_rational(0)
_ONE = Radical.from_rational(1)
_SYS2 = build_root_system(2)
_SYS3 = build_root_system(3)


# -- exact matrix algebra over Radical -------------------------------


def mat_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, _ZERO) + v
    return {k: v for k, v in out.items() if v}


def mat_scale(a, c):
    c = c if isinstance(c, Radical) else Radical.from_rational(c)
    return {k: v * c for k, v in a.items() if v * c}


def mat_identity(dim):
    return {(i, i): _ONE for i in range(dim)}


def mat_rank(a, dim):
    """Exact rank by Gaussian elimination over the radical field."""
    rows = [dict() for _ in range(dim)]
    for (r, c), v in a.items():
        rows[r][c] = v
    rank = 0
    for col in range(dim):
        pivot = None
        for i in range(rank, dim):
            if rows[i].get(col):
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = {c: v * inv for c, v in rows[rank].items() if v}
        for i in range(dim):
            if i != rank and rows[i].get(col):
                f = rows[i][col]
                rows[i] = {
                    c: rows[i].get(c, _ZERO) - f * rows[rank].get(c, _ZERO)
                    for c in set(rows[i]) | set(rows[rank])
                }
                rows[i] = {c: v for c, v in rows[i].items() if v}
        rank += 1
        if rank == dim:
            break
    return rank


def casimir_matrix_su2(M):
    """J-J+ + J0(J0+1) from the module's matrices."""
    jp, jm = M.matrix((1, 2)), M.matrix((2, 1))
    j0 = mat_scale(M.matrix(("h", 1)), Fraction(1, 2))
    return mat_add(mat_mul(jm, jp), mat_add(mat_mul(j0, j0), j0))


# -- su(2) general projection operators as symbolic elements ----------


def _valid_jm(j, m):
    return abs(m) <= j and (j - m).denominator == 1


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
    eng = engine if engine is not None else shared_engine(2)
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
    eng = engine if engine is not None else shared_engine(2)
    if N is None:
        N = int(2 * j)
    left = lowering_monomial(j, m, N=N, engine=eng)
    right = lowering_monomial(j, mp, N=N, engine=eng).star()
    P = extremal_projector(_SYS2, N=N, engine=eng)
    return ScaledElement(
        left.scalar * right.scalar, left.element * P * right.element
    )


# -- the tensor form of the su(3) projector ----------------------------


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
    eng = engine if engine is not None else shared_engine(3)
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


# -- the GT raising word -----------------------------------------------


def gt_raise(M, lam3, mu3, label, v):
    """Apply the star of the GT lowering operator (a raising word) to v."""
    j, t, tz = (half(x) for x in label)
    mu2 = Fraction(mu3, 2)
    coords = mat_pow_vec(M.matrix((2, 3)), v.coords, t - tz)
    w = apply_factor((2, 3), ModuleVector(coords), M)
    coords = mat_pow_vec(M.matrix((1, 3)), w.coords, j + mu2 - t)
    w = ModuleVector(mat_pow_vec(M.matrix((1, 2)), coords, j - mu2 + t))
    scalar = sqrt_of_rational(factorial_ratio([t + tz], [2 * t, t - tz]))
    return w.scale(gt_norm_factor(lam3, mu3, j, t) * scalar)
