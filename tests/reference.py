"""Reference routes kept as independent checks of the package.

Nothing in `extremal` calls these.  They are the older or symbolic routes:
the letter-by-letter straightening of PBW words, the term-by-term product of
`TaylorElement`s, the identity check on full
products, the zeroing route that applies a symbolic element past its poles
(`apply_zeroing`, the oracle of `apply_factor` and `apply_projector`), su(2)
general projection operators built as `TaylorElement`s, the
tensor form of the su(3) projector, the Fraction admissibility test of GT
labels, the GT lowering word of one label and its raising word, the GT module
read off the projector-built vectors, the tensor product that accumulates
and filters its lowering entries, sympy's printing of a PBW coefficient, the
sympy polynomial ring route of coefficients (their numerator arithmetic,
parsing and expressions), small exact matrix algebra, the su(3) irreps
realized in the full product space fund^lam x antifund^mu, and
`apply_element`, `apply_factor` and `gt_basis` on Radical vectors and
matrices, one coordinate at a time.
The tests compare the package's numeric routes against them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ
from sympy.polys.rings import ring as poly_ring

from extremal.algebra import build_root_system
from extremal.exact import (
    Radical,
    SingularWeightError,
    TruncationError,
    factorial_ratio,
    half,
    sqrt_of_rational,
)
from extremal.pbw import Coeff, TaylorElement, _pack, _unpack, shared_engine
from extremal.projector import (
    IdentityReport,
    apply_factor,
    extremal_projector,
    projector_factor,
)
from extremal.repmod import (
    ModuleVector,
    apply_element,
    mat_mul,
    mat_vec,
    su3_irrep,
)
from extremal.su3gt import (
    _gt_index,
    _gt_norm_factor,
    enumerate_gt_labels,
    gt_label_index,
    gt_norm_factor,
    gt_vector,
)

_ZERO = Radical.from_rational(0)
_ONE = Radical.from_rational(1)
_SYS2 = build_root_system(2)
_SYS3 = build_root_system(3)


# -- coefficient text ---------------------------------------------------


def reference_coeff_text(c):
    """A Coeff's text through sympy's printer: the two halves of
    fraction(c.as_expr()), as `num` or `(num)/(den)`."""
    num, den = sympy.fraction(c.as_expr())
    return str(num) if den == 1 else "(%s)/(%s)" % (num, den)


# -- coefficients through sympy's polynomial ring -----------------------
#
# The ring route that `Coeff` took before its numerators were packed ints:
# the oracle of the native kernels `pbw._mul`, `_add`, `_shift`, `_divide`,
# and of `Coeff.from_expr` and `Coeff.as_expr`.


@functools.cache
def cartan_ring(n):
    """Polynomial ring QQ[h1..h_{n-1}] of su(n)."""
    return poly_ring(",".join("h%d" % i for i in range(1, n)), QQ)[0]


def coeff_from_poly(p, den=None):
    """The Coeff p / prod (a.h + c)^m over den = {key: m}, for a polynomial p
    of cartan_ring(n), with p's denominators cleared into q."""
    c, p = p.clear_denoms()
    q = int(c)
    g = math.gcd(q, *map(int, p.values()))
    return Coeff(len(p.ring.gens) + 1, {_pack(m): int(a) // g for m, a in p.items()}, den, q // g)


def numerator(c):
    """num / q of a Coeff as a polynomial of cartan_ring(n)."""
    k = c.n - 1
    return cartan_ring(c.n).from_dict({_unpack(m, k): QQ(a, c.q) for m, a in c.num.items()})


def denominator(c):
    """The product of a Coeff's denominator factors in cartan_ring(n)."""
    ring = cartan_ring(c.n)
    p = ring.one
    for key, m in c.den.items():
        p = p * reference_form(ring, key) ** m
    return p


def reference_from_expr(n, expr):
    """Coeff.from_expr through the ring: the numerator read into
    cartan_ring(n), the denominator split by sympy.factor_list."""
    ring = cartan_ring(n)
    syms = ring.symbols
    num, den = sympy.cancel(sympy.together(sympy.sympify(expr))).as_numer_denom()
    const, flist = sympy.factor_list(den, *syms)
    factors = {}
    for f, mult in flist:
        poly = sympy.Poly(f, *syms, domain="ZZ")
        key = tuple(int(poly.coeff_monomial(m)) for m in syms + (1,))
        factors[key] = factors.get(key, 0) + int(mult)
    return coeff_from_poly(ring.from_expr(num) * QQ(int(const.q), int(const.p)), factors)


def reference_as_expr(c):
    """Coeff.as_expr through the ring: the reduced numerator's expression
    divided by each denominator form's, in sorted order."""
    c = c.reduced()
    e = numerator(c).as_expr()
    for key, m in sorted(c.den.items()):
        e = e / reference_form(cartan_ring(c.n), key).as_expr() ** m
    return e


def reference_form(ring, key):
    """The linear form a.h + c of key = (a_1, ..., a_k, c) in `ring`."""
    p = ring(key[-1])
    for g, a in zip(ring.gens, key[:-1]):
        if a:
            p = p + g * a
    return p


def reference_shift(p, svec):
    """p with h_i -> h_i + svec[i], by composition."""
    for g, s in zip(p.ring.gens, svec):
        if s:
            p = p.compose(g, g + s)
    return p


def reference_divide(p, key):
    """p / (a.h + c) by sympy's division, or None if the form does not divide p."""
    quo, rem = p.div(reference_form(p.ring, key))
    return None if rem else quo


# -- exact matrix algebra over Radical -------------------------------


def mat_pow_vec(mat, vec, k):
    """mat^k applied to a sparse vector, stopping once it vanishes."""
    for _ in range(int(k)):
        if not vec:
            break
        vec = mat_vec(mat, vec)
    return vec


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


@dataclass
class ReferenceModule:
    """A module given by its Radical matrices over an orthonormal basis, as
    the reference routes build them."""

    n: int
    label: object
    tags: list
    weights: list
    matrices: dict

    @property
    def dim(self):
        return len(self.tags)

    def matrix(self, letter):
        return self.matrices.get(tuple(letter), {})


def radical_with_raising(lowering):
    """The generator matrices from the lowering ones {(i, j): matrix}, i > j:
    over an orthonormal basis with real entries, e_ji is the transpose of e_ij."""
    mats = dict(lowering)
    for (i, j), m in lowering.items():
        mats[(j, i)] = {(c, r): v for (r, c), v in m.items()}
    return mats


def reference_tensor(a, b):
    """tensor(a, b) with each lowering entry of g x 1 + 1 x g summed into
    its key and the zero entries filtered out; `tensor` must give the same
    entries while writing each one once."""
    db = b.dim
    weights = [tuple(wa[k] + wb[k] for k in range(a.n - 1))
               for wa in a.weights for wb in b.weights]
    lowering = {}
    for g in {g for g in (*a.matrices, *b.matrices) if g[0] > g[1]}:
        m = {}
        for (r, c), v in a.matrices.get(g, {}).items():
            for k in range(db):
                key = (r * db + k, c * db + k)
                m[key] = m.get(key, _ZERO) + v
        for (r, c), v in b.matrices.get(g, {}).items():
            for k in range(a.dim):
                key = (k * db + r, k * db + c)
                m[key] = m.get(key, _ZERO) + v
        lowering[g] = {k: v for k, v in m.items() if v}
    return ReferenceModule(n=a.n, label=(a.label, b.label),
                           tags=[(ta, tb) for ta in a.tags for tb in b.tags],
                           weights=weights, matrices=radical_with_raising(lowering))


def casimir_matrix_su2(M):
    """J-J+ + J0(J0+1) from the module's matrices."""
    jp, jm = M.matrix((1, 2)), M.matrix((2, 1))
    j0 = mat_scale(M.matrix(("h", 1)), Fraction(1, 2))
    return mat_add(mat_mul(jm, jp), mat_add(mat_mul(j0, j0), j0))


# -- letter-by-letter straightening ------------------------------------


def reference_reduce(eng, word, memo):
    """`eng.reduce(word)` by swapping adjacent letters: the first pair a b
    out of normal order becomes b a + [a, b], and every intermediate word is
    straightened once into the dict `memo`, which calls may share.  A Cartan commutator rides at the right end of the word, head h
    rest = head rest h(h + s_rest).  A worklist stands in for recursion: a
    word is straightened once the words it swaps and contracts to are."""
    word = tuple(word)
    cache, rank = memo, eng._rank
    todo = [word]
    while todo:
        w = todo[-1]
        if w in cache:
            todo.pop()
            continue
        for i in range(len(w) - 1):
            if rank[w[i]] > rank[w[i + 1]]:
                break
        else:
            low = [g for g in w if g[0] > g[1]]
            cache[w] = {(eng._pack(low), eng._pack(w[len(low):])): eng.coeff_one}
            todo.pop()
            continue
        a, b = w[i], w[i + 1]
        head, rest = w[:i], w[i + 2:]
        parts = [(1, head + (b, a) + rest, None)]
        sign, letter = eng.commutator(a, b)
        if isinstance(letter, tuple):
            parts.append((sign, head + (letter,) + rest, None))
        elif letter is not None:
            parts.append((sign, head + rest, letter))
        missing = [u for _, u, _ in parts if u not in cache]
        if missing:
            todo.extend(missing)
            continue
        out = dict(cache[parts[0][1]])
        for sign, u, letter in parts[1:]:
            sub = cache[u]
            if letter is not None:
                sub = eng.times_right(sub, eng.shift_expr(letter, eng.word_shift(rest)))
            for k, v in sub.items():
                v = v if sign > 0 else -v
                cur = out.get(k)
                out[k] = v if cur is None else cur + v
        cache[w] = {k: v for k, v in out.items() if v}
        todo.pop()
    return cache[word]


# -- the term-by-term series product ----------------------------------


def reference_mul(a, b):
    """a * b straightened term by term, truncated only at the end.

    Every core term of Ra Lb is multiplied through before the raising bound
    drops any of its products; `TaylorElement.__mul__` must give the same
    terms while skipping that work.
    """
    a._check_compat(b)
    eng = a.engine
    bound = min(a.bound, b.bound)
    acc = {}
    for (La, Ra), ca in a.terms.items():
        ra_letters = eng.unpack(Ra)
        for (Lb, Rb), cb in b.terms.items():
            core = eng.times_right(eng.reduce(ra_letters + eng.unpack(Lb)), cb)
            for (L1, R1), c1 in core.items():
                # La ca L1 c1 R1 Rb ; move ca right past L1
                mid = eng.shift_expr(ca, eng.word_shift(eng.unpack(L1))) * c1
                lows = eng.reduce(eng.unpack(La) + eng.unpack(L1))
                highs = eng.reduce(eng.unpack(R1) + eng.unpack(Rb))
                for (L2, _e1), cl in lows.items():
                    for (_e2, R2), cr in highs.items():
                        if TaylorElement.degree(R2) > bound:
                            continue
                        key = (L2, R2)
                        v = cl * mid * cr
                        cur = acc.get(key)
                        acc[key] = v if cur is None else cur + v
    return TaylorElement(eng, bound, acc).canonical()


def reference_verify(P):
    """verify_extremal_identities with every product taken up to the full
    bound N and only the residuals cut at raising degree N - 1;
    `verify_extremal_identities` must give the same report while cutting
    each product at N - 1."""
    eng, N = P.engine, P.bound
    deg = N - 1
    left, right = {}, {}
    for root in eng.sys.simple_roots:
        i, j = root
        e_plus = eng.generator(i, j, N)
        e_minus = eng.generator(j, i, N)
        left[root] = (e_plus * P).residual(eng.zero(N), deg)
        right[root] = (P * e_minus).residual(eng.zero(N), deg)
    idem = (P * P).residual(P, deg)
    return IdentityReport(annihilation_left=left, annihilation_right=right, idempotency=idem)


# -- Taylor elements on Radical coordinates ---------------------------


def reference_apply_element(x, v, M):
    """apply_element on the Radical coordinates and matrices of M, one
    coordinate at a time: each Cartan coefficient is evaluated at the weight
    of each coordinate it meets."""
    if M.weight_diameter > x.bound:
        raise TruncationError("module weight diameter %d exceeds truncation bound %d"
                              % (M.weight_diameter, x.bound))
    if x.engine.n != M.n:
        raise ValueError("algebra rank mismatch")
    M._check_indices(v.coords)
    out = ModuleVector({})
    for (L, R), coeff in x.terms.items():
        w = dict(v.coords)
        for g, e in reversed(R):
            w = mat_pow_vec(M.matrix(g), w, e)
        w = {idx: val * c for idx, val in w.items() if (c := coeff.evaluate(M.weights[idx]))}
        for g, e in reversed(L):
            w = mat_pow_vec(M.matrix(g), w, e)
        out = out + ModuleVector(w)
    return out


# -- the zeroing route: symbolic elements past their poles --------------


def apply_zeroing(x, v, M):
    """apply_element(x, v, M) on each weight component of v, with a
    component whose processing hits a vanishing denominator sent to zero.

    That is the correct value for an extremal projector, whose image
    consists of highest-weight vectors: none exists at a non-dominant
    weight.  So the offending component's weight must be non-dominant; a
    pole on a dominant one re-raises."""
    by_weight = {}
    for idx, val in v.coords.items():
        by_weight.setdefault(M.weights[idx], {})[idx] = val
    out = ModuleVector({})
    for w, coords in sorted(by_weight.items()):
        try:
            out = out + apply_element(x, ModuleVector(coords), M)
        except SingularWeightError:
            if all(c >= 0 for c in w):
                raise  # a pole on a dominant component is a real error
    return out


def zeroing_matrix(x, M):
    """matrix_of(x, M) through apply_zeroing, columns by basis order."""
    out = {}
    for b in range(M.dim):
        for r, v in apply_zeroing(x, M.basis_vector(b), M).coords.items():
            out[(r, b)] = v
    return out


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

    def apply(self, v, M):
        return apply_element(self.element, v, M).scale(self.scalar)

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
    v = apply_zeroing(pt, v, M)
    if not v.is_zero():
        v = apply_zeroing(mid, v, M)
    if not v.is_zero():
        v = apply_zeroing(pt, v, M)
    return v


# -- the GT labels in Fractions ------------------------------------------


def fraction_admissible_jt(lam, mu, j, t):
    """The (j, t) admissibility of (lam, mu) as four Fraction inequalities
    plus the integrality of mu/2 + j + t; false for any other label."""
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


# -- the GT lowering and raising words ----------------------------------


def gt_lower(M, lam, mu, label, v):
    """Apply the GT lowering operator of (lam, mu) for `label` to v in M,
    from the highest vector v every time; ValueError unless `label` is one
    of (lam, mu)'s."""
    gt_label_index(lam, mu, label)
    j, t, tz = (half(x) for x in label)
    norm = gt_norm_factor(lam, mu, j, t)
    mu2 = Fraction(mu, 2)
    coords = mat_pow_vec(M.matrix((2, 1)), v.coords, j - mu2 + t)
    coords = mat_pow_vec(M.matrix((3, 1)), coords, j + mu2 - t)
    w = apply_factor((2, 3), ModuleVector(coords), M)
    w = ModuleVector(mat_pow_vec(M.matrix((3, 2)), w.coords, t - tz))
    scalar = sqrt_of_rational(factorial_ratio([t + tz], [2 * t, t - tz]))
    return w.scale(norm * scalar)


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


# -- the GT module from the projector-built vectors ---------------------


def realized_gt_module(lam, mu):
    """The irrep (lam, mu) over its GT basis, read off the projector-built
    vectors of `gt_vector` in su3_irrep(lam, mu) by exact inner products.

    Tags are the GT labels in label order, weights those of the GT vectors,
    and entry (r, c) of e_ij is <gt_r| e_ij |gt_c>; only the rows in the
    weight space of e_ij |gt_c> are computed.
    """
    M = su3_irrep(lam, mu)
    labels = enumerate_gt_labels(lam, mu)
    vecs = [gt_vector(lam, mu, lab) for lab in labels]
    weights = [M.weights[next(iter(v.coords))] for v in vecs]
    in_weight = {}
    for r, w in enumerate(weights):
        in_weight.setdefault(w, []).append(r)
    mats = {}
    for g, pm in M.matrices.items():
        mat = {}
        for c, vc in enumerate(vecs):
            img = ModuleVector(mat_vec(pm, vc.coords))
            if img.is_zero():
                continue
            for r in in_weight[M.weights[next(iter(img.coords))]]:
                dot = vecs[r].inner(img)
                if dot:
                    mat[(r, c)] = dot
        mats[g] = mat
    return ReferenceModule(n=3, label=(lam, mu), tags=labels,
                           weights=weights, matrices=mats)


# -- su(3) irreps in the full product space, and the Radical-vector routes


# A tensor factor of the realization: the weights of its three basis vectors,
# and, per lowering generator e_ij, its one nonzero matrix entry (row, col,
# value).  The fundamental has e_ij = E_ij; the antifundamental is its dual,
# -E_ji.
_LOWERING = ((2, 1), (3, 1), (3, 2))
_FUND = (((1, 0), (-1, 1), (0, -1)),
         {(i, j): (i - 1, j - 1, 1) for i, j in _LOWERING})
_ANTIFUND = (((-1, 0), (1, -1), (0, 1)),
             {(i, j): (j - 1, i - 1, -1) for i, j in _LOWERING})


def _int_mat_vec(by_col, vec):
    out = {}
    for c, x in vec.items():
        for r, a in by_col.get(c, ()):
            out[r] = out.get(r, 0) + a * x
    return {k: v for k, v in out.items() if v}


def _dot(u, v):
    return sum(x * v[k] for k, x in u.items() if k in v)


def reference_su3_irrep(lam, mu):
    """su3_irrep(lam, mu) realized in all of fund^lam x antifund^mu, one
    coordinate per product basis vector (3^(lam + mu) of them): the
    cyclic submodule of the highest-weight product vector by lowering, each
    lowered vector Gram-Schmidt reduced in integer arithmetic into a
    primitive u_b with a positive first coordinate, and the entry (a, b) of
    a lowering generator d / (|u_a| |u_b|), d = u_a . (e_ij u_b)."""
    if lam == 0 and mu == 0:
        return ReferenceModule(3, (0, 0), ["0"], [(0, 0)],
                               radical_with_raising({g: {} for g in _LOWERING}))
    components = [_FUND] * lam + [_ANTIFUND] * mu
    total = 3 ** len(components)
    strides = [3 ** k for k in reversed(range(len(components)))]
    pweights = [(0, 0)]
    for cw, _ in components:
        pweights = [(a + x, b + y) for a, b in pweights for x, y in cw]

    def pmatrix(g):
        by_col = {}
        for (_, entries), stride in zip(components, strides):
            r, c, val = entries[g]
            for idx in range(total):
                if idx // stride % 3 == c:
                    by_col.setdefault(idx, []).append((idx + (r - c) * stride, val))
        return by_col

    lowering = {g: pmatrix(g) for g in _LOWERING}
    hi_idx = sum(s * (0 if comp is _FUND else 2) for comp, s in zip(components, strides))
    highest = {hi_idx: 1}
    by_weight = {}

    def insert(vec):
        if not vec:
            return False
        found = by_weight.setdefault(pweights[next(iter(vec))], [])
        red = dict(vec)
        for u, n2 in found:
            dot = _dot(red, u)
            if dot:
                red = {k: n2 * red.get(k, 0) - dot * u.get(k, 0) for k in set(red) | set(u)}
                red = {k: x for k, x in red.items() if x}
        if not red:
            return False
        g = 0
        for x in red.values():
            g = math.gcd(g, x)
        u = {k: x // g for k, x in red.items()}
        if u[min(u)] < 0:
            u = {k: -x for k, x in u.items()}
        found.append((u, _dot(u, u)))
        return True

    insert(highest)
    queue = [highest]
    while queue:
        vec = queue.pop()
        for mat in lowering.values():
            nxt = _int_mat_vec(mat, vec)
            if insert(nxt):
                queue.append(nxt)
    order = sorted(by_weight, key=lambda w: (-(w[0] + w[1]), -w[0], -w[1]))
    basis = [(w, u, n2) for w in order for u, n2 in by_weight[w]]
    tags, weights, in_weight = [], [], {}
    for b, (w, _u, _n2) in enumerate(basis):
        tags.append("w=(%s,%s)#%d" % (w[0], w[1], len(in_weight.get(w, ()))))
        weights.append(w)
        in_weight.setdefault(w, []).append(b)
    mats = {}
    for g, pmat in lowering.items():
        cols = {}
        for b, (_w, ub, nb) in enumerate(basis):
            img = _int_mat_vec(pmat, ub)
            if not img:
                continue
            for a in in_weight.get(pweights[next(iter(img))], ()):
                _wa, ua, na = basis[a]
                d = _dot(img, ua)
                if d:
                    cols[(a, b)] = sqrt_of_rational(Fraction(d * d, na * nb)) * (1 if d > 0 else -1)
        mats[g] = cols
    return ReferenceModule(3, (lam, mu), tags, weights, radical_with_raising(mats))


def reference_apply_factor(root, v, M):
    """apply_factor on the Radical coordinates and matrices of M."""
    i, j = root
    up, down = M.matrix(root), M.matrix((j, i))
    by_weight = {}
    for idx, val in v.coords.items():
        by_weight.setdefault(M.weights[idx], {})[idx] = val
    out = {}
    for w, u in by_weight.items():
        raised = [u]
        while raised[-1]:
            raised.append(mat_vec(up, raised[-1]))
        raised.pop()
        a = sum(w[i - 1:j - 1]) + j - i
        if -len(raised) < a < 0:
            continue
        acc = raised[-1]
        for n in range(len(raised) - 1, 0, -1):
            ratio = Fraction(-1, n * (a + n))
            acc = {k: x * ratio for k, x in mat_vec(down, acc).items()}
            for k, x in raised[n - 1].items():
                acc[k] = acc[k] + x if k in acc else x
        out.update(acc)
    return ModuleVector(out)


def reference_gt_basis(M, lam, mu, v):
    """gt_basis on the Radical coordinates and matrices of M."""
    e21, e31, e32 = (M.matrix(g) for g in ((2, 1), (3, 1), (3, 2)))
    out = []
    for J, T, Tz in _gt_index(lam, mu)[1]:
        if Tz == T:
            coords = mat_pow_vec(e21, v.coords, (J - mu + T) // 2)
            w = ModuleVector(mat_pow_vec(e31, coords, (J + mu - T) // 2))
            w = reference_apply_factor((2, 3), w, M).scale(_gt_norm_factor(lam, mu, J, T))
        else:
            step = sqrt_of_rational(Fraction(4, (T + Tz + 2) * (T - Tz)))
            w = ModuleVector(mat_vec(e32, w.coords)).scale(step)
        out.append(w)
    return out
