"""Explicit finite-dimensional modules over an exact rational frame.

Every module carries an orthogonal frame: basis vectors f_b whose squared
norms nu_b are squarefree positive ints, and for each generator e_ij its
rational matrix Q, e_ij f_b = sum_a q_ab f_a, as a `FrameMatrix`: one
denominator and int numerators by column, as the vectors it meets are
sparse.  Over the orthonormal basis e_b = f_b / sqrt(nu_b) the entry of
e_ij is q_ab sqrt(nu_a / nu_b).  `Irrep.matrices` is that Radical view,
built on first read; no module computation reads it, only the checks.

A vector enters the frame by `Irrep.to_frame` as frame parts {k: (s, x)}:
sqrt(k) s sum_b x_b f_b over squarefree k, s rational and x an int vector.
It is acted on in ints (`frame_apply`, `frame_sum`, `apply_element` and
the projector's `factor_on_frame`), and leaves by `Irrep.from_frame` with
one square root per coordinate, sqrt(k nu_b), taken by one gcd as both
factors are squarefree.  Weights are tuples of h_i eigenvalues (ints).

su(3) irreps are realized in the `tensor` of the symmetric powers
Sym^lam(V) and Sym^mu(V*), V the fundamental representation, each over the
frame of its orbit sums (the sums of product basis vectors under permuting
equal tensor factors): the cyclic submodule of the highest-weight product
vector is generated by lowering, in ints over that frame.  Each lowered
vector is Gram-Schmidt reduced against its weight space as it is found,
into a primitive integer vector u_b, and the frame is f_b = u_b / k_b with
|u_b|^2 = k_b^2 nu_b.  su(2) irreps and the GT modules of `su3gt` take
their frames from their squared matrix entries (`frame_of_entries`), and a
tensor product from its factors'.  An `Irrep` holds only its lowering
matrices, as `lowering`; its `frame` adds each raising matrix, a lowering
one transposed, on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations_with_replacement
from typing import NamedTuple

from .exact import Radical, TruncationError, doubled, integer, label_cache
from .exact import _squarefree_split

__all__ = [
    "Irrep",
    "ModuleVector",
    "su2_irrep",
    "su3_label",
    "su3_irrep",
    "su3_dim",
    "tensor",
    "FrameMatrix",
    "col_vec",
    "frame_apply",
    "frame_sum",
    "frame_of_entries",
    "orthogonalize",
    "apply_element",
    "matrix_of",
]

_ZERO = Radical.from_rational(0)
_ONE = Radical.from_rational(1)


def _rad(x):
    if isinstance(x, Radical):
        return x
    return Radical.from_rational(x)


def _term(d, c):
    """The one-term Radical c sqrt(d), for a squarefree d and a Fraction c."""
    out = Radical.__new__(Radical)
    out.terms = {d: c}
    return out


# -- small exact sparse linear algebra --------------------------------


def mat_vec(mat, vec):
    out = {}
    for (r, c), a in mat.items():
        v = vec.get(c)
        if v is not None:
            x = a * v
            out[r] = out[r] + x if r in out else x
    return {k: v for k, v in out.items() if v}


def mat_mul(a, b):
    by_row = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), av in a.items():
        for c, bv in by_row.get(k, ()):
            x = av * bv
            out[(r, c)] = out[(r, c)] + x if (r, c) in out else x
    return {k: v for k, v in out.items() if v}


def mat_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(k, _ZERO) == b.get(k, _ZERO) for k in keys)


def col_vec(by_col, vec, k=1):
    """A column-indexed matrix {col: [(row, value)]} applied k times to a
    sparse vector, stopping once it vanishes."""
    for _ in range(k):
        out = {}
        for c, x in vec.items():
            for r, a in by_col.get(c, ()):
                out[r] = out.get(r, 0) + a * x
        vec = {r: v for r, v in out.items() if v}
        if not vec:
            break
    return vec


# -- frames ----------------------------------------------------------


class FrameMatrix(NamedTuple):
    """The rational matrix cols / den over a frame: den is a positive int
    and cols {col: [(row, int)]} holds the numerators by column."""

    den: int
    cols: dict


_NO_MATRIX = FrameMatrix(1, {})


def _frame_matrix(cols):
    """The FrameMatrix of rational entries {col: [(row, q)]}."""
    den = math.lcm(*(q.denominator for entries in cols.values() for _, q in entries))
    return FrameMatrix(den, {c: [(r, q.numerator * (den // q.denominator)) for r, q in entries]
                             for c, entries in cols.items()})


def _primitive_part(s, x):
    """(s g, x / g) for the content g of the int vector x, which keeps the
    ints of a frame part small."""
    g = math.gcd(*x.values())
    if g > 1:
        return s * g, {b: v // g for b, v in x.items()}
    return s, x


def frame_apply(mat, part, k=1):
    """The FrameMatrix applied k times to a frame part (s, x): s rational,
    x an int vector, standing for s x."""
    s, x = part
    x = col_vec(mat.cols, x, k)
    return _primitive_part(Fraction(s, mat.den ** k) if mat.den > 1 else s, x)


def frame_sum(parts):
    """The sum of frame parts (s_i, x_i) as one part (r, x): r is the
    rational gcd of the s_i, so each s_i / r is an int."""
    parts = [(s, x) for s, x in parts if x]
    if not parts:
        return 1, {}
    r = Fraction(math.gcd(*(s.numerator for s, _ in parts)),
                 math.lcm(*(s.denominator for s, _ in parts)))
    out = {}
    for s, x in parts:
        m = s.numerator // r.numerator * (r.denominator // s.denominator)
        for b, v in x.items():
            out[b] = out.get(b, 0) + m * v
    return _primitive_part(r, {b: v for b, v in out.items() if v})


def orthogonalize(u, found, dot):
    """The primitive int vector along u - sum (<u,w> / <w,w>) w over found =
    [(w, <w,w>)] under the inner product dot, or {} if u is in their span:
    each step <w,w> u - <u,w> w is a positive multiple of the rational one."""
    _, u = _primitive_part(1, u)
    for w, n2 in found:
        d = dot(u, w)
        if d:
            out = {b: n2 * x for b, x in u.items()}
            for b, x in w.items():
                out[b] = out.get(b, 0) - d * x
            _, u = _primitive_part(1, {b: x for b, x in out.items() if x})
    return u


def frame_of_entries(lowering, dim):
    """(nu, lowering FrameMatrices) from lowering matrices of squared
    entries {(r, c): (sign, x)}, each sign sqrt(x) for a positive Fraction
    x, on a module whose basis order lowers: every vector b > 0 is the row
    of an entry whose column comes before it.

    One pass over the entries in column order gives each newly reached row
    r the squarefree class nu_r of x nu_c, so that q_rc = sign sqrt(x nu_c
    nu_r) / nu_r is rational; RuntimeError if another entry is not, or if
    no entry reaches a vector.
    """
    nu = [1] + [None] * (dim - 1)
    cols = {gen: {} for gen in lowering}
    entries = ((gen, *e) for gen, m in lowering.items() for e in m.items())
    for gen, (r, c), (sign, x) in sorted(entries, key=lambda e: e[1][1]):
        if nu[c] is None:
            break  # no entry reaches c: refused below
        if nu[r] is None:
            nu[r] = _squarefree_split(x.numerator * x.denominator * nu[c])[1]
        x = x * nu[c] * nu[r]
        p = x.numerator * x.denominator
        root = math.isqrt(p)
        if root * root != p:
            raise RuntimeError("entry (%d, %d) of e%d%d is irrational over the frame"
                               % (r, c, *gen))
        cols[gen].setdefault(c, []).append((r, Fraction(sign * root, x.denominator * nu[r])))
    if None in nu:
        raise RuntimeError("no module entry reaches basis vector %d" % nu.index(None))
    return nu, {gen: _frame_matrix(q) for gen, q in cols.items()}


# -- modules ---------------------------------------------------------


@dataclass
class Irrep:
    """An explicit module (irreducible or a tensor product) over its frame.

    nu[b] is the squarefree squared norm of frame vector f_b, and lowering
    maps each lowering generator pair (i, j), i > j, to its `FrameMatrix`;
    `frame` adds the raising ones.  `matrices` holds every generator over
    the orthonormal basis f_b / sqrt(nu_b), as Radicals; Cartan matrices are
    diagonal and derived from the stored weights.
    """

    n: int
    label: object
    tags: list
    weights: list          # tuple of ints (h_1..h_{n-1} eigenvalues) per tag
    nu: list               # squarefree int per tag
    lowering: dict

    @property
    def dim(self):
        return len(self.tags)

    @cached_property
    def frame(self):
        """Every generator's FrameMatrix, built on first read: the lowering
        ones, and e_ji the transpose of e_ij over the orthonormal basis, so its
        frame entry q_ba = q_ab nu_a / nu_b is the int z nu_a (L / nu_b) over den
        L, L = lcm(nu), left unreduced: `frame_apply` moves content to scales."""
        nu = self.nu
        mats = dict(self.lowering)
        L = math.lcm(*nu)
        for (i, j), (den, cols) in self.lowering.items():
            up = {}
            for c, entries in cols.items():
                f = L // nu[c]
                for r, z in entries:
                    up.setdefault(r, []).append((c, z * nu[r] * f))
            mats[(j, i)] = FrameMatrix(den * L, up)
        return mats

    @cached_property
    def matrices(self):
        """The Radical matrices over the orthonormal basis, built on first
        read: q_ab sqrt(nu_a / nu_b) = (q_ab g / nu_b) sqrt(nu_a nu_b / g^2)."""
        nu = self.nu
        out = {}
        for gen, (den, cols) in self.frame.items():
            mat = {}
            for c, entries in cols.items():
                b = nu[c]
                for r, z in entries:
                    a = nu[r]
                    g = math.gcd(a, b)
                    mat[(r, c)] = _term(a // g * (b // g), Fraction(z * g, den * b))
            out[gen] = mat
        return out

    def matrix(self, letter):
        """Matrix of a generator letter: (i, j) pair or ('h', k)."""
        if isinstance(letter, tuple) and letter[0] == "h":
            k = letter[1]
            return {
                (i, i): Radical.from_rational(w[k - 1])
                for i, w in enumerate(self.weights)
                if w[k - 1]
            }
        return self.matrices.get(tuple(letter), {})

    def index(self, tag):
        return self.tags.index(tag)

    @property
    def weight_diameter(self):
        """Max total raising degree any monomial can act by before leaving the
        weight support; bounds the truncation needed for exact application."""
        # height = sum of the simple-root coordinates; column k of the inverse
        # su(n) Cartan matrix sums to k(n-k)/2, so these are doubled heights
        cols = [k * (self.n - k) for k in range(1, self.n)]
        hts = [sum(c * x for c, x in zip(cols, w)) for w in self.weights]
        return (max(hts) - min(hts)) // 2

    def _check_indices(self, indices):
        """ValueError naming an index that no basis vector has."""
        for b in indices:
            if not 0 <= b < len(self.tags):
                raise ValueError("basis index %d outside the module of dimension %d"
                                 % (b, len(self.tags)))

    def basis_vector(self, idx_or_tag):
        idx = idx_or_tag if isinstance(idx_or_tag, int) else self.index(idx_or_tag)
        self._check_indices((idx,))
        return ModuleVector({idx: _ONE})

    def to_frame(self, v):
        """v as frame parts {k: (s, x)}, v = sum_k sqrt(k) s sum_b x_b f_b
        over squarefree k, with s rational and x an int vector: the term
        c sqrt(d) of coordinate b is (c g / nu_b) sqrt(d nu_b / g^2) f_b,
        g = gcd(d, nu_b); ValueError for a coordinate outside the module."""
        self._check_indices(v.coords)
        nu = self.nu
        parts = {}
        for b, x in v.coords.items():
            n = nu[b]
            for d, c in x.terms.items():
                g = math.gcd(d, n)
                parts.setdefault(d // g * (n // g), {})[b] = c * g / n
        out = {}
        for k, cs in parts.items():
            den = math.lcm(*(c.denominator for c in cs.values()))
            out[k] = _primitive_part(Fraction(1, den), {
                b: c.numerator * (den // c.denominator) for b, c in cs.items()})
        return out

    def from_frame(self, parts, scale=_ONE):
        """The ModuleVector of frame parts {k: (s, x)} times the one-term
        Radical `scale`, c sqrt(d): coordinate b gains s c g x_b g'
        sqrt(k' nu_b / g'^2) from each part, with k' = k d / g^2 for
        g = gcd(k, d), and g' = gcd(k', nu_b)."""
        (d, c), = scale.terms.items()
        nu = self.nu
        coords = {}
        for k, (s, x) in parts.items():
            g = math.gcd(k, d)
            k, s = k // g * (d // g), s * c * g
            p, q = s.numerator, s.denominator
            for b, v in x.items():
                n = nu[b]
                g = math.gcd(k, n)
                t = _term(k // g * (n // g), Fraction(p * v * g, q))
                coords[b] = coords[b] + t if b in coords else t
        return ModuleVector(coords)

    def frame_dot(self, x, y):
        """The inner product of sum_b x_b f_b and sum_b y_b f_b."""
        nu = self.nu
        return sum(c * y[b] * nu[b] for b, c in x.items() if b in y)


class ModuleVector:
    """Finite-support vector over a module's orthonormal basis, Radical
    coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        self.coords = {k: _rad(v) for k, v in (coords or {}).items() if v}

    def __add__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out[k] + v if k in out else v
        return ModuleVector(out)

    def __sub__(self, other):
        return self + other.scale(-1) if isinstance(other, ModuleVector) else NotImplemented

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            c = _rad(c)
        return ModuleVector({k: v * c for k, v in self.coords.items()})

    def inner(self, other):
        """Orthonormal dot product (real entries, no conjugation needed)."""
        out = _ZERO
        for k, v in self.coords.items():
            w = other.coords.get(k)
            if w is not None:
                out = out + v * w
        return out

    def norm2(self):
        return self.inner(self)

    def is_zero(self):
        return not self.coords

    def __eq__(self, other):
        return self.coords == other.coords if isinstance(other, ModuleVector) else NotImplemented

    def __repr__(self):
        return "ModuleVector(%r)" % self.coords


# -- su(2) -----------------------------------------------------------


def _spin(j):
    """(2j,) for a nonnegative half-integer spin j."""
    d = doubled(j)
    if d[0] < 0:
        raise ValueError("spin must be a nonnegative half-integer, got %s" % (j,))
    return d


@label_cache(64, _spin)
def su2_irrep(d):
    """su2_irrep(j): the irrep of spin j, built from the doubled spin d = 2j."""
    j = Fraction(d, 2)
    ms = [j - k for k in range(d + 1)]  # highest first
    tags = ["m=%s" % m for m in ms]
    weights = [(d - 2 * k,) for k in range(d + 1)]
    # J- |j m> = sqrt((j+m)(j-m+1)) |j m-1>
    down = {(idx + 1, idx): (1, (j + m) * (j - m + 1)) for idx, m in enumerate(ms) if m > -j}
    nu, lowering = frame_of_entries({(2, 1): down}, d + 1)
    return Irrep(n=2, label=j, tags=tags, weights=weights, nu=nu, lowering=lowering)


# -- tensor products -------------------------------------------------


def tensor(a, b):
    """Tensor product module with the diagonal action g x 1 + 1 x g.

    Its frame vector (i, k) is f_i x f_k / g_ik, g_ik = gcd(nu_i, nu_k), of
    squarefree squared norm nu_i nu_k / g_ik^2; an entry q of g x 1 or
    1 x g that moves (i, k) to (i', k') becomes q g_i'k' / g_ik.  Over the
    denominator lcm(den_a, den_b) G, G the lcm of the g_ik, the numerators
    of each lowering generator are ints; the product's `frame` transposes them.
    """
    if a.n != b.n:
        raise ValueError("rank mismatch: su(%d) vs su(%d)" % (a.n, b.n))
    tags = [(ta, tb) for ta in a.tags for tb in b.tags]
    db = b.dim
    weights = [tuple(x + y for x, y in zip(wa, wb)) for wa in a.weights for wb in b.weights]
    pairs = [(x, y) for x in a.nu for y in b.nu]
    gcds = [math.gcd(x, y) for x, y in pairs]
    nu = [x * y // (g * g) for (x, y), g in zip(pairs, gcds)]
    big = math.lcm(*gcds)
    # index (i, k) is i * db + k.  A generator matrix is off-diagonal, so an
    # entry of g x 1 moves i and one of 1 x g moves k: no key is written twice
    lowering = {}
    for g in {*a.lowering, *b.lowering}:
        den_a, cols_a = a.lowering.get(g, _NO_MATRIX)
        den_b, cols_b = b.lowering.get(g, _NO_MATRIX)
        den = math.lcm(den_a, den_b)
        fa, fb = den // den_a * big, den // den_b * big
        m = {}
        for c, entries in cols_a.items():
            for k in range(db):
                j = c * db + k
                f = fa // gcds[j]
                m.setdefault(j, []).extend(
                    [(r * db + k, z * f * gcds[r * db + k]) for r, z in entries])
        for c, entries in cols_b.items():
            for i in range(0, a.dim * db, db):
                j = i + c
                f = fb // gcds[j]
                m.setdefault(j, []).extend([(i + r, z * f * gcds[i + r]) for r, z in entries])
        lowering[g] = FrameMatrix(den * big, m)
    return Irrep(n=a.n, label=(a.label, b.label), tags=tags, weights=weights,
                 nu=nu, lowering=lowering)


# -- su(3) -----------------------------------------------------------


# The lowering generators of su(3), in the order the realization applies them.
_LOWERING = ((2, 1), (3, 1), (3, 2))


def _irrep_label(lam, mu):
    """(lam, mu) as ints; ValueError unless both are nonnegative integers."""
    lam, mu = integer(lam), integer(mu)
    if lam < 0 or mu < 0:
        raise ValueError("labels must be nonnegative")
    return lam, mu


def su3_label(lam, mu):
    """(lam, mu) as ints; ValueError unless both are nonnegative integers
    within the desk-scale guard lam + mu <= 6 of the su(3) modules."""
    lam, mu = _irrep_label(lam, mu)
    if lam + mu > 6:
        raise ValueError("desk-scale guard: lam + mu <= 6")
    return lam, mu


def su3_dim(lam, mu):
    """The dimension of the su(3) irrep (lam, mu), by Weyl's formula."""
    return (lam + 1) * (mu + 1) * (lam + mu + 2) // 2


def _symmetric_power(k, dual=False):
    """Sym^k(V), or Sym^k(V*) if dual, V the fundamental of su(3), over the
    frame of its orbit sums.

    Basis vector d is a sorted digit tuple, in `combinations_with_replacement`
    order, and f_d = s_d / k_d, where s_d sums the product basis vectors
    whose digits are d in any order and |s_d|^2 = k_d^2 nu_d.  e_ij turns one
    digit c of d into r: on V it is E_ij, (r, c) = (i - 1, j - 1), and on V*
    it is -E_ji, (r, c) = (j - 1, i - 1).  So s_d goes to sign (n_r(d) + 1)
    s_d', and the frame entry is sign (n_r(d) + 1) k_d' / k_d.
    """
    digits = list(combinations_with_replacement(range(3), k))
    index = {d: b for b, d in enumerate(digits)}
    ks, nu = zip(*(_squarefree_split(_arrangements(d)) for d in digits))
    sign = -1 if dual else 1
    lowering = {}
    for i, j in _LOWERING:
        r, c = (j - 1, i - 1) if dual else (i - 1, j - 1)
        cols = {}
        for b, d in enumerate(digits):
            if c in d:
                moved = list(d)
                moved.remove(c)
                moved = tuple(sorted(moved + [r]))
                a = index[moved]
                cols[b] = [(a, Fraction(sign * moved.count(r) * ks[a], ks[b]))]
        lowering[(i, j)] = _frame_matrix(cols)
    weights = [(sign * (d.count(0) - d.count(1)), sign * (d.count(1) - d.count(2)))
               for d in digits]
    return Irrep(n=3, label=(0, k) if dual else (k, 0), tags=digits, weights=weights,
                 nu=list(nu), lowering=lowering)


@label_cache(32, su3_label)  # su3_label admits 28 irreps
def su3_irrep(lam, mu):
    """Exact su(3) irrep (lam, mu) realized in P = Sym^lam(V) x Sym^mu(V*).

    The cyclic submodule of the highest-weight vector e1^lam x f3^mu is
    generated by lowering over P's frame (`tensor` of two
    `_symmetric_power`s), each lowered vector Gram-Schmidt reduced in ints
    (`orthogonalize` under `P.frame_dot`) against the basis already found
    in its weight space; a zero residual marks it dependent.  The primitive
    residual u_b, signed so that its first coordinate in P is positive,
    gives f_b = u_b / k_b, |u_b|^2 = k_b^2 nu_b.
    """
    if lam == 0 and mu == 0:
        return Irrep(n=3, label=(0, 0), tags=["0"], weights=[(0, 0)], nu=[1],
                     lowering={g: _NO_MATRIX for g in _LOWERING})

    dual = _symmetric_power(mu, dual=True)
    P = tensor(_symmetric_power(lam), dual)
    highest = {dual.dim - 1: 1}  # e1^lam x f3^mu: the first fund, last dual vector

    by_weight = {}  # weight -> [(primitive integer vector, its squared norm)]

    def insert(vec):
        if not vec:
            return False
        found = by_weight.setdefault(P.weights[next(iter(vec))], [])
        u = orthogonalize(vec, found, P.frame_dot)
        if not u:
            return False
        if u[min(u)] < 0:  # phase: first product coordinate positive
            u = {k: -x for k, x in u.items()}
        found.append((u, P.frame_dot(u, u)))
        return True

    # cyclic submodule via repeated lowering, grouped by weight
    insert(highest)
    queue = [highest]
    while queue:
        vec = queue.pop()
        for g in _LOWERING:
            nxt = col_vec(P.lowering[g].cols, vec)
            if insert(nxt):
                queue.append(nxt)

    # deterministic basis order: by descending height (for su(3), w1 + w2 is
    # the exact height), then by descending weight
    order = sorted(by_weight, key=lambda w: (-(w[0] + w[1]), -w[0], -w[1]))
    basis = [(w, u, n2) for w in order for u, n2 in by_weight[w]]
    if len(basis) != su3_dim(lam, mu):
        raise RuntimeError("su(3) irrep (%d,%d): got %d basis vectors, expected %d"
                           % (lam, mu, len(basis), su3_dim(lam, mu)))

    tags, weights, in_weight = [], [], {}  # in_weight: weight -> basis indices
    for b, (w, _u, _n2) in enumerate(basis):
        tags.append("w=(%s,%s)#%d" % (w[0], w[1], len(in_weight.get(w, ()))))
        weights.append(w)
        in_weight.setdefault(w, []).append(b)

    # as e_ij u_b = sum_a (d / (den |u_a|^2)) u_a, the entry of f_b's image at
    # f_a is d / (den k_a k_b nu_a).  Only the basis vectors of the weight
    # space that e_ij maps u_b into can pair with its image.
    ks, nu = zip(*(_squarefree_split(n2) for _w, _u, n2 in basis))
    lowering = {}
    for g in _LOWERING:
        den, pmat = P.lowering[g]
        cols = {}
        for b, (_w, ub, _nb) in enumerate(basis):
            img = col_vec(pmat, ub)
            if not img:
                continue
            for a in in_weight.get(P.weights[next(iter(img))], ()):
                d = P.frame_dot(img, basis[a][1])
                if d:
                    cols.setdefault(b, []).append((a, Fraction(d, den * ks[a] * ks[b] * nu[a])))
        lowering[g] = _frame_matrix(cols)

    return Irrep(n=3, label=(lam, mu), tags=tags, weights=weights,
                 nu=list(nu), lowering=lowering)


def _arrangements(digits):
    """The number of distinct orderings of a sorted digit tuple."""
    out = math.factorial(len(digits))
    for d in set(digits):
        out //= math.factorial(digits.count(d))
    return out


# -- application of Taylor elements ----------------------------------


def apply_element(x, v, M):
    """Act with a TaylorElement (any element with .engine, .bound and
    .terms) on a module vector, exactly, over M's frame: for each monomial
    L c R, R's letters act on int frame parts (`frame_apply`), c on each
    weight-lam component as the number c(lam), evaluated once per weight,
    and then L's letters; the vector leaves the frame once.

    Refuses when the module's weight diameter exceeds the truncation bound
    (dropped monomials could then act nonzero), and a coordinate outside
    the module; a coefficient pole at a weight it meets raises
    SingularWeightError.
    """
    if M.weight_diameter > x.bound:
        raise TruncationError(
            "module weight diameter %d exceeds truncation bound %d"
            % (M.weight_diameter, x.bound)
        )
    if x.engine.n != M.n:
        raise ValueError("algebra rank mismatch")
    parts = M.to_frame(v)
    out = {}  # radicand -> the frame parts of the image
    for (L, R), coeff in x.terms.items():
        value = cache(coeff.evaluate)  # at a weight tuple
        for k, part in parts.items():
            s, y = _word_on_frame(R, part, M)
            by_weight = {}
            for b, z in y.items():
                by_weight.setdefault(M.weights[b], {})[b] = z
            part = frame_sum([(s * c, u) for w, u in by_weight.items() if (c := value(w))])
            part = _word_on_frame(L, part, M)
            if part[1]:
                out.setdefault(k, []).append(part)
    return M.from_frame({k: frame_sum(ps) for k, ps in out.items()})


def _word_on_frame(word, part, M):
    """A packed word applied to a frame part, rightmost letter first."""
    for g, e in reversed(word):
        if not part[1]:
            break
        part = frame_apply(M.frame[g], part, e)
    return part


def matrix_of(x, M):
    """Matrix of a TaylorElement on the module, columns by basis order."""
    out = {}
    for b in range(M.dim):
        img = apply_element(x, ModuleVector({b: _ONE}), M)
        for r, v in img.coords.items():
            out[(r, b)] = v
    return out
