"""Explicit finite-dimensional modules with exact generator matrices.

Matrices are sparse dicts {(row, col): Radical} over an orthonormal basis;
weights are tuples of h_i eigenvalues (ints).  su(3) irreps are realized
inside tensor powers of the fundamental and antifundamental representations:
the cyclic submodule of the highest-weight product vector is generated by
lowering, all in integer arithmetic.  Each lowered vector is Gram-Schmidt
reduced against its weight space as it is found, into a primitive integer
vector u, the orthonormal basis is u/|u|, and a lowering matrix entry is the
integer u_a . (e_ij u_b) over |u_a| |u_b|, one square root per nonzero
entry.  Every raising matrix is the transpose of a lowering one
(`with_raising`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Radical, SingularWeightError, TruncationError, doubled, integer
from .exact import sqrt_of_rational

__all__ = [
    "Irrep",
    "ModuleVector",
    "su2_irrep",
    "su3_label",
    "su3_irrep",
    "tensor",
    "with_raising",
    "apply_element",
    "matrix_of",
]

_ZERO = Radical.from_rational(0)
_ONE = Radical.from_rational(1)


def _rad(x):
    if isinstance(x, Radical):
        return x
    return Radical.from_rational(x)


# -- small exact linear algebra over Radical -------------------------


def mat_vec(mat, vec):
    out = {}
    for (r, c), a in mat.items():
        v = vec.get(c)
        if v is not None:
            x = a * v
            out[r] = out[r] + x if r in out else x
    return {k: v for k, v in out.items() if v}


def mat_pow_vec(mat, vec, k):
    """mat^k applied to a sparse vector, stopping once it vanishes."""
    for _ in range(int(k)):
        if not vec:
            break
        vec = mat_vec(mat, vec)
    return vec


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


def with_raising(lowering):
    """The generator matrices from the lowering ones {(i, j): matrix}, i > j:
    over an orthonormal basis with real entries, e_ji is the transpose of e_ij."""
    mats = dict(lowering)
    for (i, j), m in lowering.items():
        mats[(j, i)] = {(c, r): v for (r, c), v in m.items()}
    return mats


# -- modules ---------------------------------------------------------


@dataclass
class Irrep:
    """An explicit module (irreducible or a tensor product) with exact matrices.

    matrices maps generator pairs (i, j), i != j, to sparse Radical matrices
    over the orthonormal basis; Cartan matrices are diagonal and derived from
    the stored weights.
    """

    n: int
    label: object
    tags: list
    weights: list          # tuple of ints (h_1..h_{n-1} eigenvalues) per tag
    matrices: dict

    @property
    def dim(self):
        return len(self.tags)

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

    def basis_vector(self, idx_or_tag):
        idx = idx_or_tag if isinstance(idx_or_tag, int) else self.index(idx_or_tag)
        return ModuleVector({idx: _ONE})


class ModuleVector:
    """Finite-support vector over a module basis, Radical coordinates."""

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


@lru_cache(maxsize=64)
def _su2_cached(d):
    """su2_irrep of the doubled spin d."""
    if d < 0:
        raise ValueError("spin must be a nonnegative half-integer")
    j = Fraction(d, 2)
    ms = [j - k for k in range(d + 1)]  # highest first
    tags = ["m=%s" % m for m in ms]
    weights = [(d - 2 * k,) for k in range(d + 1)]
    # J- |j m> = sqrt((j+m)(j-m+1)) |j m-1>
    down = {(idx + 1, idx): sqrt_of_rational((j + m) * (j - m + 1))
            for idx, m in enumerate(ms) if m > -j}
    return Irrep(
        n=2, label=j, tags=tags, weights=weights,
        matrices=with_raising({(2, 1): down}),
    )


def su2_irrep(j):
    return _su2_cached(*doubled(j))


# -- su(3) -----------------------------------------------------------


def tensor(a, b):
    """Tensor product module with the diagonal action g x 1 + 1 x g on the
    lowering generators; the raising ones are their transposes."""
    if a.n != b.n:
        raise ValueError("rank mismatch: su(%d) vs su(%d)" % (a.n, b.n))
    tags = [(ta, tb) for ta in a.tags for tb in b.tags]
    db = b.dim
    weights = [
        tuple(wa[k] + wb[k] for k in range(a.n - 1))
        for wa in a.weights
        for wb in b.weights
    ]
    # a lowering matrix is off-diagonal, so an entry of g x 1 moves the
    # index into a and one of 1 x g keeps it: no key is written twice.  The
    # entries share the factors' Radicals, which nothing mutates.
    lowering = {}
    for g in {g for g in (*a.matrices, *b.matrices) if g[0] > g[1]}:
        m = {}
        for (r, c), v in a.matrices.get(g, {}).items():
            for k in range(db):
                m[(r * db + k, c * db + k)] = v
        for (r, c), v in b.matrices.get(g, {}).items():
            for k in range(0, a.dim * db, db):
                m[(k + r, k + c)] = v
        lowering[g] = m
    return Irrep(
        n=a.n, label=(a.label, b.label),
        tags=tags, weights=weights, matrices=with_raising(lowering),
    )


# The lowering generators of su(3), in the order the realization applies them.
_LOWERING = ((2, 1), (3, 1), (3, 2))

# A tensor factor of the realization: the weights of its three basis vectors,
# and, per lowering generator e_ij, its one nonzero matrix entry (row, col,
# value).  The fundamental has e_ij = E_ij; the antifundamental is its dual,
# -E_ji.
_FUND = (((1, 0), (-1, 1), (0, -1)),
         {(i, j): (i - 1, j - 1, 1) for i, j in _LOWERING})
_ANTIFUND = (((-1, 0), (1, -1), (0, 1)),
             {(i, j): (j - 1, i - 1, -1) for i, j in _LOWERING})


def _int_mat_vec(by_col, vec):
    """Column-indexed integer matrix {col: [(row, value)]} on a sparse vector."""
    out = {}
    for c, x in vec.items():
        for r, a in by_col.get(c, ()):
            out[r] = out.get(r, 0) + a * x
    return {k: v for k, v in out.items() if v}


def _dot(u, v):
    return sum(x * v[k] for k, x in u.items() if k in v)


def _primitive(vec):
    g = 0
    for x in vec.values():
        g = math.gcd(g, x)
    return {k: x // g for k, x in vec.items()}


def su3_label(lam, mu):
    """(lam, mu) as ints; ValueError unless both are nonnegative integers
    within the desk-scale guard lam + mu <= 6 of the su(3) modules."""
    lam, mu = integer(lam), integer(mu)
    if lam < 0 or mu < 0:
        raise ValueError("labels must be nonnegative")
    if lam + mu > 6:
        raise ValueError("desk-scale guard: lam + mu <= 6")
    return lam, mu


@lru_cache(maxsize=32)  # su3_label admits 28 irreps
def su3_irrep(lam, mu):
    """Exact su(3) irrep (lam, mu) realized in fund^lam x antifund^mu.

    The cyclic submodule of the highest-weight product vector is generated by
    lowering, and each lowered vector is Gram-Schmidt reduced, in integer
    arithmetic, against the basis already found in its weight space; a zero
    residual marks it dependent.  Basis vector b is u_b / |u_b| for the
    primitive residual u_b, signed so that its first product-basis coordinate
    is positive, and the entry (a, b) of a lowering generator is
    d / (|u_a| |u_b|) with the integer d = u_a . (e_ij u_b).
    """
    lam, mu = su3_label(lam, mu)
    dim_expected = (lam + 1) * (mu + 1) * (lam + mu + 2) // 2
    if lam == 0 and mu == 0:
        return Irrep(n=3, label=(0, 0), tags=["0"], weights=[(0, 0)],
                     matrices=with_raising({g: {} for g in _LOWERING}))

    components = [_FUND] * lam + [_ANTIFUND] * mu
    total = 3 ** len(components)
    strides = [3 ** k for k in reversed(range(len(components)))]

    # product-space weights; product index = sum of digit * stride
    pweights = [(0, 0)]
    for cw, _ in components:
        pweights = [(a + x, b + y) for a, b in pweights for x, y in cw]

    # product-space lowering matrices, indexed by column
    def pmatrix(g):
        by_col = {}
        for (_, entries), stride in zip(components, strides):
            r, c, val = entries[g]
            for idx in range(total):
                if idx // stride % 3 == c:
                    by_col.setdefault(idx, []).append((idx + (r - c) * stride, val))
        return by_col

    lowering = {g: pmatrix(g) for g in _LOWERING}

    # highest-weight product vector: every fundamental at e1, antifund at f3
    hi_idx = sum(s * (0 if comp is _FUND else 2) for comp, s in zip(components, strides))
    highest = {hi_idx: 1}

    by_weight = {}  # weight -> [(primitive integer vector, its squared norm)]

    def insert(vec):
        if not vec:
            return False
        found = by_weight.setdefault(pweights[next(iter(vec))], [])
        red = dict(vec)
        for u, n2 in found:
            dot = _dot(red, u)
            if dot:
                # n2 * (red - (<red,u>/<u,u>) u): a positive multiple of the step
                red = {k: n2 * red.get(k, 0) - dot * u.get(k, 0) for k in set(red) | set(u)}
                red = {k: x for k, x in red.items() if x}
        if not red:
            return False
        u = _primitive(red)
        if u[min(u)] < 0:  # phase: first product-basis coordinate positive
            u = {k: -x for k, x in u.items()}
        found.append((u, _dot(u, u)))
        return True

    # cyclic submodule via repeated lowering, grouped by weight
    insert(highest)
    queue = [highest]
    while queue:
        vec = queue.pop()
        for mat in lowering.values():
            nxt = _int_mat_vec(mat, vec)
            if insert(nxt):
                queue.append(nxt)

    # deterministic basis order: by descending height (for su(3), w1 + w2 is
    # the exact height), then by descending weight
    order = sorted(by_weight, key=lambda w: (-(w[0] + w[1]), -w[0], -w[1]))
    basis = [(w, u, n2) for w in order for u, n2 in by_weight[w]]
    if len(basis) != dim_expected:
        raise RuntimeError(
            "su(3) irrep (%d,%d): got %d basis vectors, expected %d"
            % (lam, mu, len(basis), dim_expected)
        )

    tags, weights, in_weight = [], [], {}  # in_weight: weight -> basis indices
    for b, (w, _u, _n2) in enumerate(basis):
        tags.append("w=(%s,%s)#%d" % (w[0], w[1], len(in_weight.get(w, ()))))
        weights.append(w)
        in_weight.setdefault(w, []).append(b)

    # lowering matrices in the orthonormal basis: only the basis vectors of
    # the weight space that e_ij maps u_b into can pair with its image
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
                    cols[(a, b)] = sqrt_of_rational(
                        Fraction(d * d, na * nb), 1 if d > 0 else -1)
        mats[g] = cols

    return Irrep(n=3, label=(lam, mu), tags=tags,
                 weights=weights, matrices=with_raising(mats))


# -- application of Taylor elements ----------------------------------


def apply_element(x, v, M, singular="raise"):
    """Act with a TaylorElement (any element with .engine, .bound and
    .terms) on a module vector, exactly.

    Refuses when the module's weight diameter exceeds the truncation bound
    (dropped monomials could then act nonzero).

    singular="zero" routes around the poles of a projector series: the source
    vector is split into weight components, and a component whose processing
    hits a vanishing denominator is sent to zero.  That is the correct value
    for an extremal projector, whose image consists of highest-weight vectors:
    none exists at a non-dominant weight.  The routing therefore insists the
    offending component's weight is non-dominant and re-raises otherwise.
    """
    if singular not in ("raise", "zero"):
        raise ValueError("singular must be 'raise' or 'zero'")
    if M.weight_diameter > x.bound:
        raise TruncationError(
            "module weight diameter %d exceeds truncation bound %d"
            % (M.weight_diameter, x.bound)
        )
    if x.engine.n != M.n:
        raise ValueError("algebra rank mismatch")
    if singular == "zero":
        by_weight = {}
        for idx, val in v.coords.items():
            by_weight.setdefault(M.weights[idx], {})[idx] = val
        out = ModuleVector({})
        for w, coords in sorted(by_weight.items()):
            try:
                out = out + _apply_raw(x, coords, M)
            except SingularWeightError:
                if all(c >= 0 for c in w):
                    raise  # a pole on a dominant component is a real error
        return out
    return _apply_raw(x, dict(v.coords), M)


def _apply_raw(x, coords, M):
    out = ModuleVector({})
    for (L, R), coeff in x.terms.items():
        w = dict(coords)
        for g, e in reversed(R):
            w = mat_pow_vec(M.matrix(g), w, e)
            if not w:
                break
        if not w:
            continue
        # diagonal Cartan coefficient, evaluated per weight component
        w2 = {}
        for idx, val in w.items():
            c = coeff.evaluate(M.weights[idx])
            if c:
                w2[idx] = val * c
        w = w2
        for g, e in reversed(L):
            w = mat_pow_vec(M.matrix(g), w, e)
            if not w:
                break
        if w:
            out = out + ModuleVector(w)
    return out


def matrix_of(x, M, singular="raise"):
    """Matrix of a TaylorElement on the module, columns by basis order."""
    out = {}
    for b in range(M.dim):
        img = apply_element(x, ModuleVector({b: _ONE}), M, singular=singular)
        for r, v in img.coords.items():
            out[(r, b)] = v
    return out
