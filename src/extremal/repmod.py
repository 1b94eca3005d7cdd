"""Explicit finite-dimensional modules with exact generator matrices.

Matrices are sparse dicts {(row, col): Radical} over an orthonormal basis;
weights are tuples of h_i eigenvalues (Fractions).  su(3) irreps are realized
inside tensor powers of the fundamental and antifundamental representations:
the cyclic submodule of the highest-weight product vector is generated by
lowering, all in integer arithmetic.  Each weight space is Gram-Schmidt
orthogonalized into primitive integer vectors u, the orthonormal basis is
u/|u|, and a generator matrix entry is the integer u_a . (e_ij u_b) over
|u_a| |u_b|, one square root per nonzero entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Radical, SingularWeightError, TruncationError, sqrt_of_rational

__all__ = [
    "Irrep",
    "ModuleVector",
    "su2_irrep",
    "su3_irrep",
    "tensor",
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
            out[r] = out.get(r, _ZERO) + a * v
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
            out[(r, c)] = out.get((r, c), _ZERO) + av * bv
    return {k: v for k, v in out.items() if v}


def mat_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(k, _ZERO) == b.get(k, _ZERO) for k in keys)


# -- modules ---------------------------------------------------------


@dataclass
class Irrep:
    """An explicit module (irreducible or a tensor product) with exact matrices.

    matrices maps generator pairs (i, j), i != j, to sparse Radical matrices
    over the orthonormal basis; Cartan matrices are diagonal and derived from
    the stored weights.
    """

    algebra: str           # 'su2' | 'su3'
    n: int
    label: object
    tags: list
    weights: list          # tuple of Fractions (h_1..h_{n-1} eigenvalues) per tag
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
        cached = getattr(self, "_diam", None)
        if cached is None:
            # height = sum of the simple-root coordinates; column k of the
            # inverse su(n) Cartan matrix sums to k(n-k)/2
            cols = [Fraction(k * (self.n - k), 2) for k in range(1, self.n)]
            hts = [sum(c * x for c, x in zip(cols, w)) for w in self.weights]
            cached = int(max(hts) - min(hts))
            self._diam = cached
        return cached

    def basis_vector(self, idx_or_tag):
        idx = idx_or_tag if isinstance(idx_or_tag, int) else self.index(idx_or_tag)
        return ModuleVector({idx: _ONE})


class ModuleVector:
    """Finite-support vector over a module basis, Radical coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        self.coords = {k: _rad(v) for k, v in (coords or {}).items() if v}

    def __add__(self, other):
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, _ZERO) + v
        return ModuleVector(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
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
        return self.coords == other.coords

    def __repr__(self):
        return "ModuleVector(%r)" % self.coords


# -- su(2) -----------------------------------------------------------


@lru_cache(maxsize=None)
def _su2_cached(jnum, jden):
    j = Fraction(jnum, jden)
    if j < 0 or (2 * j) != int(2 * j):
        raise ValueError("spin must be a nonnegative half-integer")
    ms = [j - k for k in range(int(2 * j) + 1)]  # highest first
    tags = ["m=%s" % m for m in ms]
    weights = [(Fraction(2) * m,) for m in ms]
    up, down = {}, {}
    for idx, m in enumerate(ms):
        if m < j:
            # J+ |j m> = sqrt((j-m)(j+m+1)) |j m+1>
            up[(idx - 1, idx)] = sqrt_of_rational((j - m) * (j + m + 1))
        if m > -j:
            down[(idx + 1, idx)] = sqrt_of_rational((j + m) * (j - m + 1))
    return Irrep(
        algebra="su2", n=2, label=j, tags=tags, weights=weights,
        matrices={(1, 2): up, (2, 1): down},
    )


def su2_irrep(j):
    j = Fraction(j)
    return _su2_cached(j.numerator, j.denominator)


# -- su(3) -----------------------------------------------------------


def tensor(a, b):
    """Tensor product module with the diagonal action g x 1 + 1 x g."""
    if a.algebra != b.algebra:
        raise ValueError("algebra mismatch: %s vs %s" % (a.algebra, b.algebra))
    tags = [(ta, tb) for ta in a.tags for tb in b.tags]
    db = b.dim
    weights = [
        tuple(wa[k] + wb[k] for k in range(a.n - 1))
        for wa in a.weights
        for wb in b.weights
    ]
    mats = {}
    gens = set(a.matrices) | set(b.matrices)
    for g in gens:
        m = {}
        for (r, c), v in a.matrices.get(g, {}).items():
            for k in range(db):
                m[(r * db + k, c * db + k)] = m.get((r * db + k, c * db + k), _ZERO) + v
        for (r, c), v in b.matrices.get(g, {}).items():
            for k in range(a.dim):
                key = (k * db + r, k * db + c)
                m[key] = m.get(key, _ZERO) + v
        mats[g] = {k: v for k, v in m.items() if v}
    return Irrep(
        algebra=a.algebra, n=a.n, label=(a.label, b.label),
        tags=tags, weights=weights, matrices=mats,
    )


_SU3_GENERATORS = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]

# A tensor factor of the realization: the weights of its three basis vectors,
# and, per generator e_ij, its one nonzero matrix entry (row, col, value).
# The fundamental has e_ij = E_ij; the antifundamental is its dual, -E_ji.
_FUND = (((1, 0), (-1, 1), (0, -1)),
         {(i, j): (i - 1, j - 1, 1) for i, j in _SU3_GENERATORS})
_ANTIFUND = (((-1, 0), (1, -1), (0, 1)),
             {(i, j): (j - 1, i - 1, -1) for i, j in _SU3_GENERATORS})


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


def _int_gs(vectors):
    """Fraction-free Gram-Schmidt of independent integer vectors: each output
    is the primitive integer vector along the rational Gram-Schmidt one, with
    the same orientation."""
    basis = []
    for v in vectors:
        w = dict(v)
        for u, n2 in basis:
            dot = _dot(w, u)
            if dot:
                # n2 * (w - (<w,u>/<u,u>) u): a positive multiple of the step
                w = {k: n2 * w.get(k, 0) - dot * u.get(k, 0) for k in set(w) | set(u)}
                w = {k: x for k, x in w.items() if x}
        w = _primitive(w)
        basis.append((w, _dot(w, w)))
    return [u for u, _ in basis]


@lru_cache(maxsize=None)
def su3_irrep(lam, mu):
    """Exact su(3) irrep (lam, mu) realized in fund^lam x antifund^mu.

    The cyclic submodule of the highest-weight product vector is generated by
    lowering.  Each weight space is Gram-Schmidt orthogonalized in integer
    arithmetic; basis vector b is u_b / |u_b| for a primitive integer vector
    u_b whose first product-basis coordinate is positive, so the entry (a, b)
    of a generator is d / (|u_a| |u_b|) with the integer d = u_a . (e_ij u_b).
    """
    lam, mu = int(lam), int(mu)
    if lam < 0 or mu < 0:
        raise ValueError("labels must be nonnegative")
    if lam + mu > 6:
        raise ValueError("desk-scale guard: lam + mu <= 6")
    dim_expected = (lam + 1) * (mu + 1) * (lam + mu + 2) // 2
    if lam == 0 and mu == 0:
        mats = {g: {} for g in _SU3_GENERATORS}
        return Irrep(algebra="su3", n=3, label=(0, 0), tags=["0"],
                     weights=[(Fraction(0), Fraction(0))], matrices=mats)

    components = [_FUND] * lam + [_ANTIFUND] * mu
    total = 3 ** len(components)
    strides = [3 ** k for k in reversed(range(len(components)))]

    # product-space weights; product index = sum of digit * stride
    pweights = [(0, 0)]
    for cw, _ in components:
        pweights = [(a + x, b + y) for a, b in pweights for x, y in cw]

    # product-space generator matrices, indexed by column
    def pmatrix(g):
        by_col = {}
        for (_, entries), stride in zip(components, strides):
            r, c, val = entries[g]
            for idx in range(total):
                if idx // stride % 3 == c:
                    by_col.setdefault(idx, []).append((idx + (r - c) * stride, val))
        return by_col

    pmats = {g: pmatrix(g) for g in _SU3_GENERATORS}
    lowering = [pmats[g] for g in ((2, 1), (3, 1), (3, 2))]

    # highest-weight product vector: every fundamental at e1, antifund at f3
    hi_idx = sum(s * (0 if comp is _FUND else 2) for comp, s in zip(components, strides))
    highest = {hi_idx: 1}

    by_weight = {}  # weight -> (echelon rows, original vectors in order)

    def insert(vec):
        if not vec:
            return False
        w = pweights[next(iter(vec))]
        ech, originals = by_weight.setdefault(w, ([], []))
        red = dict(vec)
        for pivot, row in ech:
            f = red.get(pivot)
            if f:
                p = row[pivot]
                red = {k: p * red.get(k, 0) - f * row.get(k, 0) for k in set(red) | set(row)}
                red = {k: v for k, v in red.items() if v}
        if not red:
            return False
        ech.append((min(red), _primitive(red)))
        originals.append(vec)
        return True

    # cyclic submodule via repeated lowering, grouped by weight
    insert(highest)
    queue = [highest]
    while queue:
        vec = queue.pop()
        for mat in lowering:
            nxt = _int_mat_vec(mat, vec)
            if insert(nxt):
                queue.append(nxt)

    # orthogonalize per weight space, deterministic basis order
    def sort_key(w):
        ht = -(w[0] + w[1])  # for su(3), w1 + w2 is the exact height
        return (ht, tuple(-x for x in w))

    basis = []  # (weight, primitive integer vector, its squared norm)
    for w in sorted(by_weight, key=sort_key):
        for u in _int_gs(by_weight[w][1]):
            # phase: first product-basis coordinate positive
            if u[min(u)] < 0:
                u = {k: -x for k, x in u.items()}
            basis.append((w, u, _dot(u, u)))

    if len(basis) != dim_expected:
        raise RuntimeError(
            "su(3) irrep (%d,%d): got %d basis vectors, expected %d"
            % (lam, mu, len(basis), dim_expected)
        )

    tags = []
    weights = []
    in_weight = {}  # weight -> basis indices
    for b, (w, _u, _n2) in enumerate(basis):
        tags.append("w=(%s,%s)#%d" % (w[0], w[1], len(in_weight.get(w, ()))))
        weights.append((Fraction(w[0]), Fraction(w[1])))
        in_weight.setdefault(w, []).append(b)

    # generator matrices in the orthonormal basis: only the basis vectors of
    # the weight space that e_ij maps u_b into can pair with its image
    mats = {}
    for g in _SU3_GENERATORS:
        cols = {}
        for b, (_w, ub, nb) in enumerate(basis):
            img = _int_mat_vec(pmats[g], ub)
            if not img:
                continue
            for a in in_weight.get(pweights[next(iter(img))], ()):
                _wa, ua, na = basis[a]
                d = _dot(img, ua)
                if d:
                    cols[(a, b)] = sqrt_of_rational(
                        Fraction(d * d, na * nb), 1 if d > 0 else -1)
        mats[g] = cols

    return Irrep(algebra="su3", n=3, label=(lam, mu), tags=tags,
                 weights=weights, matrices=mats)


# -- application of Taylor elements ----------------------------------


def _eval_coeff(engine, coeff, weight):
    cache = engine._eval_cache
    key = (coeff, weight)
    try:
        return cache[key]
    except KeyError:
        pass
    val = Radical.from_rational(coeff.evaluate(list(weight)))
    cache[key] = val
    return val


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
    eng = x.engine
    if eng.n != M.n:
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
    eng = x.engine
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
            c = _eval_coeff(eng, coeff, M.weights[idx])
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
