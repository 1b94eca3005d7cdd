"""Explicit finite-dimensional modules with exact generator matrices.

Matrices are sparse dicts {(row, col): Radical} over an orthonormal basis;
weights are tuples of h_i eigenvalues (Fractions).  su(3) irreps are realized
inside tensor powers of the fundamental and antifundamental representations:
the cyclic submodule of the highest-weight product vector is generated by
lowering and the weight spaces are Gram-Schmidt orthonormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Radical, sqrt_of_rational
from .pbw import SingularWeightError, TaylorElement, TruncationError

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

def mat_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, _ZERO) + v
    return {k: v for k, v in out.items() if v}


def mat_scale(a, c):
    c = _rad(c)
    return {k: v * c for k, v in a.items() if v * c}


def mat_identity(dim):
    return {(i, i): _ONE for i in range(dim)}


def mat_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(k, _ZERO) == b.get(k, _ZERO) for k in keys)


def mat_rank(a, dim):
    """Exact rank by Gaussian elimination over the radical field."""
    rows = [dict() for _ in range(dim)]
    for (r, c), v in a.items():
        rows[r][c] = v
    rank = 0
    used_cols = set()
    for col in range(dim):
        pivot = None
        for i in range(rank, dim):
            if rows[i].get(col):
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        inv = pv.inverse()
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
        used_cols.add(col)
        if rank == dim:
            break
    return rank


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


def casimir_matrix_su2(M):
    """J-J+ + J0(J0+1) from the module's matrices."""
    jp, jm = M.matrix((1, 2)), M.matrix((2, 1))
    j0 = mat_scale(M.matrix(("h", 1)), Fraction(1, 2))
    return mat_add(mat_mul(jm, jp), mat_add(mat_mul(j0, j0), j0))


# -- su(3) -----------------------------------------------------------


def _su3_fund():
    # e_ij are elementary matrices; weights of e_1, e_2, e_3
    weights = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(-1))]
    mats = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                mats[(i, j)] = {(i - 1, j - 1): _ONE}
    return Irrep(algebra="su3", n=3, label=(1, 0), tags=["e1", "e2", "e3"],
                 weights=weights, matrices=mats)


def _su3_antifund():
    # dual representation: x -> -x^T on the fundamental
    weights = [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1))]
    mats = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                mats[(i, j)] = {(j - 1, i - 1): -_ONE}
    return Irrep(algebra="su3", n=3, label=(0, 1), tags=["f1", "f2", "f3"],
                 weights=weights, matrices=mats)


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


def _frac_gs(vectors):
    """Gram-Schmidt a list of Fraction-dict vectors; returns orthogonal
    rational vectors (dependent inputs dropped)."""
    basis = []
    for v in vectors:
        w = dict(v)
        for u, u2 in basis:
            # w -= (<w,u>/<u,u>) u
            dot = sum(w.get(k, Fraction(0)) * uv for k, uv in u.items())
            if dot:
                f = dot / u2
                for k, uv in u.items():
                    w[k] = w.get(k, Fraction(0)) - f * uv
        w = {k: x for k, x in w.items() if x}
        if w:
            basis.append((w, sum(x * x for x in w.values())))
    return [u for u, _ in basis]


@lru_cache(maxsize=None)
def su3_irrep(lam, mu):
    """Exact su(3) irrep (lam, mu) realized in fund^lam x antifund^mu."""
    lam, mu = int(lam), int(mu)
    if lam < 0 or mu < 0:
        raise ValueError("labels must be nonnegative")
    if lam + mu > 6:
        raise ValueError("desk-scale guard: lam + mu <= 6")
    dim_expected = (lam + 1) * (mu + 1) * (lam + mu + 2) // 2
    if lam == 0 and mu == 0:
        mats = {(i, j): {} for i in range(1, 4) for j in range(1, 4) if i != j}
        return Irrep(algebra="su3", n=3, label=(0, 0), tags=["0"],
                     weights=[(Fraction(0), Fraction(0))], matrices=mats)

    components = [_su3_fund()] * lam + [_su3_antifund()] * mu
    dims = [c.dim for c in components]
    total = 1
    for d in dims:
        total *= d

    def unrank(idx):
        out = []
        for d in reversed(dims):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

    # product-space weights
    pweights = []
    for idx in range(total):
        parts = unrank(idx)
        w = [Fraction(0), Fraction(0)]
        for c, p in zip(components, parts):
            cw = c.weights[p]
            w[0] += cw[0]
            w[1] += cw[1]
        pweights.append(tuple(w))

    # product-space lowering / generator matrices (rational entries)
    def pmatrix(g):
        mat = {}
        for pos, comp in enumerate(components):
            sub = comp.matrices.get(g, {})
            stride = 1
            for d in dims[pos + 1 :]:
                stride *= d
            block = dims[pos] * stride
            for (r, c), v in sub.items():
                val = v.to_rational()
                for hi in range(total // block):
                    for lo in range(stride):
                        rr = hi * block + r * stride + lo
                        cc = hi * block + c * stride + lo
                        mat[(rr, cc)] = mat.get((rr, cc), Fraction(0)) + val
        return {k: v for k, v in mat.items() if v}

    lowering = [pmatrix(g) for g in ((2, 1), (3, 1), (3, 2))]

    # highest-weight product vector: every fundamental at e1, antifund at f3
    hi_idx = 0
    for comp, d in zip(components, dims):
        hi_idx = hi_idx * d + (0 if comp.label == (1, 0) else 2)
    highest = {hi_idx: Fraction(1)}

    # cyclic submodule via repeated lowering, grouped by weight
    def rat_mat_vec(mat, vec):
        out = {}
        for (r, c), a in mat.items():
            v = vec.get(c)
            if v is not None:
                out[r] = out.get(r, Fraction(0)) + a * v
        return {k: v for k, v in out.items() if v}

    by_weight = {}  # weight -> (echelon rows, original vectors in order)

    def insert(vec):
        if not vec:
            return False
        w = pweights[next(iter(vec))]
        ech, originals = by_weight.setdefault(w, ([], []))
        red = dict(vec)
        for pivot, row in ech:
            if pivot in red:
                f = red[pivot]
                for k, v in row.items():
                    red[k] = red.get(k, Fraction(0)) - f * v
                red = {k: v for k, v in red.items() if v}
        if not red:
            return False
        pivot = min(red)
        pv = red[pivot]
        row = {k: v / pv for k, v in red.items()}
        ech.append((pivot, row))
        originals.append(vec)
        return True

    insert(highest)
    queue = [highest]
    while queue:
        vec = queue.pop()
        for mat in lowering:
            nxt = rat_mat_vec(mat, vec)
            if insert(nxt):
                queue.append(nxt)

    # orthonormalize per weight space, deterministic basis order
    def sort_key(w):
        ht = -(w[0] + w[1])  # for su(3), w1 + w2 is the exact height
        return (ht, tuple(-x for x in w))

    entries = []  # (weight, orthonormal vector as ModuleVector coords over product space)
    for w in sorted(by_weight, key=sort_key):
        _ech, originals = by_weight[w]
        for u in _frac_gs(originals):
            n2 = sum(x * x for x in u.values())
            scale = sqrt_of_rational(Fraction(1) / n2)
            vec = {k: Radical.from_rational(v) * scale for k, v in u.items()}
            # fix phase: first product-basis coordinate positive
            lead = vec[min(vec)]
            if lead.sign() < 0:
                vec = {k: -v for k, v in vec.items()}
            entries.append((w, vec))

    if len(entries) != dim_expected:
        raise RuntimeError(
            "su(3) irrep (%d,%d): got %d basis vectors, expected %d"
            % (lam, mu, len(entries), dim_expected)
        )

    tags = []
    weights = []
    seen = {}
    for w, _vec in entries:
        k = seen.get(w, 0)
        seen[w] = k + 1
        tags.append("w=(%s,%s)#%d" % (w[0], w[1], k))
        weights.append(w)

    # generator matrices in the orthonormal basis
    basis_vecs = [vec for _w, vec in entries]
    mats = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            pm = pmatrix((i, j))
            cols = {}
            for b, bv in enumerate(basis_vecs):
                img = {}
                for (r, c), a in pm.items():
                    v = bv.get(c)
                    if v is not None:
                        img[r] = img.get(r, _ZERO) + v * Radical.from_rational(a)
                for a_idx, av in enumerate(basis_vecs):
                    dot = _ZERO
                    for k, v in img.items():
                        u = av.get(k)
                        if u is not None:
                            dot = dot + v * u
                    if dot:
                        cols[(a_idx, b)] = dot
            mats[(i, j)] = cols

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


def apply_element(x: TaylorElement, v: ModuleVector, M: Irrep, singular="raise"):
    """Act with a TaylorElement on a module vector, exactly.

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


def matrix_of(x: TaylorElement, M: Irrep, singular="raise"):
    """Matrix of a TaylorElement on the module, columns by basis order."""
    out = {}
    for b in range(M.dim):
        img = apply_element(x, ModuleVector({b: _ONE}), M, singular=singular)
        for r, v in img.coords.items():
            out[(r, b)] = v
    return out
