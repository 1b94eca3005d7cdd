"""Explicit modules: matrices, defining relations, application of elements."""

from fractions import Fraction

import pytest

from extremal.algebra import build_root_system
from extremal.exact import Radical, sqrt_of_rational
from extremal.pbw import RewriteEngine, SingularWeightError, rewrite_word
from extremal.repmod import (
    TruncationError,
    apply_element,
    mat_eq,
    mat_mul,
    su2_irrep,
    su3_irrep,
    tensor,
)
from reference import casimir_matrix_su2, mat_add, mat_identity, mat_scale

SU2 = build_root_system(2)
SU3 = build_root_system(3)


def _commutator(M, a, b):
    return mat_add(mat_mul(M.matrix(a), M.matrix(b)),
                   mat_scale(mat_mul(M.matrix(b), M.matrix(a)), -1))


def _diag_diff(M, i, j):
    """Matrix of e_ii - e_jj from the stored weights (su(3): partial sums of h)."""
    out = {}
    for idx, w in enumerate(M.weights):
        v = sum(w[k] for k in range(min(i, j) - 1, max(i, j) - 1))
        if i > j:
            v = -v
        if v:
            out[(idx, idx)] = Radical.from_rational(v)
    return out


def test_su2_irrep_shape():
    M = su2_irrep(Fraction(3, 2))
    assert M.dim == 4
    assert M.weights == [(Fraction(3),), (Fraction(1),), (Fraction(-1),), (Fraction(-3),)]
    assert M.weight_diameter == 3
    with pytest.raises(ValueError):
        su2_irrep(Fraction(1, 3))
    with pytest.raises(ValueError):
        su2_irrep(-1)


def test_su2_defining_relations():
    for j in (Fraction(1, 2), 1, Fraction(5, 2)):
        M = su2_irrep(j)
        # [e12, e21] = h1
        assert mat_eq(_commutator(M, (1, 2), (2, 1)), M.matrix(("h", 1)))
        # [h1, e12] = 2 e12
        assert mat_eq(_commutator(M, ("h", 1), (1, 2)), mat_scale(M.matrix((1, 2)), 2))


def test_su2_casimir_scalar():
    for j in (Fraction(1, 2), 1, 2, Fraction(7, 2)):
        M = su2_irrep(j)
        c = Fraction(j) * (Fraction(j) + 1)
        assert mat_eq(casimir_matrix_su2(M), mat_scale(mat_identity(M.dim), c))


def test_su2_lowering_reconstruction():
    # J-^k |j j> = sqrt(k! (2j)!/(2j-k)!) |j, j-k>
    import math

    from extremal.repmod import mat_vec

    j = 2
    M = su2_irrep(j)
    coords = dict(M.basis_vector("m=2").coords)
    low = M.matrix((2, 1))
    for k in range(1, 2 * j + 1):
        coords = mat_vec(low, coords)
        n2 = Fraction(math.factorial(k) * math.factorial(2 * j)) / math.factorial(2 * j - k)
        target = M.basis_vector("m=%d" % (j - k)).scale(sqrt_of_rational(n2))
        assert coords == target.coords


def test_su3_dims_and_weights():
    cases = {(1, 0): 3, (0, 1): 3, (2, 0): 6, (1, 1): 8, (2, 1): 15, (3, 0): 10}
    for (lam, mu), d in cases.items():
        M = su3_irrep(lam, mu)
        assert M.dim == d
        assert M.weights[0] == (Fraction(lam), Fraction(mu))
    with pytest.raises(ValueError):
        su3_irrep(-1, 0)
    with pytest.raises(ValueError):
        su3_irrep(4, 4)


def test_su3_defining_relations():
    for lam, mu in ((1, 0), (0, 1), (2, 0), (1, 1)):
        M = su3_irrep(lam, mu)
        gens = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        for a in gens:
            for b in gens:
                comm = _commutator(M, a, b)
                i, j = a
                k, l = b
                if j == k and i == l:
                    assert mat_eq(comm, _diag_diff(M, i, j)), (a, b)
                else:
                    expect = {}
                    if j == k:
                        expect = dict(M.matrix((i, l)))
                    if i == l:
                        sub = M.matrix((k, j))
                        for key, v in sub.items():
                            expect[key] = expect.get(key, Radical.from_rational(0)) - v
                    expect = {key: v for key, v in expect.items() if v}
                    assert mat_eq(comm, expect), (a, b)


def test_su3_cartan_eigenvalues_match_shifts():
    # [h_k, e_ij] = s_k e_ij with the engine's shift vector
    eng = RewriteEngine(SU3)
    M = su3_irrep(1, 1)
    for g in ((1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)):
        s = eng.shift_vector(g)
        for k in (1, 2):
            comm = _commutator(M, ("h", k), g)
            assert mat_eq(comm, mat_scale(M.matrix(g), s[k - 1])), (g, k)


def test_tensor_module():
    A = su3_irrep(1, 0)
    B = su3_irrep(0, 1)
    T = tensor(A, B)
    assert T.dim == 9
    # weights add componentwise: (1,0) highest + (0,1) highest
    assert T.weights[0] == (Fraction(1), Fraction(1))
    for idx, (ta, tb) in enumerate(T.tags):
        wa = A.weights[A.index(ta)]
        wb = B.weights[B.index(tb)]
        assert T.weights[idx] == (wa[0] + wb[0], wa[1] + wb[1])
    with pytest.raises(ValueError):
        tensor(A, su2_irrep(1))


def test_truncation_guard():
    M = su2_irrep(2)
    x = rewrite_word([(1, 2)], SU2, N=1)
    with pytest.raises(TruncationError):
        apply_element(x, M.basis_vector(0), M)


def test_singular_routing():
    import sympy

    eng = RewriteEngine(SU2)
    M = su2_irrep(1)
    h1 = sympy.Symbol("h1")
    # 1/(h1 + 2) vanishes at the m = -1 component (weight -2, non-dominant)
    x = eng.cartan(1 / (h1 + 2), M.weight_diameter)
    v = M.basis_vector("m=1") + M.basis_vector("m=-1")
    with pytest.raises(SingularWeightError):
        apply_element(x, v, M)
    out = apply_element(x, v, M, singular="zero")
    assert out == M.basis_vector("m=1").scale(Fraction(1, 4))
    # a pole on a dominant component is a real error even under "zero"
    y = eng.cartan(1 / h1, M.weight_diameter)
    with pytest.raises(SingularWeightError):
        apply_element(y, M.basis_vector("m=0"), M, singular="zero")


# -- the Radical Gram-Schmidt construction of su(3) irreps, kept as an oracle


def _su3_irrep_radical(lam, mu):
    """(tags, weights, matrices) of (lam, mu) realized in fund^lam x
    antifund^mu: rational Gram-Schmidt per weight space, Radical orthonormal
    basis vectors, and every generator matrix entry as a Radical dot product."""
    fund = [(1, 0), (-1, 1), (0, -1)]
    gens = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    # (weights, {generator: {(row, col): value}}) of each tensor factor
    components = (
        [(fund, {(i, j): {(i - 1, j - 1): 1} for i, j in gens})] * lam
        + [([(-a, -b) for a, b in fund], {(i, j): {(j - 1, i - 1): -1} for i, j in gens})] * mu
    )
    dims = [3] * len(components)
    total = 3 ** len(components)

    pweights = []
    for idx in range(total):
        w = [Fraction(0), Fraction(0)]
        for pos, (cw, _) in enumerate(components):
            digit = idx // 3 ** (len(components) - 1 - pos) % 3
            w[0] += cw[digit][0]
            w[1] += cw[digit][1]
        pweights.append(tuple(w))

    def pmatrix(g):
        mat = {}
        for pos, (_, cmats) in enumerate(components):
            stride = 3 ** (len(components) - 1 - pos)
            block = dims[pos] * stride
            for (r, c), v in cmats[g].items():
                for hi in range(total // block):
                    for lo in range(stride):
                        rr = hi * block + r * stride + lo
                        cc = hi * block + c * stride + lo
                        mat[(rr, cc)] = mat.get((rr, cc), Fraction(0)) + v
        return {k: v for k, v in mat.items() if v}

    def rat_mat_vec(mat, vec):
        out = {}
        for (r, c), a in mat.items():
            if c in vec:
                out[r] = out.get(r, Fraction(0)) + a * vec[c]
        return {k: v for k, v in out.items() if v}

    by_weight = {}  # weight -> (echelon rows, original vectors in order)

    def insert(vec):
        if not vec:
            return False
        ech, originals = by_weight.setdefault(pweights[next(iter(vec))], ([], []))
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
        ech.append((pivot, {k: v / red[pivot] for k, v in red.items()}))
        originals.append(vec)
        return True

    hi_idx = 0
    for pos in range(len(components)):
        hi_idx = hi_idx * 3 + (0 if pos < lam else 2)
    highest = {hi_idx: Fraction(1)}
    lowering = [pmatrix(g) for g in ((2, 1), (3, 1), (3, 2))]
    insert(highest)
    queue = [highest]
    while queue:
        vec = queue.pop()
        for mat in lowering:
            nxt = rat_mat_vec(mat, vec)
            if insert(nxt):
                queue.append(nxt)

    entries = []
    for w in sorted(by_weight, key=lambda w: (-(w[0] + w[1]), (-w[0], -w[1]))):
        basis = []
        for v in by_weight[w][1]:
            u = dict(v)
            for b, b2 in basis:
                dot = sum(u.get(k, Fraction(0)) * x for k, x in b.items())
                for k, x in b.items():
                    u[k] = u.get(k, Fraction(0)) - dot / b2 * x
            u = {k: x for k, x in u.items() if x}
            basis.append((u, sum(x * x for x in u.values())))
        for u, n2 in basis:
            scale = sqrt_of_rational(1 / n2)
            vec = {k: Radical.from_rational(x) * scale for k, x in u.items()}
            if vec[min(vec)].sign() < 0:
                vec = {k: -x for k, x in vec.items()}
            entries.append((w, vec))

    tags, weights, seen = [], [], {}
    for w, _ in entries:
        tags.append("w=(%s,%s)#%d" % (w[0], w[1], seen.get(w, 0)))
        seen[w] = seen.get(w, 0) + 1
        weights.append(w)

    zero = Radical.from_rational(0)
    mats = {}
    for g in gens:
        pm = pmatrix(g)
        cols = {}
        for b, (_, bv) in enumerate(entries):
            img = {}
            for (r, c), a in pm.items():
                if c in bv:
                    img[r] = img.get(r, zero) + bv[c] * Radical.from_rational(a)
            for a, (_, av) in enumerate(entries):
                dot = zero
                for k, x in img.items():
                    if k in av:
                        dot = dot + x * av[k]
                if dot:
                    cols[(a, b)] = dot
        mats[g] = cols
    return tags, weights, mats


def test_su3_irrep_equals_radical_construction():
    for total in range(1, 5):
        for lam in range(total + 1):
            mu = total - lam
            M = su3_irrep(lam, mu)
            tags, weights, mats = _su3_irrep_radical(lam, mu)
            assert M.tags == tags, (lam, mu)
            assert M.weights == weights, (lam, mu)
            assert M.matrices == mats, (lam, mu)
