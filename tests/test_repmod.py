"""Explicit modules: matrices, defining relations, application of elements."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal.algebra import build_root_system
from extremal.exact import Radical, sqrt_of_rational
from extremal.pbw import RewriteEngine, SingularWeightError, rewrite_word, shared_engine
from extremal.repmod import (
    ModuleVector,
    TruncationError,
    _symmetric_power,
    apply_element,
    frame_of_entries,
    mat_eq,
    mat_mul,
    matrix_of,
    orthogonalize,
    su2_irrep,
    su3_irrep,
    tensor,
)
from extremal.projector import apply_factor, apply_projector, projector_factor
from extremal.su3cgc import coupled_basis, decompose, pair_module
from extremal.su3gt import gt_basis, gt_module
from reference import (
    apply_zeroing,
    casimir_matrix_su2,
    mat_add,
    mat_identity,
    mat_scale,
    reference_apply_element,
    reference_su3_irrep,
    reference_tensor,
)

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


def test_module_vector_refuses_other_types():
    # == with another type is False and arithmetic raises TypeError, not
    # AttributeError
    v = ModuleVector({0: 1})
    for other in (None, 0, "x", {0: 1}):
        assert not v == other and v != other
        assert not other == v and other != v
        with pytest.raises(TypeError):
            v + other
        with pytest.raises(TypeError):
            v - other
    assert v == ModuleVector({0: 1}) and v != ModuleVector({0: 2})


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
    # [h_k, e_ij] = s_k e_ij with the engine's shift of the one-letter word
    eng = RewriteEngine(SU3)
    M = su3_irrep(1, 1)
    for g in ((1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)):
        s = eng.word_shift(((g, 1),))
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


def _su3_labels(top):
    return [(lam, mu) for lam in range(top + 1) for mu in range(top + 1 - lam)]


def test_tensor_writes_the_entries_of_the_accumulating_reference():
    su2 = [su2_irrep(Fraction(d, 2)) for d in range(6)]
    su3 = [su3_irrep(*L) for L in _su3_labels(2)]
    pairs = [(a, b) for group in (su2, su3) for a in group for b in group]
    pairs.append((gt_module(1, 1), gt_module(1, 1)))
    for a, b in pairs:
        T, R = tensor(a, b), reference_tensor(a, b)
        assert (T.tags, T.weights) == (R.tags, R.weights), (a.label, b.label)
        assert T.matrices.keys() == R.matrices.keys()
        for g, m in R.matrices.items():
            assert T.matrices[g].keys() == m.keys(), (a.label, b.label, g)
            assert all(T.matrices[g][k].terms == v.terms for k, v in m.items())


def test_module_weights_are_ints():
    su2 = [su2_irrep(Fraction(d, 2)) for d in range(9)]
    su3 = [f(*L) for L in _su3_labels(6) for f in (su3_irrep, gt_module)]
    modules = su2 + su3
    for group in (su2, su3):
        modules += [tensor(a, b) for a in group for b in group if a.dim * b.dim <= 100]
    for M in modules:
        assert all(type(x) is int for w in M.weights for x in w), M.label
        # the Fraction heights that weight_diameter replaced
        cols = [Fraction(k * (M.n - k), 2) for k in range(1, M.n)]
        hts = [sum(c * x for c, x in zip(cols, w)) for w in M.weights]
        assert M.weight_diameter == int(max(hts) - min(hts)), M.label


def test_truncation_guard():
    M = su2_irrep(2)
    x = rewrite_word([(1, 2)], SU2, N=1)
    with pytest.raises(TruncationError):
        apply_element(x, M.basis_vector(0), M)


def test_singular_routing():
    eng = RewriteEngine(SU2)
    M = su2_irrep(1)
    h1 = sympy.Symbol("h1")
    # 1/(h1 + 2) vanishes at the m = -1 component (weight -2, non-dominant)
    x = eng.cartan(1 / (h1 + 2), M.weight_diameter)
    v = M.basis_vector("m=1") + M.basis_vector("m=-1")
    with pytest.raises(SingularWeightError):
        apply_element(x, v, M)
    out = apply_zeroing(x, v, M)
    assert out == M.basis_vector("m=1").scale(Fraction(1, 4))
    # a pole on a dominant component is a real error even under "zero"
    y = eng.cartan(1 / h1, M.weight_diameter)
    with pytest.raises(SingularWeightError):
        apply_zeroing(y, M.basis_vector("m=0"), M)


@pytest.mark.parametrize("entry", ["to_frame", "apply_factor", "apply_projector", "gt_basis",
                                   "apply_element", "basis_vector"])
def test_an_index_outside_the_module_is_refused(entry):
    # -1 would wrap to the last vector's weight and norm, and dim past them
    M = su3_irrep(1, 1)
    x = rewrite_word([(1, 2)], SU3, N=M.weight_diameter)
    for b in (-1, M.dim):
        v = ModuleVector({0: 1, b: 1})
        calls = {
            "to_frame": lambda: M.to_frame(v),
            "apply_factor": lambda: apply_factor((1, 2), v, M),
            "apply_projector": lambda: apply_projector(SU3, v, M),
            "gt_basis": lambda: gt_basis(M, 1, 1, v),
            "apply_element": lambda: apply_element(x, v, M),
            "basis_vector": lambda: M.basis_vector(b),
        }
        with pytest.raises(ValueError, match=r"basis index %d outside the module of dimension 8$"
                           % b):
            calls[entry]()


# the modules this file builds, small enough to act on by Radical matrices
_ELEMENT_MODULES = (
    lambda: su2_irrep(Fraction(1, 2)),
    lambda: su2_irrep(Fraction(3, 2)),
    lambda: su2_irrep(2),
    lambda: tensor(su2_irrep(Fraction(1, 2)), su2_irrep(1)),
    lambda: su3_irrep(1, 0),
    lambda: su3_irrep(0, 1),
    lambda: su3_irrep(1, 1),
    lambda: su3_irrep(2, 1),
    lambda: gt_module(1, 1),
    lambda: gt_module(2, 0),
    lambda: tensor(su3_irrep(1, 0), su3_irrep(0, 1)),
    lambda: pair_module(1, 0, 1, 0),
)
_ROOTS = st.integers(1, 12).map(lambda k: sqrt_of_rational(Fraction(k, 3)))


@st.composite
def _elements(draw):
    """(x, M): a rewritten word or a projector factor with a bound at or
    above M's weight diameter; words may hold Cartan letters and the
    coefficient 1 / (h_k + c), which has poles on the module's weights."""
    M = draw(st.sampled_from(_ELEMENT_MODULES))()
    n = M.n
    eng = shared_engine(n)
    N = M.weight_diameter + draw(st.integers(0, 2))
    if draw(st.booleans()):
        roots = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        return projector_factor(eng.sys, draw(st.sampled_from(roots)), N, engine=eng), M
    letters = st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
                              + [("h", k) for k in range(1, n)])
    word = draw(st.lists(letters, min_size=3, max_size=8))
    if draw(st.booleans()):
        k, c = draw(st.integers(1, n - 1)), draw(st.integers(-3, 3))
        pole = eng.recip_linear([(tuple(int(i == k) for i in range(1, n)), c)])
        at = draw(st.integers(0, len(word)))
        word = word[:at] + [pole] + word[at:]
    return rewrite_word(word, eng.sys, N=N, engine=eng), M


@settings(max_examples=300, deadline=None)
@given(_elements(), st.data())
def test_apply_element_equals_the_radical_reference(xM, data):
    # sums of square roots in several classes, so the frame holds several
    # parts, on a few coordinates or on all; where one route meets a pole,
    # so must the other
    x, M = xM
    sums = st.lists(_ROOTS, min_size=1, max_size=2).map(lambda rs: sum(rs[1:], rs[0]))
    if data.draw(st.booleans()):
        coords = data.draw(st.dictionaries(st.integers(0, M.dim - 1), sums, max_size=4))
    else:
        coords = dict(enumerate(data.draw(st.lists(sums, min_size=M.dim, max_size=M.dim))))
    v = ModuleVector(coords)
    try:
        want = reference_apply_element(x, v, M)
    except SingularWeightError:
        with pytest.raises(SingularWeightError):
            apply_element(x, v, M)
        return
    assert apply_element(x, v, M) == want


def test_matrix_of_reads_no_radical_matrix():
    M = tensor(su3_irrep(1, 0), su3_irrep(1, 1))  # a fresh module
    x = rewrite_word([(1, 2), (3, 1), ("h", 2), (2, 3)], SU3, N=M.weight_diameter)
    assert matrix_of(x, M)
    assert "matrices" not in vars(M)


_int_vectors = st.dictionaries(st.integers(0, 5), st.integers(-6, 6).filter(bool), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(_int_vectors, min_size=1, max_size=6),
       st.lists(st.integers(1, 7), min_size=6, max_size=6))
def test_orthogonalize_is_a_positive_multiple_of_the_rational_step(vectors, weights):
    # the vectors in order, each reduced against those kept before it, as the
    # su(3) realization and decompose do; the oracle is Gram-Schmidt in
    # Fractions, and the rank of the kept vectors with u decides dependence
    def dot(u, v):
        return sum(x * v[b] * weights[b] for b, x in u.items() if b in v)

    found, rational = [], []
    for u in vectors:
        r = {b: Fraction(x) for b, x in u.items()}
        for w in rational:
            c = dot(r, w) / dot(w, w)
            r = {b: r.get(b, 0) - c * w.get(b, 0) for b in r.keys() | w.keys()}
            r = {b: x for b, x in r.items() if x}
        rows = [[v.get(b, 0) for b in range(6)] for v in rational + [u]]
        independent = sympy.Matrix(rows).rank() == len(rows)
        got = orthogonalize(u, found, dot)
        assert bool(got) == bool(r) == independent
        if not got:
            continue
        assert all(type(x) is int and x for x in got.values())
        assert math.gcd(*got.values()) == 1
        assert all(dot(got, w) == 0 for w, _ in found)
        assert got.keys() == r.keys()
        t = got[min(r)] / r[min(r)]
        assert t > 0 and all(got[b] == t * r[b] for b in r)
        found.append((got, dot(got, got)))
        rational.append(r)


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


# -- the orbit realization and the rational frames

LABELS = [(lam, t - lam) for t in range(7) for lam in range(t + 1)]


def _same_matrices(got, want, where):
    assert got.keys() == want.keys(), where
    for g, m in want.items():
        assert got[g].keys() == m.keys(), (where, g)
        assert all(got[g][k].terms == v.terms for k, v in m.items()), (where, g)


def test_su3_irrep_equals_the_product_space_builder():
    # one coordinate per orbit against one per product basis vector, on
    # every irrep the guard admits
    assert len(LABELS) == 28
    for lam, mu in LABELS:
        M, R = su3_irrep(lam, mu), reference_su3_irrep(lam, mu)
        assert (M.tags, M.weights) == (R.tags, R.weights), (lam, mu)
        _same_matrices(M.matrices, R.matrices, (lam, mu))


def _squarefree_part(n):
    for p in range(2, n + 1):
        while n % (p * p) == 0:
            n //= p * p
    return n


def test_symmetric_powers_equal_the_product_space_builder():
    # Sym^k(V) and Sym^k(V*) over their orbit sums against (k, 0) and (0, k)
    # built on all 3^k product basis vectors: each weight space is one
    # vector, so the bases match by weight, and nu_d is the squarefree part
    # of the number of product basis vectors of d's weight
    digit_weights = ((1, 0), (-1, 1), (0, -1))
    for k in range(5):
        for dual, label in ((False, (k, 0)), (True, (0, k))):
            S, R = _symmetric_power(k, dual=dual), reference_su3_irrep(*label)
            sign = -1 if dual else 1
            count = Counter(tuple(sign * sum(digit_weights[d][i] for d in digits) for i in (0, 1))
                            for digits in itertools.product(range(3), repeat=k))
            assert S.dim == R.dim == len(count), label
            to_R = [R.weights.index(w) for w in S.weights]
            assert sorted(to_R) == list(range(R.dim)), label
            assert S.nu == [_squarefree_part(count[w]) for w in S.weights], label
            moved = {g: {(to_R[r], to_R[c]): v for (r, c), v in m.items()}
                     for g, m in S.matrices.items()}
            _same_matrices(moved, R.matrices, label)


def _squarefree(n):
    return all(n % (p * p) for p in range(2, int(n ** 0.5) + 1))


def _frame_modules():
    su2 = [su2_irrep(Fraction(d, 2)) for d in range(7)]
    su3 = [su3_irrep(*L) for L in LABELS]
    gt = [gt_module(*L) for L in LABELS]
    products = [(a, b) for a in su2 for b in su2]
    products += [(a, b) for group in (su3, gt) for a in group for b in group
                 if a.dim * b.dim <= 64]
    products += [(gt_module(2, 2), gt_module(2, 2)), (su3_irrep(1, 1), gt_module(2, 1))]
    return su2 + su3 + gt, products


def test_frames_are_rational_and_rebuild_the_matrices():
    # nu_b is a positive squarefree int, each q_ab a ratio of ints, and
    # q_ab sqrt(nu_a / nu_b) is the entry of the Radical matrices
    modules, products = _frame_modules()
    for M in modules + [tensor(a, b) for a, b in products]:
        assert len(M.nu) == M.dim, M.label
        assert all(type(n) is int and n > 0 and _squarefree(n) for n in M.nu), M.label
        rebuilt = {}
        for g, (den, cols) in M.frame.items():
            assert type(den) is int and den > 0, (M.label, g)
            mat = rebuilt[g] = {}
            for c, entries in cols.items():
                for r, z in entries:
                    assert type(z) is int and z, (M.label, g)
                    q = Fraction(z, den)
                    mat[(r, c)] = sqrt_of_rational(q * q * M.nu[r] / M.nu[c]) * (1 if q > 0 else -1)
            # e_ji is the transpose of e_ij over the orthonormal basis:
            # q_ba nu_b = q_ab nu_a, in ints over both denominators
            up_den, up_cols = M.frame[g[::-1]]
            down = {(c, r): z * M.nu[r] * up_den for c, entries in cols.items() for r, z in entries}
            up = {(r, c): z * M.nu[r] * den for c, entries in up_cols.items() for r, z in entries}
            assert down == up, (M.label, g)
        _same_matrices(M.matrices, rebuilt, M.label)


def test_frame_of_entries_refuses_an_irrational_entry():
    # the first entry gives nu_1 = 1, and then q = sqrt(2) for the second
    one, two = (1, Fraction(1)), (1, Fraction(2))
    with pytest.raises(RuntimeError, match=r"entry \(1, 0\) of e32 is irrational"):
        frame_of_entries({(2, 1): {(1, 0): one}, (3, 2): {(1, 0): two}}, 2)
    four = (-1, Fraction(4))
    assert frame_of_entries({(2, 1): {(1, 0): one}, (3, 2): {(1, 0): four}}, 2)[0] == [1, 1]


def test_frame_of_entries_refuses_a_vector_no_entry_reaches():
    entry = (1, Fraction(3, 2))
    with pytest.raises(RuntimeError, match="no module entry reaches basis vector 2"):
        frame_of_entries({(2, 1): {(1, 0): entry}}, 3)
    # vector 1 is only a column: the basis order does not lower
    with pytest.raises(RuntimeError, match="no module entry reaches basis vector 1"):
        frame_of_entries({(2, 1): {(0, 1): entry}}, 2)
    assert frame_of_entries({(2, 1): {(1, 0): entry, (2, 1): entry}}, 3)[0] == [1, 6, 1]


def test_tensor_frames_give_the_reference_products():
    _, products = _frame_modules()
    for a, b in products:
        T, R = tensor(a, b), reference_tensor(a, b)
        assert (T.tags, T.weights) == (R.tags, R.weights), (a.label, b.label)
        _same_matrices(T.matrices, R.matrices, (a.label, b.label))


def test_vectors_cross_the_frame_exactly():
    # sums of square roots in several squarefree classes per coordinate
    rng = random.Random(3)
    roots = [sqrt_of_rational(Fraction(rng.randint(1, 40), rng.randint(1, 9))) * rng.choice((1, -1))
             for _ in range(30)]
    modules = (su2_irrep(Fraction(5, 2)), su3_irrep(2, 1), gt_module(2, 1),
               tensor(gt_module(1, 1), su3_irrep(1, 0)))
    for M in modules:
        for _ in range(10):
            idx = rng.sample(range(M.dim), min(5, M.dim))
            v = ModuleVector({b: rng.choice(roots) + rng.choice(roots) for b in idx})
            parts = M.to_frame(v)
            assert all(type(x) is int for _, xs in parts.values() for x in xs.values())
            assert M.from_frame(parts) == v, M.label
        assert M.from_frame(M.to_frame(ModuleVector({}))).is_zero()


@pytest.mark.parametrize("build, args", [
    (su3_irrep, (1, 1)),
    (gt_module, (1, 1)),
    (pair_module, (1, 0, 0, 1)),
    (decompose, (1, 0, 0, 1)),
    (coupled_basis, (1, 0, 0, 1, 1, 1, 1)),
], ids=["su3_irrep", "gt_module", "pair_module", "decompose", "coupled_basis"])
def test_spellings_of_one_su3_label_share_one_cache_entry(build, args):
    build.cache_clear()
    first = build(*args)
    assert build(*map(str, args)) is first and build(Fraction(args[0]), *args[1:]) is first
    info = build.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    build.cache_clear()


def test_raising_matrices_are_built_only_when_read(monkeypatch):
    # su3_irrep reads only the lowering matrices of its product space and of
    # both symmetric powers: the raising transpose runs for the irreps whose
    # frame is read, once each, and for no other module
    from extremal import repmod

    transposed, build = [], repmod.Irrep.frame.func

    def counting(M):
        transposed.append(M.label)
        return build(M)

    lazy = cached_property(counting)
    lazy.__set_name__(repmod.Irrep, "frame")
    monkeypatch.setattr(repmod.Irrep, "frame", lazy)
    su3_irrep.cache_clear()
    try:
        M = su3_irrep(2, 1)
        assert transposed == []
        assert M.frame is M.frame and set(M.frame) == {*M.lowering, (1, 2), (1, 3), (2, 3)}
        assert transposed == [(2, 1)]
    finally:
        su3_irrep.cache_clear()
