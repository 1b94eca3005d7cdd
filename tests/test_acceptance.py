"""Acceptance suite: end-to-end checks of the whole stack, exact arithmetic.

Each test prints one PASS line on success and asserts its runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from extremal.algebra import build_root_system
from extremal.exact import Radical, sqrt_of_rational
from extremal.pbw import RewriteEngine, rewrite_word, shared_engine
from extremal.projector import (
    apply_projector,
    extremal_projector,
    no_go_polynomial_residual,
    projector_factor,
    verify_extremal_identities,
)
from extremal.repmod import (
    apply_element,
    mat_eq,
    mat_mul,
    matrix_of,
    su2_irrep,
    su3_irrep,
    tensor,
)
from extremal.su3cgc import decompose, projector_matrix_element, su3_cgc
from extremal.su3gt import (
    enumerate_gt_labels,
    gt_hypercharge,
    gt_module,
    gt_norm_factor,
    gt_vector,
)
from extremal.wigner2 import cgc_closed, cgc_projector
from reference import mat_rank

SU2 = build_root_system(2)
SU3 = build_root_system(3)
HALF = Fraction(1, 2)
ZERO = Radical.from_rational(0)
ONE = Radical.from_rational(1)


def _spin_range(lo, hi):
    x = Fraction(lo)
    while x <= hi:
        yield x
        x += HALF


def _proj_range(j):
    m = j
    while m >= -j:
        yield m
        m -= 1


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    print("ACCEPTANCE %d: PASS (%s, %.2fs)" % (num, label, elapsed))
    assert elapsed < budget, "criterion %d exceeded %ds budget" % (num, budget)


def test_criterion_1_su2_projector_action():
    t0 = time.monotonic()
    eng = RewriteEngine(SU2)
    P8 = extremal_projector(SU2, N=8, engine=eng)
    for j in _spin_range(0, 4):
        M = su2_irrep(j)
        mat = matrix_of(P8, M, singular="zero")
        assert mat == {(0, 0): ONE}
    for j1 in _spin_range(HALF, 2):
        for j2 in _spin_range(HALF, 2):
            M = tensor(su2_irrep(j1), su2_irrep(j2))
            P = extremal_projector(SU2, N=M.weight_diameter, engine=eng)
            mat = matrix_of(P, M, singular="zero")
            assert mat_eq(mat_mul(mat, mat), mat)
            jp = M.matrix((1, 2))
            jm = M.matrix((2, 1))
            assert not mat_mul(jp, mat)
            assert not mat_mul(mat, jm)
            assert mat_rank(mat, M.dim) == int(2 * min(j1, j2)) + 1
    _report(1, "su(2) projector rank-1 and pair properties", t0, 10)


def test_criterion_2_worked_example():
    t0 = time.monotonic()
    M = tensor(su2_irrep(HALF), su2_irrep(HALF))
    up_down = M.basis_vector(("m=1/2", "m=-1/2"))
    down_up = M.basis_vector(("m=-1/2", "m=1/2"))
    out = apply_projector(SU2, up_down, M)
    assert out == (up_down - down_up).scale(HALF)
    _report(2, "P|ud> = (|ud> - |du>)/2", t0, 10)


def test_criterion_3_su2_cgc_dual_route():
    t0 = time.monotonic()
    checked = 0
    for j1 in _spin_range(0, 2):
        for j2 in _spin_range(0, 2):
            allowed = [abs(j1 - j2) + k for k in range(int(2 * min(j1, j2)) + 1)]
            for j3 in allowed:
                for m3 in _proj_range(j3):
                    for m1 in _proj_range(j1):
                        m2 = m3 - m1
                        if abs(m2) > j2:
                            continue
                        a = cgc_closed(j1, m1, j2, m2, j3, m3)
                        b = cgc_projector(j1, m1, j2, m2, j3, m3)
                        assert a == b, (j1, m1, j2, m2, j3, m3)
                        checked += 1
            # unitarity: rows of the coupling matrix are orthonormal
            for j3 in allowed:
                for j3p in allowed:
                    for m3 in _proj_range(min(j3, j3p)):
                        s = ZERO
                        for m1 in _proj_range(j1):
                            m2 = m3 - m1
                            if abs(m2) > j2:
                                continue
                            s = s + cgc_closed(j1, m1, j2, m2, j3, m3) * cgc_closed(
                                j1, m1, j2, m2, j3p, m3
                            )
                        assert s == (ONE if j3 == j3p else ZERO)
    assert checked >= 500
    _report(3, "%d dual-route keys + orthogonality" % checked, t0, 30)


def test_criterion_4_su3_factor_product():
    t0 = time.monotonic()
    N = 6
    eng = RewriteEngine(SU3)
    h1, h2 = sympy.symbols("h1 h2")
    # explicit per-root factors, written out with their own denominators
    explicit = {
        (1, 2): h1 + 1,
        (1, 3): h1 + h2 + 2,
        (2, 3): h2 + 1,
    }

    def factor(root):
        i, j = root
        base = explicit[root]
        out = eng.zero(N)
        for n in range(N + 1):
            phi = sympy.Integer(1)
            for k in range(1, n + 1):
                phi = phi / (base + k)
            # the series coefficient phi is written to the left of the
            # lowering word
            word = [phi]
            if n:
                word.append(((j, i), n))
                word.append(((i, j), n))
            term = rewrite_word(word, SU3, engine=eng, N=N)
            out = out + term.scale(Fraction((-1) ** n, math.factorial(n)))
        return out

    product = factor((1, 2)) * factor((1, 3)) * factor((2, 3))
    P = extremal_projector(SU3, N=N, engine=eng)
    a, b = product.canonical(), P.canonical()
    assert set(a.terms) == set(b.terms)
    assert len(a.terms) == 256
    for key in a.terms:
        assert not (a.terms[key] - b.terms[key]), key
    # both normal orderings act identically on the (1,1) module
    M = su3_irrep(1, 1)
    for idx in range(M.dim):
        v = M.basis_vector(idx)
        x = apply_projector(SU3, v, M, order=((1, 2), (1, 3), (2, 3)))
        y = apply_projector(SU3, v, M, order=((2, 3), (1, 3), (1, 2)))
        assert x == y
    _report(4, "256 monomials match, orderings agree on (1,1)", t0, 60)


def test_criterion_5_symbolic_identities():
    t0 = time.monotonic()
    eng2 = RewriteEngine(SU2)
    P2 = extremal_projector(SU2, N=6, engine=eng2)
    assert verify_extremal_identities(P2, SU2, 6, engine=eng2).ok
    eng3 = RewriteEngine(SU3)
    P3 = extremal_projector(SU3, N=4, engine=eng3)
    assert verify_extremal_identities(P3, SU3, 4, engine=eng3).ok
    # no-go control: the denominator-cleared polynomial cannot be annihilated
    assert no_go_polynomial_residual(SU2, 3).terms
    _report(5, "su(2) N=6 and su(3) N=4 identities + no-go control", t0, 120)


def test_criterion_6_gt_bases():
    t0 = time.monotonic()
    for lam, mu in ((1, 0), (0, 1), (2, 0), (1, 1), (2, 1)):
        labels = enumerate_gt_labels(lam, mu)
        dim = (lam + 1) * (mu + 1) * (lam + mu + 2) // 2
        assert len(labels) == dim
        M = su3_irrep(lam, mu)
        vecs = [gt_vector(lam, mu, lab) for lab in labels]
        for a in range(dim):
            for b in range(a, dim):
                assert vecs[a].inner(vecs[b]) == (ONE if a == b else ZERO)
        # closed-form normalization against the module norm oracle
        mu2 = Fraction(mu, 2)
        from extremal.repmod import ModuleVector, mat_vec

        for j, t, tz in labels:
            if tz != t:
                continue
            coords = {0: ONE}
            for _ in range(int(j - mu2 + t)):
                coords = mat_vec(M.matrix((2, 1)), coords)
            for _ in range(int(j + mu2 - t)):
                coords = mat_vec(M.matrix((3, 1)), coords)
            pt = projector_factor(SU3, (2, 3), M.weight_diameter, engine=shared_engine(3))
            u = apply_element(pt, ModuleVector(coords), M, singular="zero")
            n = gt_norm_factor(lam, mu, j, t)
            assert n * n * u.norm2() == ONE, (lam, mu, j, t)
        # derived GT matrices satisfy the commutation relations ...
        G = gt_module(lam, mu)
        gt_labels, mats = G.tags, G.matrices

        def diag(values):
            return {
                (k, k): Radical.from_rational(v)
                for k, v in enumerate(values) if v
            }

        h1d, h2d = [], []
        for j, t, tz in gt_labels:
            y = gt_hypercharge(lam, mu, j)
            h1d.append(Fraction(-3 * y - 2 * tz, 2))
            h2d.append(2 * tz)
        cartan = {(1, 2): diag(h1d), (2, 3): diag(h2d),
                  (1, 3): diag([a + b for a, b in zip(h1d, h2d)])}
        gens = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        for ga in gens:
            for gb in gens:
                comm = {}
                for (r, c), v in mat_mul(mats[ga], mats[gb]).items():
                    comm[(r, c)] = v
                for (r, c), v in mat_mul(mats[gb], mats[ga]).items():
                    comm[(r, c)] = comm.get((r, c), ZERO) - v
                comm = {k: v for k, v in comm.items() if v}
                i, j = ga
                k, l = gb
                expect = {}
                if (j, i) == (k, l):
                    lo, hi = min(i, j), max(i, j)
                    expect = dict(cartan[(lo, hi)])
                    if i > j:
                        expect = {kk: -v for kk, v in expect.items()}
                else:
                    if j == k:
                        expect = dict(mats[(i, l)])
                    if i == l:
                        for kk, v in mats[(k, j)].items():
                            expect[kk] = expect.get(kk, ZERO) - v
                    expect = {kk: v for kk, v in expect.items() if v}
                assert mat_eq(comm, expect), (lam, mu, ga, gb)
        # ... and the T-spin ladder acts with the standard su(2) elements
        idx = {lab: k for k, lab in enumerate(gt_labels)}
        for j, t, tz in gt_labels:
            c = idx[(j, t, tz)]
            if tz < t:
                assert mats[(2, 3)][(idx[(j, t, tz + 1)], c)] == sqrt_of_rational(
                    (t - tz) * (t + tz + 1)
                )
            if tz > -t:
                assert mats[(3, 2)][(idx[(j, t, tz - 1)], c)] == sqrt_of_rational(
                    (t + tz) * (t - tz + 1)
                )
    _report(6, "labels, Gram, norms, commutators for 5 irreps", t0, 60)


def _compatible_triples(L1, L2, L3):
    """Bra/ket label triples (g1, g2, g3) passing the weight selection rules."""
    (lam1, mu1), (lam2, mu2), (lam3, mu3) = L1, L2, L3
    delta = Fraction((2 * lam1 + mu1) + (2 * lam2 + mu2) - (2 * lam3 + mu3), 6)
    out = []
    for g3 in enumerate_gt_labels(lam3, mu3):
        for g1 in enumerate_gt_labels(lam1, mu1):
            for g2 in enumerate_gt_labels(lam2, mu2):
                if g1[0] + g2[0] - g3[0] != delta:
                    continue
                if g1[2] + g2[2] != g3[2]:
                    continue
                if not abs(g1[1] - g2[1]) <= g3[1] <= g1[1] + g2[1]:
                    continue
                out.append((g1, g2, g3))
    return out


def _check_dual_route(L1, L2, L3, pairs):
    nonzero = 0
    for (g1, g2, g3), (g1p, g2p, g3p) in pairs:
        a = projector_matrix_element(
            L1, g1, L2, g2, L3, g3, g3p, g1p, g2p, route="direct"
        )
        b = projector_matrix_element(
            L1, g1, L2, g2, L3, g3, g3p, g1p, g2p, route="formula"
        )
        assert a == b, (L1, L2, L3, g1, g2, g3, g3p, g1p, g2p)
        if a:
            nonzero += 1
    return nonzero


def test_criterion_7_su3_cgc():
    t0 = time.monotonic()
    # decomposition of 3 x 3bar with orthonormal coupled bases
    found = decompose(1, 0, 0, 1)
    assert sorted(found) == [(0, 0), (1, 1)]
    Mt = tensor(su3_irrep(1, 0), su3_irrep(0, 1))
    labels1 = enumerate_gt_labels(1, 0)
    labels2 = enumerate_gt_labels(0, 1)

    def coupled(l3, m3, g3):
        M1, M2 = su3_irrep(1, 0), su3_irrep(0, 1)
        v = None
        for g1 in labels1:
            for g2 in labels2:
                c = su3_cgc(1, 0, g1, 0, 1, g2, l3, m3, g3)
                if not c:
                    continue
                w = gt_vector(1, 0, g1)
                u = gt_vector(0, 1, g2)
                coords = {}
                for a, ca in w.coords.items():
                    for b, cb in u.coords.items():
                        coords[a * M2.dim + b] = ca * cb
                from extremal.repmod import ModuleVector

                term = ModuleVector(coords).scale(c)
                v = term if v is None else v + term
        return v

    octet = {g3: coupled(1, 1, g3) for g3 in enumerate_gt_labels(1, 1)}
    singlet = coupled(0, 0, (0, 0, 0))
    # orthonormality of the full coupled basis
    all_vecs = list(octet.values()) + [singlet]
    for a in range(len(all_vecs)):
        for b in range(a, len(all_vecs)):
            assert all_vecs[a].inner(all_vecs[b]) == (ONE if a == b else ZERO)
    # equivariance: generators act on the coupled octet with the GT matrices
    G = gt_module(1, 1)
    gt_labels, mats = G.tags, G.matrices
    idx = {lab: k for k, lab in enumerate(gt_labels)}
    from extremal.repmod import ModuleVector, mat_vec

    for g in ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)):
        for g3, v in octet.items():
            img = ModuleVector(mat_vec(Mt.matrix(g), v.coords))
            expect = ModuleVector({})
            for (r, c), coef in mats[g].items():
                if c == idx[g3]:
                    expect = expect + octet[gt_labels[r]].scale(coef)
            assert img == expect, (g, g3)
        # the singlet is annihilated by every generator
        assert ModuleVector(mat_vec(Mt.matrix(g), singlet.coords)).is_zero()
    # singlet magnitudes and the stretched coefficient
    mag = sqrt_of_rational(Fraction(1, 3))
    for g1 in labels1:
        for g2 in labels2:
            c = su3_cgc(1, 0, g1, 0, 1, g2, 0, 0, (0, 0, 0))
            assert c == ZERO or c == mag or c == -mag
    top = (Fraction(0), HALF, HALF)
    assert su3_cgc(1, 0, (0, 0, 0), 0, 1, top, 1, 1, top) == ONE

    # dual-route equality
    total_nonzero = 0
    # full sweep on 3 x 3bar
    for L3 in ((1, 1), (0, 0)):
        triples = _compatible_triples((1, 0), (0, 1), L3)
        pairs = [(bra, ket) for bra in triples for ket in triples]
        total_nonzero += _check_dual_route((1, 0), (0, 1), L3, pairs)
    # full sweep on 3 x 3
    for L3 in ((2, 0), (0, 1)):
        triples = _compatible_triples((1, 0), (1, 0), L3)
        pairs = [(bra, ket) for bra in triples for ket in triples]
        total_nonzero += _check_dual_route((1, 0), (1, 0), L3, pairs)
    # deterministic sample on 8 x 3
    rng = random.Random(20250825)
    for L3 in ((2, 1), (0, 2), (1, 0)):
        triples = _compatible_triples((1, 1), (1, 0), L3)
        pairs = [(bra, ket) for bra in triples for ket in triples]
        if len(pairs) > 140:
            pairs = rng.sample(pairs, 140)
        total_nonzero += _check_dual_route((1, 1), (1, 0), L3, pairs)
    assert total_nonzero > 0
    _report(7, "coupled bases + dual routes, %d nonzero" % total_nonzero, t0, 300)


def test_criterion_8_engine_soundness():
    t0 = time.monotonic()
    M = su3_irrep(1, 1)
    eng = RewriteEngine(SU3)
    letters = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    letters += [("h", 1), ("h", 2)]
    rng = random.Random(12345)
    for _ in range(500):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
        x = rewrite_word(word, SU3, engine=eng, N=M.weight_diameter)
        lhs = matrix_of(x, M)
        prod = None
        for g in word:
            m = M.matrix(g)
            prod = m if prod is None else mat_mul(prod, m)
        assert mat_eq(lhs, prod), word
    _report(8, "500 random words match raw matrix products", t0, 60)
