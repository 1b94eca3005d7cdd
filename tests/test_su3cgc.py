"""su(3) Clebsch-Gordan coefficients: decompositions, tensor form, dual routes."""

import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest

from extremal.algebra import build_root_system
from extremal.exact import Radical, sqrt_of_rational
from extremal.projector import apply_projector
from extremal.repmod import ModuleVector, mat_vec, su2_irrep, su3_irrep, tensor
from extremal.su3cgc import (
    coupled_basis,
    decompose,
    pair_module,
    projector_matrix_element,
    su3_cgc,
)
from extremal.su3gt import enumerate_gt_labels, gt_label_index, gt_module, gt_vector
from reference import (
    apply_tensor_form,
    apply_zeroing,
    build_tensor_form,
    coeff_A,
    gt_lower,
    gt_raise,
)

SU3 = build_root_system(3)
HALF = Fraction(1, 2)


def _rat(q):
    return Radical.from_rational(Fraction(q))


def _highest(lam, mu):
    return (Fraction(0), Fraction(mu, 2), Fraction(mu, 2))


def test_decompositions():
    cases = {
        (1, 0, 0, 1): {(1, 1): 1, (0, 0): 1},
        (1, 0, 1, 0): {(2, 0): 1, (0, 1): 1},
        (1, 1, 1, 0): {(2, 1): 1, (0, 2): 1, (1, 0): 1},
        (1, 1, 1, 1): {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1},
    }
    for (l1, m1, l2, m2), expect in cases.items():
        found = decompose(l1, m1, l2, m2)
        assert {k: len(v) for k, v in found.items()} == expect


def test_coupled_highest_vectors_orthonormal():
    found = decompose(1, 1, 1, 1)
    u, v = found[(1, 1)]
    assert u.norm2() == _rat(1)
    assert v.norm2() == _rat(1)
    assert not u.inner(v)


def test_singlet_coefficients():
    # the singlet in 3 x 3bar has all coefficients of modulus sqrt(3)/3
    target = sqrt_of_rational(Fraction(1, 3))
    labels1 = enumerate_gt_labels(1, 0)
    labels2 = enumerate_gt_labels(0, 1)
    g3 = _highest(0, 0)
    nonzero = []
    for g1 in labels1:
        for g2 in labels2:
            c = su3_cgc(1, 0, g1, 0, 1, g2, 0, 0, g3)
            if c:
                assert c == target or c == -target, (g1, g2, c)
                nonzero.append(c)
    assert len(nonzero) == 3


def test_stretched_coefficient_is_one():
    cases = [
        ((1, 0), (0, 1), (1, 1)),
        ((1, 0), (1, 0), (2, 0)),
        ((1, 1), (1, 0), (2, 1)),
    ]
    for (l1, m1), (l2, m2), (l3, m3) in cases:
        c = su3_cgc(
            l1, m1, _highest(l1, m1),
            l2, m2, _highest(l2, m2),
            l3, m3, _highest(l3, m3),
        )
        assert c == _rat(1)


def test_cgc_unitarity_rows():
    # for fixed (g1, g2) the squares over all (L3, s, g3) sum to 1
    found = decompose(1, 0, 0, 1)
    labels1 = enumerate_gt_labels(1, 0)
    labels2 = enumerate_gt_labels(0, 1)
    for g1 in labels1:
        for g2 in labels2:
            total = _rat(0)
            for (l3, m3), copies in found.items():
                for s in range(1, len(copies) + 1):
                    for g3 in enumerate_gt_labels(l3, m3):
                        c = su3_cgc(1, 0, g1, 0, 1, g2, l3, m3, g3, s=s)
                        total = total + c * c
            assert total == _rat(1), (g1, g2)


def test_string_labels_give_the_values_of_int_labels():
    # the target (4, 4) of (2, 2) x (2, 2) is past the guard of the factors
    g1, g2 = (0, 0, 0), (HALF, 0, 0)
    assert su3_cgc("1", "0", g1, "0", "1", g2, "0", "0", (0, 0, 0)) == su3_cgc(
        1, 0, g1, 0, 1, g2, 0, 0, (0, 0, 0))
    assert coupled_basis("1", "1", "1", "1", "1", "1", "2") == coupled_basis(1, 1, 1, 1, 1, 1, 2)
    top = _highest(4, 4)
    assert su3_cgc(2, 2, _highest(2, 2), 2, 2, _highest(2, 2), "4", "4", top) == _rat(1)
    with pytest.raises(ValueError, match="not an integer"):
        coupled_basis(1, 0, 0, 1, "1.5", 1, 1)


def test_multiplicity_index_validation():
    with pytest.raises(ValueError):
        su3_cgc(1, 0, _highest(1, 0), 0, 1, _highest(0, 1), 2, 0,
                _highest(2, 0))


def test_coeff_A_at_zero():
    for lam, mu in ((0, 0), (1, 0), (2, 1), (1, 1)):
        assert coeff_A(lam, mu, 0, 0) == 1
    with pytest.raises(ValueError):
        coeff_A(1, 1, HALF, 1)


def test_tensor_form_matches_projector():
    # on every dominant weight space of 3 x 3bar the weight-evaluated tensor
    # form acts exactly like the factorized extremal projector
    M = tensor(su3_irrep(1, 0), su3_irrep(0, 1))
    for lam, mu in ((1, 1), (0, 0)):
        target = (Fraction(lam), Fraction(mu))
        for idx, w in enumerate(M.weights):
            if w != target:
                continue
            v = M.basis_vector(idx)
            assert apply_tensor_form(lam, mu, v, M) == apply_projector(
                SU3, v, M
            ), (lam, mu, idx)


def test_build_tensor_form_is_expanded_product():
    # the expanded element matches sequential application where it is regular
    M = su3_irrep(1, 1)
    tf = build_tensor_form(1, 1, M.weight_diameter)
    v = M.basis_vector(0)  # highest weight (1,1)
    assert apply_zeroing(tf, v, M) == v


def test_tensor_form_builds_every_factor_on_the_given_engine():
    from extremal.pbw import RewriteEngine

    eng = RewriteEngine(SU3, ((2, 3), (1, 3), (1, 2)))
    M = su3_irrep(1, 1)
    tf = build_tensor_form(1, 1, M.weight_diameter, engine=eng)
    assert tf.engine is eng
    v = M.basis_vector(0)  # highest weight (1,1)
    assert apply_zeroing(tf, v, M) == v


@pytest.mark.parametrize("bad", ["g3", "g3p"])
def test_direct_route_refuses_an_inadmissible_label(bad):
    # also when L3 = (2, 0) does not occur in 3 x 3bar, where the element is 0
    g1, g2 = (0, 0, 0), (HALF, 0, 0)
    for L3 in ((2, 0), (1, 1)):
        g3 = g3p = _highest(*L3)
        if bad == "g3":
            g3 = (5, 0, 0)
        else:
            g3p = (5, 0, 0)
        with pytest.raises(ValueError, match=r"\(j, t\) = \(5, 0\)"):
            projector_matrix_element((1, 0), g1, (0, 1), g2, L3, g3, g3p, g1, g2)


@pytest.mark.parametrize(
    "slot, bad, message",
    [
        pytest.param(2, (0, HALF, 3 * HALF), "inadmissible GT label", id="tz0"),
        pytest.param(2, (0, HALF, -3 * HALF), "inadmissible GT label", id="tz1"),
        pytest.param(0, (0, 0, 1), "inadmissible GT label", id="g1-tz"),
        pytest.param(0, (5, 0, 0), r"\(j, t\) = \(5, 0\)", id="g1-jt"),
        pytest.param(1, (HALF, 0, 3 * HALF), "inadmissible GT label", id="g2-tz"),
        pytest.param(1, (5, 0, 0), r"\(j, t\) = \(5, 0\)", id="g2-jt"),
    ],
)
def test_a_projection_outside_the_t_spin_is_refused(slot, bad, message):
    # t_z = +-(t + 1) in g3: unchecked, one reads 0 and the other hits a
    # factorial pole; a bad g1 or g2 is named like a bad g3, and so is an
    # inadmissible (j, t) there
    labels = [(0, 0, 0), (HALF, 0, 0), (0, HALF, HALF)]
    labels[slot] = bad
    g1, g2, g3 = labels
    with pytest.raises(ValueError, match=message):
        su3_cgc(1, 0, g1, 0, 1, g2, 1, 1, g3)
    if slot == 2:
        with pytest.raises(ValueError, match=message):
            gt_label_index(1, 1, g3)


@pytest.mark.parametrize("route", ["direct", "formula"])
@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("bad", [(5, 0, 0), (0, HALF, 3 * HALF)])
@pytest.mark.parametrize("L3", [(2, 0), (1, 1)])
def test_both_routes_refuse_the_same_labels(route, slot, bad, L3):
    # on 3 x 3bar, where (2, 0) does not occur: an unchecked formula route
    # reads 0 there, and for any g3
    labels = [(0, 0, 0), (HALF, 0, 0), _highest(*L3), _highest(*L3), (0, 0, 0), (HALF, 0, 0)]
    labels[slot] = bad
    g1, g2, g3, g3p, g1p, g2p = labels
    with pytest.raises(ValueError, match="inadmissible"):
        projector_matrix_element((1, 0), g1, (0, 1), g2, L3, g3, g3p, g1p, g2p, route=route)


@pytest.mark.parametrize("route", ["direct", "formula"])
@pytest.mark.parametrize("L1", [(1.0, 0), ("1", "0"), (Fraction(1), 0)])
def test_both_routes_parse_integral_irrep_labels(route, L1):
    args = ((0, 0, 0), (0, 1), (HALF, 0, 0), (0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
            (HALF, 0, 0))
    want = projector_matrix_element((1, 0), *args, route=route)
    assert want and projector_matrix_element(L1, *args, route=route) == want
    with pytest.raises(ValueError, match="not an integer"):
        projector_matrix_element((1.5, 0), *args, route=route)


@pytest.mark.parametrize("slot", range(3))
def test_direct_route_checks_the_guard_before_enumerating_labels(monkeypatch, slot):
    # the labels of (60, 60) would fill a 226,981-label record first
    from extremal import su3gt

    def refuse(lam, mu):
        raise AssertionError("labels of (%d, %d) enumerated" % (lam, mu))

    monkeypatch.setattr(su3gt, "_gt_index", refuse)
    irreps = [(1, 0), (0, 1), (1, 1)]
    irreps[slot] = (60, 60)
    L1, L2, L3 = irreps
    g = (0, 0, 0)
    with pytest.raises(ValueError, match=r"desk-scale guard: lam \+ mu <= 6"):
        projector_matrix_element(L1, g, L2, g, L3, g, g, g, g, route="direct")


def test_dual_route_singlet_block():
    L1, L2, L3 = (1, 0), (0, 1), (0, 0)
    labels1 = enumerate_gt_labels(*L1)
    labels2 = enumerate_gt_labels(*L2)
    g3 = _highest(0, 0)
    for g1 in labels1:
        for g2 in labels2:
            for g1p in labels1:
                for g2p in labels2:
                    a = projector_matrix_element(
                        L1, g1, L2, g2, L3, g3, g3, g1p, g2p, route="direct"
                    )
                    b = projector_matrix_element(
                        L1, g1, L2, g2, L3, g3, g3, g1p, g2p, route="formula"
                    )
                    assert a == b, (g1, g2, g1p, g2p)


def test_dual_route_octet_slice():
    L1, L2, L3 = (1, 0), (0, 1), (1, 1)
    labels1 = enumerate_gt_labels(*L1)
    labels2 = enumerate_gt_labels(*L2)
    g3 = (HALF, Fraction(0), Fraction(0))
    g3p = (Fraction(1), HALF, HALF)
    seen_nonzero = 0
    for g1 in labels1:
        for g2 in labels2:
            for g1p in labels1:
                for g2p in labels2:
                    a = projector_matrix_element(
                        L1, g1, L2, g2, L3, g3, g3p, g1p, g2p, route="direct"
                    )
                    b = projector_matrix_element(
                        L1, g1, L2, g2, L3, g3, g3p, g1p, g2p, route="formula"
                    )
                    assert a == b, (g1, g2, g1p, g2p)
                    if a:
                        seen_nonzero += 1
    assert seen_nonzero > 0


# -- the realized-basis route, kept as a reference ----------------------
#
# The product of the realized modules su3_irrep(L1) x su3_irrep(L2); a GT
# product vector |g1> x |g2> is embedded there from the two GT vectors, and
# a CGC is its inner product with the coupled vector.


def _factors(total):
    """Every (lam, mu) with lam + mu <= total."""
    return [(lam, mu) for lam in range(total + 1) for mu in range(total + 1 - lam)]


@lru_cache(maxsize=None)
def _ref_pair_module(lam1, mu1, lam2, mu2):
    M1 = su3_irrep(lam1, mu1)
    M2 = su3_irrep(lam2, mu2)
    return M1, M2, tensor(M1, M2)


def _embed(v1, v2, d2):
    return ModuleVector({i1 * d2 + i2: c1 * c2
                         for i1, c1 in v1.coords.items()
                         for i2, c2 in v2.coords.items()})


@lru_cache(maxsize=None)
def _ref_product_vector(L1, g1, L2, g2):
    M2 = _ref_pair_module(*L1, *L2)[1]
    return _embed(gt_vector(*L1, g1), gt_vector(*L2, g2), M2.dim)


@lru_cache(maxsize=None)
def _ref_decompose(lam1, mu1, lam2, mu2):
    M1, M2, Mt = _ref_pair_module(lam1, mu1, lam2, mu2)
    found = {}
    for g2 in enumerate_gt_labels(lam2, mu2):
        v2 = gt_vector(lam2, mu2, g2)
        w2 = M2.weights[next(iter(v2.coords))]
        w3 = (lam1 + w2[0], mu1 + w2[1])
        if w3[0] < 0 or w3[1] < 0:
            continue
        hv = apply_projector(SU3, _embed(M1.basis_vector(0), v2, M2.dim), Mt)
        if hv.is_zero():
            continue
        basis = found.setdefault((int(w3[0]), int(w3[1])), [])
        red = hv
        for u in basis:
            red = red - u.scale(u.inner(hv))
        if red.is_zero():
            continue
        basis.append(red.scale(sqrt_of_rational(1 / red.norm2().to_rational())))
    return found


def _ref_pme_column(L1, L2, L3, g3, g3p, g1p, g2p):
    """P^{L3}_{g3, g3'} |g1' g2'> in the realized product."""
    Mt = _ref_pair_module(*L1, *L2)[2]
    v = gt_raise(Mt, *L3, g3p, _ref_product_vector(L1, g1p, L2, g2p))
    target = (Fraction(L3[0]), Fraction(L3[1]))
    v = ModuleVector({i: c for i, c in v.coords.items() if Mt.weights[i] == target})
    return gt_lower(Mt, *L3, g3, apply_projector(SU3, v, Mt))


def test_first_gt_vector_is_the_realized_highest_vector():
    # the seeds |L1 h> x |L2 g2> of both routes agree only through this
    for lam, mu in _factors(6):
        first = enumerate_gt_labels(lam, mu)[0]
        assert gt_vector(lam, mu, first) == su3_irrep(lam, mu).basis_vector(0)


@pytest.mark.parametrize(
    "L1, L2",
    [(L1, L2) for L1 in _factors(4) for L2 in _factors(4 - sum(L1))],
    ids=lambda L: "%d%d" % L,
)
def test_cgcs_match_the_realized_route(L1, L2):
    found = decompose(*L1, *L2)
    ref = _ref_decompose(*L1, *L2)
    assert {k: len(v) for k, v in found.items()} == {k: len(v) for k, v in ref.items()}
    Mt = _ref_pair_module(*L1, *L2)[2]
    labels1 = enumerate_gt_labels(*L1)
    labels2 = enumerate_gt_labels(*L2)
    products = [(g1, g2, _ref_product_vector(L1, g1, L2, g2))
                for g1 in labels1 for g2 in labels2]
    for L3, copies in ref.items():
        for s, hv in enumerate(copies, 1):
            for g3 in enumerate_gt_labels(*L3):
                coupled = gt_lower(Mt, *L3, g3, hv)
                for g1, g2, u in products:
                    assert su3_cgc(*L1, g1, *L2, g2, *L3, g3, s=s) == coupled.inner(u), (
                        L3, s, g3, g1, g2)


@pytest.mark.parametrize(
    "L1, L2",
    [(L1, L2) for L1 in _factors(4) for L2 in _factors(4 - sum(L1))],
    ids=lambda L: "%d%d" % L,
)
def test_direct_projector_matrix_elements_match_the_realized_route(L1, L2):
    # every element <g1 g2| P^{L3}_{g3, g3} |g1' g2'> whose two product
    # vectors share the weight of g3
    G1, G2 = gt_module(*L1), gt_module(*L2)
    by_weight = {}
    for i1, g1 in enumerate(G1.tags):
        for i2, g2 in enumerate(G2.tags):
            w = tuple(a + b for a, b in zip(G1.weights[i1], G2.weights[i2]))
            by_weight.setdefault(w, []).append((g1, g2))
    for L3 in decompose(*L1, *L2):
        G3 = gt_module(*L3)
        for g3, w in zip(G3.tags, G3.weights):
            pairs = by_weight[w]
            for g1p, g2p in pairs:
                column = _ref_pme_column(L1, L2, L3, g3, g3, g1p, g2p)
                for g1, g2 in pairs:
                    args = (L1, g1, L2, g2, L3, g3, g3, g1p, g2p)
                    assert projector_matrix_element(*args, route="direct") == (
                        column.inner(_ref_product_vector(L1, g1, L2, g2))), args


def test_coupling_builds_no_realized_module(capsys):
    # the GT modules come from the closed formulas: a cgc-su3 table and a
    # direct projector matrix element never realize an irrep
    from extremal import cli, repmod, su3cgc, su3gt

    caches = (repmod.su3_irrep, su3gt._gt_basis, su3gt.gt_module, su3cgc.pair_module,
              su3cgc.decompose, su3cgc.coupled_basis)
    for cache in caches:
        cache.cache_clear()
    assert cli.main(["cgc-su3", "--lam1", "1", "--mu1", "1", "--lam2", "1",
                     "--mu2", "0"]) == 0
    capsys.readouterr()
    assert projector_matrix_element(
        (1, 0), (0, 0, 0), (0, 1), (HALF, 0, 0), (0, 0), (0, 0, 0), (0, 0, 0),
        (0, 0, 0), (HALF, 0, 0), route="direct")
    assert repmod.su3_irrep.cache_info().misses == 0
    assert su3gt._gt_basis.cache_info().misses == 0


def test_coupled_vectors_are_unitary_and_equivariant():
    # over every ordered pair of factors with lam + mu <= 2, the coupled
    # vectors form an orthonormal basis of the product, and e_ij acts on
    # them with the GT matrices of their irrep
    for L1 in _factors(2):
        for L2 in _factors(2):
            Mt = pair_module(*L1, *L2)
            basis = []
            for L3, copies in decompose(*L1, *L2).items():
                G3 = gt_module(*L3)
                for s in range(1, len(copies) + 1):
                    vecs = coupled_basis(*L1, *L2, *L3, s)
                    for g, mat in G3.matrices.items():
                        expect = [ModuleVector({}) for _ in vecs]
                        for (r, c), coef in mat.items():
                            expect[c] = expect[c] + vecs[r].scale(coef)
                        for c, v in enumerate(vecs):
                            img = ModuleVector(mat_vec(Mt.matrix(g), v.coords))
                            assert img == expect[c], (L1, L2, L3, s, g, c)
                    basis.extend(vecs)
            assert len(basis) == Mt.dim
            for a, u in enumerate(basis):
                for b in range(a, len(basis)):
                    assert u.inner(basis[b]) == _rat(1 if a == b else 0), (L1, L2, a, b)


# the sha1 of the modules, every GT vector and every coupled vector with
# lam1 + mu1 + lam2 + mu2 <= 4; no frame, basis or coupled vector may move
MODULES_AND_BASES_SHA1 = "cf82f678c8706ffc5498d176e0ff9e71ecfb8d8f"


def _vector_items(v):
    return sorted((b, str(c)) for b, c in v.coords.items())


def test_modules_and_bases_unchanged():
    h = hashlib.sha1()

    def add(*item):
        h.update(("%r\n" % (item,)).encode())

    def module(label, M):
        mats = sorted((g, sorted((k, str(c)) for k, c in m.items()))
                      for g, m in M.matrices.items())
        add(label, M.tags, M.weights, M.nu, mats)

    for d in range(13):
        module(("su2", d), su2_irrep(Fraction(d, 2)))
    for L in _factors(6):
        module(("su3", L), su3_irrep(*L))
        module(("gt", L), gt_module(*L))
    module("1/2 x 1", tensor(su2_irrep(HALF), su2_irrep(1)))
    module("(1,0) x (0,1)", tensor(su3_irrep(1, 0), su3_irrep(0, 1)))
    module("gt (1,1) x (1,0)", tensor(gt_module(1, 1), gt_module(1, 0)))
    for L in _factors(6):
        for g in enumerate_gt_labels(*L):
            add(L, g, _vector_items(gt_vector(*L, g)))
    count = 0
    for L1 in _factors(4):
        for L2 in _factors(4 - sum(L1)):
            for L3, copies in sorted(decompose(*L1, *L2).items()):
                for s in range(1, len(copies) + 1):
                    for v in coupled_basis(*L1, *L2, *L3, s):
                        add(L1, L2, L3, s, _vector_items(v))
                        count += 1
    assert count == 1639
    assert h.hexdigest() == MODULES_AND_BASES_SHA1
