"""su(3) Clebsch-Gordan coefficients: decompositions, tensor form, dual routes."""

from fractions import Fraction
from functools import lru_cache

import pytest

from extremal.algebra import build_root_system
from extremal.exact import Radical, sqrt_of_rational
from extremal.projector import apply_projector
from extremal.repmod import ModuleVector, mat_vec, su3_irrep, tensor
from extremal.su3cgc import (
    coupled_vector,
    decompose,
    pair_module,
    projector_matrix_element,
    su3_cgc,
)
from extremal.su3gt import enumerate_gt_labels, gt_lower, gt_module, gt_vector
from reference import apply_tensor_form, build_tensor_form, coeff_A, gt_raise

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
    from extremal.repmod import apply_element

    M = su3_irrep(1, 1)
    tf = build_tensor_form(1, 1, M.weight_diameter)
    v = M.basis_vector(0)  # highest weight (1,1)
    assert apply_element(tf, v, M, singular="zero") == v


def test_tensor_form_builds_every_factor_on_the_given_engine():
    from extremal.pbw import RewriteEngine
    from extremal.repmod import apply_element

    eng = RewriteEngine(SU3, ((2, 3), (1, 3), (1, 2)))
    M = su3_irrep(1, 1)
    tf = build_tensor_form(1, 1, M.weight_diameter, engine=eng)
    assert tf.engine is eng
    v = M.basis_vector(0)  # highest weight (1,1)
    assert apply_element(tf, v, M, singular="zero") == v


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
                    vecs = [coupled_vector(*L1, *L2, *L3, s, g3) for g3 in G3.tags]
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
