"""su(3) Clebsch-Gordan coefficients: decompositions, tensor form, dual routes."""

from fractions import Fraction

import pytest

from extremal.algebra import build_root_system
from extremal.exact import Radical, sqrt_of_rational
from extremal.projector import apply_projector
from extremal.repmod import su3_irrep, tensor
from extremal.su3cgc import (
    apply_tensor_form,
    build_tensor_form,
    coeff_A,
    coeff_B,
    decompose,
    projector_matrix_element,
    su3_cgc,
)
from extremal.su3gt import enumerate_gt_labels

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


def test_coeff_B_triangle_zeros():
    # t'' outside the triangle with (t, mu/2) forces a vanishing 6j
    assert not coeff_B(1, 1, 0, HALF, 0, HALF, 0, Fraction(5, 2))


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
