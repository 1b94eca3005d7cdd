"""Projector factors, sequential application, and the defining identities."""

from fractions import Fraction

import pytest
import sympy

from extremal.algebra import build_root_system
from extremal.pbw import RewriteEngine, rewrite_word
from extremal.projector import (
    apply_projector,
    extremal_projector,
    no_go_polynomial_residual,
    projector_factor,
    projector_factors,
    verify_extremal_identities,
)
from extremal.repmod import (
    apply_element,
    matrix_of,
    mat_eq,
    mat_mul,
    mat_rank,
    su2_irrep,
    su3_irrep,
    tensor,
)

SU2 = build_root_system(2)
SU3 = build_root_system(3)


def test_factor_structure_su2():
    f = projector_factor(SU2, (1, 2), 3).series
    # terms n = 0..3: e21^n * coeff * e12^n
    assert len(f.terms) == 4
    c0 = f.terms[((), ())]
    assert c0.evaluate([5]) == 1
    c1 = f.terms[((((2, 1), 1),), (((1, 2), 1),))]
    # -1/(h1 + 1 + 1) shifted by the lowering letter: -1/(h1 + 2 - 2*1)
    assert c1.evaluate([4]) == Fraction(-1, 4)


def test_factor_input_validation():
    with pytest.raises(ValueError):
        projector_factor(SU3, (2, 1), 2)
    with pytest.raises(ValueError):
        projector_factor(SU2, (1, 2), -1)


def test_projector_factors_follow_ordering():
    fs = projector_factors(SU3, N=2)
    assert len(fs) == 3
    eng = RewriteEngine(SU3)
    for series, root in zip(fs, eng.order.sequence):
        i, j = root
        low, high = max(series.terms, key=series.raising_degree)
        assert high == ((root, 2),)
        assert low == (((j, i), 2),)


def test_singlet_projection_of_two_spinors():
    # on spin-1/2 x spin-1/2 the projector sends |up down> to half the
    # difference of the two middle states
    half = Fraction(1, 2)
    M = tensor(su2_irrep(half), su2_irrep(half))
    up_down = M.basis_vector(("m=1/2", "m=-1/2"))
    down_up = M.basis_vector(("m=-1/2", "m=1/2"))
    out = apply_projector(SU2, up_down, M)
    assert out == (up_down - down_up).scale(half)
    # and the projected vector is fixed
    assert apply_projector(SU2, out, M) == out


def test_projector_rank_on_su2_pairs():
    cases = [(Fraction(1, 2), Fraction(1, 2)), (1, Fraction(1, 2)), (1, 1)]
    for j1, j2 in cases:
        M = tensor(su2_irrep(j1), su2_irrep(j2))
        P = extremal_projector(SU2, N=M.weight_diameter)
        mat = matrix_of(P, M, singular="zero")
        expected = int(2 * min(Fraction(j1), Fraction(j2))) + 1
        assert mat_rank(mat, M.dim) == expected
        assert mat_eq(mat_mul(mat, mat), mat)


def test_identities_su2():
    N = 4
    eng = RewriteEngine(SU2)
    P = extremal_projector(SU2, N=N, engine=eng)
    rep = verify_extremal_identities(P, SU2, N, engine=eng)
    assert rep.ok


def test_identities_su3_small():
    N = 2
    eng = RewriteEngine(SU3)
    P = extremal_projector(SU3, N=N, engine=eng)
    rep = verify_extremal_identities(P, SU3, N, engine=eng)
    assert rep.ok


def test_both_su3_orderings_agree_on_module():
    M = su3_irrep(1, 1)
    default = ((1, 2), (1, 3), (2, 3))
    reverse = ((2, 3), (1, 3), (1, 2))
    for idx in range(M.dim):
        v = M.basis_vector(idx)
        a = apply_projector(SU3, v, M, order=default)
        b = apply_projector(SU3, v, M, order=reverse)
        assert a == b


def test_apply_projector_fixes_highest_weight():
    M = su3_irrep(2, 1)
    hw = M.basis_vector(0)
    assert M.weights[0] == (Fraction(2), Fraction(1))
    assert apply_projector(SU3, hw, M) == hw


def test_expanded_product_matches_sequential_on_safe_weights():
    # where the expanded product is regular the two application styles agree
    M = su3_irrep(1, 1)
    P = extremal_projector(SU3, N=M.weight_diameter)
    for idx in range(M.dim):
        v = M.basis_vector(idx)
        assert apply_element(P, v, M, singular="zero") == apply_projector(SU3, v, M)


def test_no_go_residual_is_nonzero():
    res = no_go_polynomial_residual(SU2, 3)
    assert res.terms


def test_factor_memo_lives_on_the_engine():
    import gc
    import weakref

    from extremal.su3gt import su3_engine, t_projector

    eng = RewriteEngine(SU3)
    assert eng._factor_cache == {}
    f = projector_factor(SU3, (1, 2), 3, engine=eng)
    assert projector_factor(SU3, (1, 2), 3, engine=eng).series.terms is f.series.terms
    assert eng._factor_cache == {((1, 2), 3): f.series.terms}
    # apply_projector builds each factor once per (engine, root, N)
    M = tensor(su3_irrep(1, 0), su3_irrep(0, 1))
    N = M.weight_diameter
    first = apply_projector(SU3, M.basis_vector(4), M, engine=eng)
    cached = dict(eng._factor_cache)
    assert set(cached) == {((1, 2), 3)} | {(root, N) for root in eng.order.sequence}
    assert apply_projector(SU3, M.basis_vector(4), M, engine=eng) == first
    assert all(eng._factor_cache[k] is v for k, v in cached.items())
    assert len(eng._factor_cache) == len(cached)
    # a new engine starts empty and builds its own factors
    other = RewriteEngine(SU3)
    assert other._factor_cache == {}
    assert projector_factor(SU3, (1, 2), 3, engine=other).series.terms is not f.series.terms
    # the memo makes no reference cycle: a dropped engine is freed at once
    gc.disable()
    try:
        ref = weakref.ref(other)
        del other
        assert ref() is None
    finally:
        gc.enable()
    # the T-spin factor of the GT construction is the shared engine's (2,3) factor
    assert t_projector(2).terms is su3_engine()._factor_cache[((2, 3), 2)]
