"""Projector factors, sequential application, and the defining identities."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

import extremal
from extremal.algebra import build_root_system, normal_ordering
from extremal.pbw import (
    RewriteEngine,
    SingularWeightError,
    TaylorElement,
    rewrite_word,
    shared_engine,
)
from extremal.projector import (
    apply_factor,
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
    su2_irrep,
    su3_irrep,
    tensor,
)
from reference import (
    apply_zeroing,
    mat_rank,
    reference_apply_factor,
    reference_verify,
    zeroing_matrix,
)

SU2 = build_root_system(2)
SU3 = build_root_system(3)


def test_factor_structure_su2():
    f = projector_factor(SU2, (1, 2), 3)
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
    eng = RewriteEngine(SU3)
    assert len(eng.order.sequence) == 3
    for root in eng.order.sequence:
        series = projector_factor(SU3, root, 2, engine=eng)
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
        mat = zeroing_matrix(P, M)
        expected = int(2 * min(Fraction(j1), Fraction(j2))) + 1
        assert mat_rank(mat, M.dim) == expected
        assert mat_eq(mat_mul(mat, mat), mat)


def test_identities_su2():
    N = 4
    eng = RewriteEngine(SU2)
    P = extremal_projector(SU2, N=N, engine=eng)
    rep = verify_extremal_identities(P)
    assert rep.ok


def test_identities_su3_small():
    N = 2
    eng = RewriteEngine(SU3)
    P = extremal_projector(SU3, N=N, engine=eng)
    rep = verify_extremal_identities(P)
    assert rep.ok


@pytest.mark.parametrize("n, N", [(2, N) for N in range(1, 7)] + [(3, N) for N in range(1, 4)])
def test_cut_products_give_the_full_products_report(n, N):
    sys_ = build_root_system(n)
    P = extremal_projector(sys_, N=N, engine=RewriteEngine(sys_))
    rep = verify_extremal_identities(P)
    assert rep == reference_verify(P)
    assert rep.ok


def test_cut_products_hide_no_defect():
    # double one coefficient at raising degree 1 and one at degree N: the
    # check cut at N - 1 reports the same residuals as the full products
    N = 3
    P = extremal_projector(SU3, N=N, engine=RewriteEngine(SU3))
    terms = dict(P.terms)
    for d in (1, N):
        key = min(k for k in terms if P.raising_degree(k) == d)
        terms[key] = terms[key] * 2
    bad = TaylorElement(P.engine, N, terms)
    rep = verify_extremal_identities(bad)
    assert rep == reference_verify(bad)
    assert not rep.ok
    assert rep.idempotency and any(rep.annihilation_left.values())


def test_identities_su4():
    P = extremal_projector(build_root_system(4), N=2)
    assert verify_extremal_identities(P).ok


def test_both_su3_orderings_agree_on_module():
    M = su3_irrep(1, 1)
    default = ((1, 2), (1, 3), (2, 3))
    reverse = ((2, 3), (1, 3), (1, 2))
    for idx in range(M.dim):
        v = M.basis_vector(idx)
        a = apply_projector(SU3, v, M, order=default)
        b = apply_projector(SU3, v, M, order=reverse)
        assert a == b


@pytest.mark.parametrize("function", ["extremal_projector", "apply_projector"])
def test_an_order_other_than_the_engines_is_refused(function):
    # the engine fixes the ordering: another `order` is named, not ignored
    default = ((1, 2), (1, 3), (2, 3))
    reverse = ((2, 3), (1, 3), (1, 2))
    eng = RewriteEngine(SU3)
    M = su3_irrep(1, 1)
    v = M.basis_vector(3)

    def call(order):
        if function == "extremal_projector":
            return extremal_projector(SU3, order=order, N=2, engine=eng).dump()
        return apply_projector(SU3, v, M, order=order, engine=eng)

    message = "order %s differs from the engine's ordering %s" % (reverse, default)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(reverse)
    assert call(default) == call(None)


@pytest.mark.parametrize("function", ["extremal_projector", "apply_projector", "projector_factor"])
def test_an_engine_of_another_rank_is_refused(function):
    # an su(2) engine once answered for su(3): with the su(2) projector, with
    # only the (1,2) factor acting, or with StopIteration
    M = su3_irrep(1, 1)
    call = {
        "extremal_projector": lambda: extremal_projector(SU3, N=1, engine=shared_engine(2)),
        "apply_projector": lambda: apply_projector(SU3, M.basis_vector(3), M,
                                                   engine=shared_engine(2)),
        "projector_factor": lambda: projector_factor(SU3, (2, 3), 1, engine=shared_engine(2)),
    }[function]
    with pytest.raises(ValueError, match=re.escape("an engine of su(2) for a root system of su(3)")):
        call()


def test_a_normal_ordering_is_validated_once(monkeypatch, capsys):
    from extremal import algebra, cli

    shared_engine.cache_clear()  # an engine in the cache validated its ordering already
    eng = shared_engine(3)
    calls = []
    validate = algebra.validate_normal_ordering

    def counting(sys_, seq):
        calls.append(tuple(seq))
        return validate(sys_, seq)

    monkeypatch.setattr(algebra, "validate_normal_ordering", counting)
    assert cli.main(["projector", "--algebra", "su3", "--trunc", "2", "--order", "23,13,12"]) == 0
    capsys.readouterr()
    assert calls == [((2, 3), (1, 3), (1, 2))]
    calls.clear()
    M = su3_irrep(1, 1)
    assert apply_projector(SU3, M.basis_vector(0), M, engine=eng) == M.basis_vector(0)
    assert calls == []


def test_default_ordering_projectors_use_the_shared_engine(monkeypatch, capsys):
    # with no engine, the default ordering, as None or as its sequence, builds
    # on shared_engine(n) and is not validated again; any other ordering gets
    # its own shared engine, which validates it once
    from extremal import algebra, cli, pbw

    shared_engine.cache_clear()
    default = normal_ordering(SU3)
    shared = shared_engine(3)
    calls, created = [], []
    validate = algebra.validate_normal_ordering

    def counting(sys_, seq):
        calls.append(tuple(seq))
        return validate(sys_, seq)

    class Counting(RewriteEngine):
        def __init__(self, sys_, order=None):
            created.append(order)
            super().__init__(sys_, order)

    monkeypatch.setattr(algebra, "validate_normal_ordering", counting)
    monkeypatch.setattr(pbw, "RewriteEngine", Counting)
    for order in (None, default, default.sequence, [list(r) for r in default.sequence]):
        assert extremal_projector(SU3, order=order, N=2).engine is shared
    for argv in (["projector", "--algebra", "su3", "--trunc", "2"],
                 ["projector", "--algebra", "su3", "--trunc", "2", "--order", "12,13,23"],
                 ["verify", "--suite", "su3-projector", "--trunc", "2"]):
        assert cli.main(argv) == 0
    assert calls == [] and created == []
    reverse = ((2, 3), (1, 3), (1, 2))
    P = extremal_projector(SU3, order=reverse, N=2)
    assert P.engine is not shared and P.engine.order.sequence == reverse
    assert cli.main(["projector", "--algebra", "su3", "--trunc", "2", "--order", "23,13,12"]) == 0
    capsys.readouterr()
    assert created == [reverse] and calls == [reverse]


def test_one_engine_per_rank_and_ordering(monkeypatch, capsys):
    # every spelling of an ordering shares one engine, built and validated
    # once; an ordering that is not normal is refused on each call and never
    # cached; the factor and word functions with no engine use the same one
    from extremal import algebra, cli, pbw

    shared_engine.cache_clear()
    for order in (normal_ordering(SU3), normal_ordering(SU3, [(2, 3), (1, 3), (1, 2)])):
        spellings = [order, order.sequence, [list(r) for r in order.sequence]]
        if order == normal_ordering(SU3):
            spellings.append(None)
        engines = {id(shared_engine(3, x)) for x in spellings}
        assert len(engines) == 1 and shared_engine(3, order=order).order == order
    shared_engine.cache_clear()
    calls, created = [], []
    validate = algebra.validate_normal_ordering

    def counting(sys_, seq):
        calls.append(tuple(seq))
        return validate(sys_, seq)

    class Counting(RewriteEngine):
        def __init__(self, sys_, order=None):
            created.append(order)
            super().__init__(sys_, order)

    monkeypatch.setattr(algebra, "validate_normal_ordering", counting)
    monkeypatch.setattr(pbw, "RewriteEngine", Counting)
    reverse = ((2, 3), (1, 3), (1, 2))
    for trunc in ("1", "2", "3"):
        argv = ["projector", "--algebra", "su3", "--trunc", trunc, "--order", "23,13,12"]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert created == [reverse] and calls == [reverse]
    size = shared_engine.cache_info().currsize
    bad = ((1, 3), (1, 2), (2, 3))
    for call in (lambda: shared_engine(3, bad), lambda: extremal_projector(SU3, bad, N=1)):
        with pytest.raises(ValueError, match="^not a normal ordering"):
            call()
    assert created == [reverse, bad, bad] and shared_engine.cache_info().currsize == size
    eng = shared_engine(3)
    assert projector_factor(SU3, (1, 3), 2).engine is eng
    assert rewrite_word([(1, 2), (2, 1)], SU3, N=2).engine is eng


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
        assert apply_zeroing(P, v, M) == apply_projector(SU3, v, M)


def test_no_go_residual_is_nonzero():
    res = no_go_polynomial_residual(SU2, 3)
    assert res.terms


def test_no_go_residual_builds_on_the_shared_engine(monkeypatch):
    # the control creates no engine, and gives a fresh engine's residual
    from extremal import pbw

    with monkeypatch.context() as m:
        m.setattr(pbw, "shared_engine", lambda n: RewriteEngine(build_root_system(n)))
        fresh = [no_go_polynomial_residual(SU2, N).dump() for N in (1, 2, 3)]
    shared, created = shared_engine(2), []

    class Counting(RewriteEngine):
        def __init__(self, sys_, order=None):
            created.append(order)
            super().__init__(sys_, order)

    monkeypatch.setattr(pbw, "RewriteEngine", Counting)
    for N, want in zip((1, 2, 3), fresh):
        res = no_go_polynomial_residual(SU2, N)
        assert res.engine is shared
        assert res.dump() == want, N
    assert created == []


@pytest.mark.parametrize("N", [0, -1])
def test_no_go_residual_refuses_a_bound_below_one(N):
    # at N = 0 every factor is 1 and the "residual" is e12 itself
    with pytest.raises(ValueError, match=r"^truncation bound must be >= 1"):
        no_go_polynomial_residual(SU2, N)


def test_dropped_engine_is_freed_at_once():
    import gc
    import weakref

    other = RewriteEngine(SU3)
    projector_factor(SU3, (1, 2), 3, engine=other)
    # an engine holds no reference cycle: with the collector off it is freed
    # as soon as its last reference goes
    gc.disable()
    try:
        ref = weakref.ref(other)
        del other
        assert ref() is None
    finally:
        gc.enable()


# -- evaluated-coefficient route against the symbolic factors ---------


def _su2_pairs():
    spins = [Fraction(k, 2) for k in range(5)]
    return [tensor(su2_irrep(a), su2_irrep(b)) for a in spins for b in spins]


def _su3_pairs():
    reps = [(l, m) for l in range(4) for m in range(4 - l)]
    return [
        tensor(su3_irrep(*a), su3_irrep(*b))
        for a in reps for b in reps if sum(a) + sum(b) <= 3
    ]


def test_apply_factor_matches_symbolic_factor():
    # every positive root on every basis vector, poles included: the
    # symbolic factor on the zeroing route is the oracle
    zeroed = 0
    for sys, modules in ((SU2, _su2_pairs()), (SU3, _su3_pairs())):
        eng = RewriteEngine(sys)
        for M in modules:
            for root in sys.positive_roots:
                f = projector_factor(sys, root, M.weight_diameter, engine=eng)
                for b in range(M.dim):
                    v = M.basis_vector(b)
                    got = apply_factor(root, v, M)
                    assert got == apply_zeroing(f, v, M), (M.label, root, b)
                    zeroed += got.is_zero()
    assert zeroed


def test_apply_projector_matches_symbolic_factors_in_both_orderings():
    for order in (((1, 2), (1, 3), (2, 3)), ((2, 3), (1, 3), (1, 2))):
        eng = RewriteEngine(SU3, order)
        for M in _su3_pairs():
            N = M.weight_diameter
            factors = [projector_factor(SU3, r, N, engine=eng) for r in reversed(order)]
            for b in range(M.dim):
                v = w = M.basis_vector(b)
                for f in factors:
                    w = apply_zeroing(f, w, M)
                assert apply_projector(SU3, v, M, order=order) == w, (order, M.label, b)
                assert apply_projector(SU3, v, M, engine=eng) == w


def test_frame_factors_match_the_radical_route():
    # vectors with several square-root classes per coordinate, on su(2)
    # and su(3) products: each factor, and the projector as their product
    from extremal.exact import sqrt_of_rational
    from extremal.repmod import ModuleVector

    rng = random.Random(11)
    roots = [sqrt_of_rational(Fraction(rng.randint(1, 30), rng.randint(1, 6))) * rng.choice((1, -1))
             for _ in range(20)]
    for sys, modules in ((SU2, _su2_pairs()), (SU3, _su3_pairs())):
        for M in modules:
            for _ in range(4):
                idx = rng.sample(range(M.dim), min(6, M.dim))
                v = ModuleVector({b: rng.choice(roots) + rng.choice(roots) for b in idx})
                want = v
                for root in reversed(normal_ordering(sys).sequence):
                    assert apply_factor(root, v, M) == reference_apply_factor(root, v, M), root
                    want = reference_apply_factor(root, want, M)
                assert apply_projector(sys, v, M) == want, M.label


def test_apply_factor_zeroes_a_component_at_a_pole():
    # su(2) 1 x 1 at weight -2: a = <lam,gamma> + (rho,gamma) = -1, and the
    # n = 1 term acts, so phi_1 = 1/(a + 1) meets its pole
    M = tensor(su2_irrep(1), su2_irrep(1))
    v = M.basis_vector(("m=0", "m=-1"))
    assert M.weights[M.index(("m=0", "m=-1"))] == (Fraction(-2),)
    f = projector_factor(SU2, (1, 2), M.weight_diameter)
    with pytest.raises(SingularWeightError):
        apply_element(f, v, M)
    assert apply_zeroing(f, v, M).is_zero()
    assert apply_factor((1, 2), v, M).is_zero()
    # the highest weight has no term beyond n = 0 and is fixed
    top = M.basis_vector(("m=1", "m=1"))
    assert apply_factor((1, 2), top, M) == top
    with pytest.raises(ValueError):
        apply_factor((2, 1), v, M)


def test_numeric_routes_never_reach_the_symbolic_engine(monkeypatch, capsys):
    from extremal import cli, repmod, su3cgc, su3gt, wigner2

    def refuse(*args):
        raise AssertionError("symbolic element applied on a numeric route")

    caches = (su3gt._gt_basis, su3gt.gt_module, su3cgc.decompose,
              su3cgc.coupled_basis)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(repmod, "apply_element", refuse)
    try:
        M = tensor(su3_irrep(1, 1), su3_irrep(1, 0))
        assert apply_projector(SU3, M.basis_vector(0), M) == M.basis_vector(0)
        h = Fraction(1, 2)
        assert not su3gt.gt_vector(2, 1, (1, h, -h)).is_zero()
        assert su3cgc.su3_cgc(1, 1, (0, h, h), 1, 0, (0, 0, 0), 2, 1, (0, h, h))
        assert su3cgc.projector_matrix_element(
            (1, 0), (0, 0, 0), (0, 1), (h, 0, 0), (0, 0), (0, 0, 0), (0, 0, 0),
            (0, 0, 0), (h, 0, 0), route="direct")
        assert wigner2.cgc_projector(1, 0, 1, 0, 2, 0)
        assert cli.main(["gt-basis", "--lam", "2", "--mu", "1"]) == 0
        assert cli.main(["cgc-su3", "--lam1", "1", "--mu1", "1", "--lam2", "1",
                         "--mu2", "0"]) == 0
    finally:
        for cache in caches:
            cache.cache_clear()
    capsys.readouterr()


def test_numeric_layers_load_no_symbolic_engine():
    # every printed value comes from the numeric side; computing one of each
    # kind leaves pbw, and so sympy, unloaded
    code = """
import sys
from fractions import Fraction
from extremal import algebra, exact, projector, repmod, su3cgc, su3gt, wigner2
h = Fraction(1, 2)
assert wigner2.cgc_closed(1, 0, 1, 0, 2, 0) == wigner2.cgc_projector(1, 0, 1, 0, 2, 0)
assert wigner2.sixj(1, 1, 1, 1, 1, 1) and wigner2.ninej(((1, 1, 2), (1, 1, 2), (2, 2, 2)))
assert su3gt.gt_vector(2, 1, (1, h, -h)) and su3gt.gt_module(1, 1).dim == 8
assert len(su3cgc.decompose(1, 1, 1, 0)) == 3
assert su3cgc.su3_cgc(1, 0, (0, 0, 0), 0, 1, (h, 0, 0), 0, 0, (0, 0, 0))
args = ((1, 0), (0, 0, 0), (0, 1), (h, 0, 0), (0, 0), (0, 0, 0), (0, 0, 0),
        (0, 0, 0), (h, 0, 0))
assert su3cgc.projector_matrix_element(*args, route="direct") == (
    su3cgc.projector_matrix_element(*args, route="formula"))
M = repmod.tensor(repmod.su3_irrep(1, 1), repmod.su3_irrep(1, 0))
v = M.basis_vector(0)
assert projector.apply_projector(algebra.build_root_system(3), v, M) == v
print(sorted(m for m in ("sympy", "extremal.pbw") if m in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(extremal.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
