"""PBW normal ordering engine: coefficients, straightening, star, evaluation."""

import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal.algebra import build_root_system
from extremal.pbw import (
    Coeff,
    RewriteEngine,
    SingularWeightError,
    form_power,
    rewrite_word,
)
from extremal.repmod import (
    apply_element,
    mat_eq,
    mat_mul,
    matrix_of,
    su2_irrep,
    su3_irrep,
)
from reference import mat_add, mat_identity, mat_scale

SU2 = build_root_system(2)
SU3 = build_root_system(3)


@pytest.fixture(scope="module")
def eng3():
    return RewriteEngine(SU3)


@pytest.fixture(scope="module")
def eng2():
    return RewriteEngine(SU2)


# -- Coeff ------------------------------------------------------------


def test_coeff_rational_arithmetic(eng3):
    a = Coeff.from_rational(eng3.ring, Fraction(1, 2))
    b = Coeff.from_rational(eng3.ring, 3)
    assert (a + b).evaluate([0, 0]) == Fraction(7, 2)
    assert (a * b).evaluate([0, 0]) == Fraction(3, 2)
    assert (-a).evaluate([0, 0]) == Fraction(-1, 2)
    assert not (a - a)
    assert b and a


def test_coeff_from_expr_with_denominator(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    c = Coeff.from_expr(eng3.ring, (h1 + 2) / (h2 + 1))
    assert c.evaluate([2, 3]) == Fraction(4, 4)
    with pytest.raises(SingularWeightError):
        c.evaluate([0, -1])


def test_coeff_shift(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    c = Coeff.from_expr(eng3.ring, (h1 + 1) / (h2 + 2))
    s = c.shift((1, -1), scale=2)  # h1 -> h1 + 2, h2 -> h2 - 2
    assert s.evaluate([0, 2]) == Fraction(3, 2)
    ref = Coeff.from_expr(eng3.ring, (h1 + 3) / h2)
    assert s == ref


def test_coeff_reduced_cancellation(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    c = Coeff.from_expr(eng3.ring, (h1 + 1) * (h2 + 2) / (h2 + 2))
    r = c.reduced()
    assert not r.den
    assert r == Coeff.from_expr(eng3.ring, h1 + 1)


def test_coeff_semantic_equality(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    a = Coeff.from_expr(eng3.ring, (h1 ** 2 - 1) / (h1 + 1))
    b = Coeff.from_expr(eng3.ring, h1 - 1)
    assert a == b


def test_coeff_structural_equality(eng2):
    # == compares (num, den) as stored; not (a - b) compares rational functions
    h = eng2.ring.gens[0]
    a = eng2.recip_linear([((1,), 2)])
    b = a * Coeff(eng2.ring, h + 3) * eng2.recip_linear([((1,), 3)])
    assert b != a and not (b - a)
    assert b.reduced() == a
    assert hash(b.reduced()) == hash(a)
    assert Coeff.from_rational(eng2.ring, 3) == 3
    assert Coeff.from_rational(eng2.ring, Fraction(1, 2)) == Fraction(1, 2)


def test_from_expr_reads_primitive_int_forms(eng2, eng3):
    h1 = sympy.Symbol("h1")
    for eng in (eng2, eng3):
        c = Coeff.from_expr(eng.ring, 1 / (2 * h1 + 4))
        ref = eng.recip_linear([((1,) + (0,) * (eng.n - 2), 2)]) * Fraction(1, 2)
        assert c == ref and hash(c) == hash(ref)
    h2 = sympy.Symbol("h2")
    c = Coeff.from_expr(eng3.ring, 1 / ((2 * h1 + 1) * (h2 - h1) * (-3 * h2 + 1)))
    assert c.den == {(2, 0, 1): 1, (1, -1, 0): 1, (0, 3, -1): 1}
    assert c.num == eng3.ring(1)  # the signs of h2 - h1 and -3 h2 + 1 cancel


def test_from_expr_multiplicities_are_ints(eng2):
    # sympy's factor_list reports multiplicities as sympy Integers, which a
    # ring polynomial refuses as an exponent when __add__ pads a numerator
    h1 = sympy.Symbol("h1")
    a = Coeff.from_expr(eng2.ring, 1 / h1 ** 2)
    assert all(type(m) is int for m in a.den.values())
    b = eng2.recip_linear([((1,), 0)])
    assert (a - b).as_expr() == sympy.cancel(1 / h1 ** 2 - 1 / h1)


def _primitive_form(coeffs):
    """A random linear form made primitive with a positive first nonzero a_i."""
    *a, c = coeffs
    if not any(a):
        a[0] = 1
    g = math.gcd(*a, c)
    sign = 1 if next(x for x in a if x) > 0 else -1
    return tuple(sign * x // g for x in a), sign * c // g


def _coeff_strategy(eng):
    """(Coeff, sympy expression) pairs built by the Coeff operations."""
    n, ring = eng.n, eng.ring
    syms = [sympy.Symbol("h%d" % k) for k in range(1, n)]
    small = st.integers(-3, 3)
    form = st.lists(small, min_size=n, max_size=n).map(_primitive_form)

    def linear(svec, c):
        return sum(a * x for a, x in zip(svec, syms)) + c

    def recip(forms):
        return eng.recip_linear(forms), 1 / sympy.Mul(*(linear(*f) for f in forms))

    def poly(cs):
        p = sum(c * x for c, x in zip(cs, syms)) + cs[-1]
        return Coeff(ring, ring.from_expr(p)), p

    def parsed(args):
        p, f, k = args
        expr = linear(*p) / (k * linear(*f))
        return Coeff.from_expr(ring, expr), expr

    def shifted(args):
        (c, e), svec, scale = args
        subs = {x: x + scale * s for x, s in zip(syms, svec)}
        return c.shift(svec, scale), e.subs(subs, simultaneous=True)

    leaves = st.one_of(
        st.lists(form, min_size=1, max_size=3).map(recip),
        st.lists(small, min_size=n, max_size=n).map(poly),
        st.tuples(form, form, st.sampled_from([-2, 1, 3])).map(parsed),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: (p[0][0] + p[1][0], p[0][1] + p[1][1])),
            st.tuples(children, children).map(lambda p: (p[0][0] * p[1][0], p[0][1] * p[1][1])),
            st.tuples(children, st.tuples(*[small] * (n - 1)), st.sampled_from([1, -1, 2])).map(shifted),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def _keys_canonical(c):
    for key in c.den:
        assert all(type(x) is int for x in key), key
        assert math.gcd(*key) == 1, key
        assert next(x for x in key[:-1] if x) > 0, key
    # value num / (q * den): integer numerator, q > 0 coprime to its content
    assert type(c.q) is int and c.q > 0
    assert all(type(x) is int for x in c.num.values())
    assert math.gcd(c.q, *c.num.values()) == 1


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coeff_operations_match_sympy(n, eng2, eng3, data):
    eng = eng2 if n == 2 else eng3
    coeffs = _coeff_strategy(eng)
    a, ea = data.draw(coeffs)
    _keys_canonical(a)
    assert sympy.cancel(a.as_expr() - ea) == 0
    # the same function in other forms, and an unrelated one
    form = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(_primitive_form))
    lin = eng.recip_linear([form])
    others = [
        Coeff.from_expr(eng.ring, a.as_expr()),
        a * Coeff(eng.ring, lin.denominator()) * lin,
        a.shift(form[0], 1).shift(form[0], -1),
        data.draw(coeffs)[0],
    ]
    for b in others:
        _keys_canonical(b)
        ra, rb = a.reduced(), b.reduced()
        _keys_canonical(ra)
        _keys_canonical(rb)
        assert (ra == rb) == (not (a - b))
        if not (a - b):
            assert hash(ra) == hash(rb)
        for x, y in ((a, b), (ra, rb)):
            if x == y:
                assert hash(x) == hash(y)
    assert others[2] == a
    info = form_power.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_coeff_eq_does_no_arithmetic(eng3, monkeypatch):
    from extremal.projector import extremal_projector

    P = extremal_projector(SU3, N=2, engine=eng3)
    coeffs = list(P.terms.values()) + list((P * P).terms.values())
    for c in coeffs:
        _keys_canonical(c)

    def refuse(self, other):
        raise AssertionError("__eq__ must not add or subtract")

    monkeypatch.setattr(Coeff, "__add__", refuse)
    monkeypatch.setattr(Coeff, "__sub__", refuse)
    for a in coeffs:
        for b in coeffs:
            if a == b:
                assert hash(a) == hash(b)


# -- straightening ----------------------------------------------------


def test_su2_commutator(eng2):
    # e12 e21 = e21 e12 + h1
    x = rewrite_word([(1, 2), (2, 1)], SU2, engine=eng2, N=8)
    y = rewrite_word([(2, 1), (1, 2)], SU2, engine=eng2, N=8)
    h = eng2.cartan(sympy.Symbol("h1"), 8)
    assert x.equals_mod_filtration(y + h)


def test_su3_commutators(eng3):
    # [e12, e23] = e13, [e12, e31] = -e32, [e13, e31] = h1 + h2
    def comm(a, b):
        return rewrite_word([a, b], SU3, engine=eng3, N=8) - rewrite_word(
            [b, a], SU3, engine=eng3, N=8
        )

    h1, h2 = sympy.symbols("h1 h2")
    assert comm((1, 2), (2, 3)).equals_mod_filtration(eng3.generator(1, 3, 8))
    assert comm((1, 2), (3, 1)).equals_mod_filtration(-eng3.generator(3, 2, 8))
    assert comm((1, 3), (3, 1)).equals_mod_filtration(eng3.cartan(h1 + h2, 8))
    assert comm((1, 2), (1, 3)).equals_mod_filtration(eng3.zero(8))


def test_cartan_letters_shift_through(eng3):
    # h1 e12 = e12 (h1 + 2)
    h1 = sympy.Symbol("h1")
    lhs = rewrite_word([("h", 1), (1, 2)], SU3, engine=eng3, N=8)
    rhs = eng3.generator(1, 2, 8) * eng3.cartan(h1 + 2, 8)
    assert lhs.equals_mod_filtration(rhs)


def test_multiplication_associative(eng3):
    a = rewrite_word([(2, 1), (1, 3)], SU3, engine=eng3, N=6)
    b = rewrite_word([(1, 2), (3, 2)], SU3, engine=eng3, N=6)
    c = rewrite_word([(2, 3), (1, 2)], SU3, engine=eng3, N=6)
    assert ((a * b) * c).equals_mod_filtration(a * (b * c), deg=4)


def test_rewrite_matches_module_action():
    # normal-ordered form of random words acts identically to the raw
    # matrix product on an explicit module
    M = su3_irrep(1, 1)
    eng = RewriteEngine(SU3)
    letters = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    rng = random.Random(7)
    for _ in range(25):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        x = rewrite_word(word, SU3, engine=eng, N=M.weight_diameter)
        lhs = matrix_of(x, M)
        prod = None
        for g in word:
            m = M.matrix(g)
            prod = m if prod is None else mat_mul(prod, m)
        assert mat_eq(lhs, prod)


def _root_string(eng, a, b, N):
    """e^a f^b = sum_k k! C(a,k) C(b,k) f^(b-k) prod_{i=1..k}(h - a - b + k + i) e^(a-k)"""
    h = eng.ring.gens[0]
    ref = eng.zero(N)
    for k in range(min(a, b) + 1):
        poly = eng.ring(math.factorial(k) * math.comb(a, k) * math.comb(b, k))
        for i in range(1, k + 1):
            poly = poly * (h - a - b + k + i)
        low = (((2, 1), b - k),) if b > k else ()
        high = (((1, 2), a - k),) if a > k else ()
        ref = ref + eng.monomial(low, Coeff(eng.ring, poly), high, N)
    return ref


def test_root_string_closed_formula():
    for a in range(9):
        for b in range(9):
            eng = RewriteEngine(SU2)
            x = rewrite_word([((1, 2), a), ((2, 1), b)], SU2, engine=eng, N=16)
            assert x.equals_mod_filtration(_root_string(eng, a, b, 16)), (a, b)
            # words are memoized on generators only, so the cache stays
            # polynomial in the word length (memoizing whole words with
            # Cartan letters in them filled 137k entries for e^8 f^8)
            assert len(eng._reduce_cache) < 1000, (a, b)
            assert all(isinstance(i, int) for word in eng._reduce_cache
                       for g in word for i in g)


def test_straightening_stack_stays_flat():
    # e^10 f^10 takes 100 swaps; straightening must not nest a frame per swap
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    eng = RewriteEngine(SU2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        x = rewrite_word([((1, 2), 10), ((2, 1), 10)], SU2, engine=eng, N=16)
    finally:
        sys.setrecursionlimit(limit)
    assert x.equals_mod_filtration(_root_string(eng, 10, 10, 16))


def _cartan_matrix(M, letter):
    """Matrix of ('h', k, _) or of ('expr', k, c), which stands for h_k + c."""
    kind, k, c = letter
    m = M.matrix(("h", k))
    return m if kind == "h" else mat_add(m, mat_scale(mat_identity(M.dim), c))


def _word_item(letter):
    if letter[0] == "h":
        return ("h", letter[1])
    if letter[0] == "expr":
        return sympy.Symbol("h%d" % letter[1]) + letter[2]
    return letter


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rewrite_and_star_match_module(n, eng2, eng3, data):
    # words with Cartan letters anywhere: the normal form acts as the product
    # of the letter matrices, and star acts as the transpose
    sys_ = SU2 if n == 2 else SU3
    M = su2_irrep(Fraction(3, 2)) if n == 2 else su3_irrep(1, 1)
    eng = eng2 if n == 2 else eng3
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    cartan = st.tuples(st.sampled_from(["h", "expr"]), st.integers(1, n - 1), st.integers(-2, 2))
    word = data.draw(st.lists(st.one_of(st.sampled_from(gens), cartan), max_size=8))
    x = rewrite_word([_word_item(w) for w in word], sys_, engine=eng, N=16)
    prod = mat_identity(M.dim)
    for w in word:
        m = M.matrix(w) if isinstance(w[0], int) else _cartan_matrix(M, w)
        prod = mat_mul(prod, m)
    mat = matrix_of(x, M)
    assert mat_eq(mat, prod)
    assert mat_eq(matrix_of(x.star(), M), {(c, r): v for (r, c), v in mat.items()})


def test_exponent_letters():
    eng = RewriteEngine(SU2)
    a = rewrite_word([((1, 2), 3)], SU2, engine=eng, N=8)
    b = rewrite_word([(1, 2), (1, 2), (1, 2)], SU2, engine=eng, N=8)
    assert a.equals_mod_filtration(b)


# -- star involution --------------------------------------------------


def test_star_on_generators(eng3):
    e12 = eng3.generator(1, 2, 8)
    assert e12.star().equals_mod_filtration(eng3.generator(2, 1, 8))
    h1 = eng3.cartan(sympy.Symbol("h1"), 8)
    assert h1.star().equals_mod_filtration(h1)


def test_star_is_involution(eng3):
    x = rewrite_word([(2, 1), (1, 3), (3, 2), (1, 2)], SU3, engine=eng3, N=8)
    assert x.star().star().equals_mod_filtration(x)


def test_star_antimultiplicative(eng3):
    a = rewrite_word([(2, 1), (1, 2)], SU3, engine=eng3, N=6)
    b = rewrite_word([(1, 3), (3, 2)], SU3, engine=eng3, N=6)
    assert (a * b).star().equals_mod_filtration(b.star() * a.star(), deg=4)


# -- evaluation and output -------------------------------------------


def test_evaluate_cartan():
    eng = RewriteEngine(SU2)
    h1 = sympy.Symbol("h1")
    x = eng.monomial((((2, 1), 1),), (h1 + 1) / (h1 + 3), (((1, 2), 1),), 8)
    y = x.evaluate_cartan({1: 1})
    ((L, R), c), = y.terms.items()
    assert c.evaluate([0]) == Fraction(1, 2)
    with pytest.raises(SingularWeightError):
        x.evaluate_cartan({1: -3})


def test_dump_stable():
    eng = RewriteEngine(SU2)
    x = rewrite_word([(1, 2), (2, 1)], SU2, engine=eng, N=8)
    assert x.dump() == "[h1]\ne21 * [1] * e12"


def test_apply_element_su2():
    # e12 e21 acts as J+ J-; on the highest vector of spin 1/2 it is the
    # identity, on the lowest it is zero
    M = su2_irrep(Fraction(1, 2))
    x = rewrite_word([(1, 2), (2, 1)], SU2, N=M.weight_diameter)
    assert apply_element(x, M.basis_vector("m=1/2"), M) == M.basis_vector("m=1/2")
    assert apply_element(x, M.basis_vector("m=-1/2"), M).is_zero()


def test_apply_element_memo_lives_on_engine():
    assert "_cache" not in inspect.signature(apply_element).parameters
    M = su2_irrep(Fraction(1, 2))
    eng = RewriteEngine(SU2)
    x = rewrite_word([(1, 2), ("h", 1), (2, 1)], SU2, engine=eng, N=M.weight_diameter)
    apply_element(x, M.basis_vector("m=1/2"), M)
    assert eng._eval_cache
    other = RewriteEngine(SU2)
    assert not other._eval_cache
