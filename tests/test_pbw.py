"""PBW normal ordering engine: coefficients, straightening, star, evaluation."""

import hashlib
import inspect
import math
import random
import re
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from extremal.algebra import build_root_system
from extremal.pbw import (
    BITS,
    Coeff,
    RewriteEngine,
    SingularWeightError,
    _add,
    _cofactor,
    _divide,
    _mul,
    h_symbols,
    rewrite_word,
    shared_engine,
)
from extremal.projector import extremal_projector
from extremal.repmod import (
    apply_element,
    mat_eq,
    mat_mul,
    matrix_of,
    su2_irrep,
    su3_irrep,
)
from reference import (
    cartan_ring,
    coeff_from_poly,
    denominator,
    enumerate_normal_orderings,
    mat_add,
    mat_identity,
    mat_scale,
    numerator,
    reference_as_expr,
    reference_coeff_text,
    reference_divide,
    reference_form,
    reference_from_expr,
    reference_mul,
    reference_reduce,
    reference_shift,
)

SU2 = build_root_system(2)
SU3 = build_root_system(3)


@pytest.fixture(scope="module")
def eng3():
    return RewriteEngine(SU3)


@pytest.fixture(scope="module")
def eng2():
    return RewriteEngine(SU2)


@pytest.fixture(scope="module")
def eng4():
    return RewriteEngine(build_root_system(4))


# -- Coeff ------------------------------------------------------------


def test_coeff_rational_arithmetic(eng3):
    a = Coeff.from_rational(eng3.n, Fraction(1, 2))
    b = Coeff.from_rational(eng3.n, 3)
    assert (a + b).evaluate([0, 0]) == Fraction(7, 2)
    assert (a * b).evaluate([0, 0]) == Fraction(3, 2)
    assert (-a).evaluate([0, 0]) == Fraction(-1, 2)
    assert not (a - a)
    assert b and a


def test_coeff_from_expr_with_denominator(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    c = Coeff.from_expr(eng3.n, (h1 + 2) / (h2 + 1))
    assert c.evaluate([2, 3]) == Fraction(4, 4)
    with pytest.raises(SingularWeightError):
        c.evaluate([0, -1])


def test_coeff_shift(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    c = Coeff.from_expr(eng3.n, (h1 + 1) / (h2 + 2))
    s = c.shift((1, -1), scale=2)  # h1 -> h1 + 2, h2 -> h2 - 2
    assert s.evaluate([0, 2]) == Fraction(3, 2)
    ref = Coeff.from_expr(eng3.n, (h1 + 3) / h2)
    assert s == ref


def test_coeff_reduced_cancellation(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    c = Coeff.from_expr(eng3.n, (h1 + 1) * (h2 + 2) / (h2 + 2))
    r = c.reduced()
    assert not r.den
    assert r == Coeff.from_expr(eng3.n, h1 + 1)


def test_coeff_semantic_equality(eng3):
    h1, h2 = sympy.symbols("h1 h2")
    a = Coeff.from_expr(eng3.n, (h1 ** 2 - 1) / (h1 + 1))
    b = Coeff.from_expr(eng3.n, h1 - 1)
    assert a == b


def test_coeff_structural_equality(eng2):
    # == compares (num, den) as stored; not (a - b) compares rational functions
    h = cartan_ring(2).gens[0]
    a = eng2.recip_linear([((1,), 2)])
    b = a * coeff_from_poly(h + 3) * eng2.recip_linear([((1,), 3)])
    assert b != a and not (b - a)
    assert b.reduced() == a
    assert hash(b.reduced()) == hash(a)
    assert Coeff.from_rational(eng2.n, 3) == 3
    assert Coeff.from_rational(eng2.n, Fraction(1, 2)) == Fraction(1, 2)


def test_constant_coeff_hashes_as_its_fraction(eng2):
    # a constant Coeff equals its int or Fraction, in both directions
    for q in (0, 3, -2, Fraction(1, 2)):
        c = eng2.coeff(q)
        assert c == q and q == c and hash(c) == hash(q)
        assert {q: "x"}.get(c) == "x" and {c: "y"}.get(q) == "y"
        assert len({c, q}) == 1


def test_coeff_equality_sees_the_rank():
    # h1 of su(2) and h2 of su(3) pack alike, but are functions on different
    # Cartan subalgebras; a constant is the same number in every rank
    h1, h2 = shared_engine(2).h_span(1, 2), shared_engine(3).h_span(2, 3)
    assert h1.num == h2.num and h1.den == h2.den and h1.q == h2.q
    assert h1 != h2 and h2 != h1 and not h1 == h2 and not h2 == h1
    assert len({h1, h2}) == 2 and {h1: "x"}.get(h2) is None and {h2: "y"}.get(h1) is None
    for q in (0, 3, Fraction(-1, 2)):
        a, b = Coeff.from_rational(2, q), Coeff.from_rational(3, q)
        assert a == b and b == a and hash(a) == hash(b) == hash(q)


def test_a_coefficient_of_another_rank_is_refused():
    # h2 of su(3) packs as h1 of su(2): an su(2) element once held it, and
    # a sum added the two as one monomial
    e2, e3 = shared_engine(2), shared_engine(3)
    h = e3.h_span(2, 3)
    message = re.escape("a coefficient of su(3) for an engine of su(2)")
    calls = [
        lambda: e2.cartan(e2.h_span(1, 2), 2) + e2.one(2).scale(h),
        lambda: e2.one(2).scale(h) + e2.cartan(e2.h_span(1, 2), 2),
        lambda: e2.one(2) * h,
        lambda: e2.monomial((), h, (), 2),
        lambda: e2.cartan(h, 2),
        lambda: rewrite_word([(1, 2), h], SU2, N=2, engine=e2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    # a constant is the same number in every rank, and becomes the engine's
    for q in (0, 3, Fraction(-1, 2)):
        c = e2.coeff(e3.coeff(q))
        assert c.n == 2 and c == q
        assert e2.one(2).scale(e3.coeff(q)).dump() == e2.one(2).scale(q).dump()
    assert rewrite_word([e3.coeff(3), (1, 2)], SU2, N=2, engine=e2).dump() == "[3] * e12"


def test_coeff_arithmetic_keeps_one_rank():
    # h1 of su(2) and h2 of su(3) pack alike: their sum once read as 2*h1 of
    # su(2).  A constant takes the other operand's rank, on either side
    h1, h2 = shared_engine(2).h_span(1, 2), shared_engine(3).h_span(2, 3)
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        for a, b in ((h1, h2), (h2, h1)):
            with pytest.raises(ValueError, match=r"su\(%d\).*su\(%d\)" % (a.n, b.n)):
                op(a, b)
        for q in (3, Fraction(-1, 2)):
            want = op(h2, Coeff.from_rational(3, q))
            for x in (op(Coeff.from_rational(2, q), h2), op(h2, Coeff.from_rational(4, q))):
                assert x.n == 3 and x == want, (q, x)
    assert (Coeff.from_rational(2, 3) + h2).text() == "h2 + 3"
    assert (Coeff.from_rational(2, 3) * h2).text() == "3*h2"


def test_coeff_compares_unequal_to_other_types(eng2):
    # a type Coeff cannot coerce is unequal, not an AttributeError
    h = cartan_ring(2).gens[0]
    for c in (eng2.coeff(3), coeff_from_poly(h + 1), eng2.recip_linear([((1,), 2)])):
        for other in (None, "x", 1.5, (1,)):
            assert not c == other and c != other
            assert not other == c and other != c
        assert c not in [None] and c in [None, c]


def test_taylor_element_arithmetic_refuses_other_types():
    # + and - with a non-element raise TypeError, not AttributeError
    one = shared_engine(2).one(2)
    for other in (1, None, Fraction(1, 2)):
        with pytest.raises(TypeError):
            one + other
        with pytest.raises(TypeError):
            one - other
        with pytest.raises(TypeError):
            other + one


def test_from_expr_reads_primitive_int_forms(eng2, eng3):
    h1 = sympy.Symbol("h1")
    for eng in (eng2, eng3):
        c = Coeff.from_expr(eng.n, 1 / (2 * h1 + 4))
        ref = eng.recip_linear([((1,) + (0,) * (eng.n - 2), 2)]) * Fraction(1, 2)
        assert c == ref and hash(c) == hash(ref)
    h2 = sympy.Symbol("h2")
    c = Coeff.from_expr(eng3.n, 1 / ((2 * h1 + 1) * (h2 - h1) * (-3 * h2 + 1)))
    assert c.den == {(2, 0, 1): 1, (1, -1, 0): 1, (0, 3, -1): 1}
    assert c.num == {0: 1}  # the signs of h2 - h1 and -3 h2 + 1 cancel


def test_from_expr_multiplicities_are_ints(eng2):
    # sympy's factor_list reports multiplicities as sympy Integers, which a
    # ring polynomial refuses as an exponent when __add__ pads a numerator
    h1 = sympy.Symbol("h1")
    a = Coeff.from_expr(eng2.n, 1 / h1 ** 2)
    assert all(type(m) is int for m in a.den.values())
    b = eng2.recip_linear([((1,), 0)])
    assert (a - b).as_expr() == sympy.cancel(1 / h1 ** 2 - 1 / h1)


@pytest.mark.parametrize("n, expr, names", [
    (2, "1/x", "x"),
    (3, "x + h1", "x"),
    (3, "(h1 + y)/(h2 - x)", "x, y"),
    (3, "h3/(h1 + 1)", "h3"),
])
def test_from_expr_refuses_foreign_symbols(n, expr, names):
    with pytest.raises(ValueError) as err:
        Coeff.from_expr(n, expr)
    assert str(err.value) == "symbols outside h1..h%d of su(%d): %s" % (n - 1, n, names)


def test_from_expr_reads_named_cartan_symbols_as_the_generators():
    h1 = h_symbols(3)[0]
    for named in (sympy.Symbol("h1", positive=True), sympy.Symbol("h1", integer=True)):
        assert Coeff.from_expr(3, named + 1) == Coeff.from_expr(3, h1 + 1)
    with pytest.raises(ValueError, match="symbols outside h1..h2 of su\\(3\\): x$"):
        Coeff.from_expr(3, sympy.Symbol("x", positive=True) + 1)


def _rational_functions(n):
    """sympy expressions p / (s * prod of linear forms^m) in h1..h_{n-1},
    with rational coefficients and forms that need not be primitive, and
    sums of two of them."""
    syms = [sympy.Symbol("h%d" % k) for k in range(1, n)]
    small = st.integers(-3, 3)
    monom = st.tuples(*[st.integers(0, 2)] * (n - 1))
    coef = st.fractions(-6, 6, max_denominator=4).filter(bool)
    poly = st.dictionaries(monom, coef, max_size=3).map(lambda d: sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x ** e for x, e in zip(syms, m)))
        for m, c in d.items())))
    form = st.lists(small, min_size=n, max_size=n).filter(lambda f: any(f[:-1])).map(
        lambda f: sum(a * x for a, x in zip(f, syms)) + f[-1])
    dens = st.lists(st.tuples(form, st.integers(1, 2)), max_size=2).map(
        lambda fs: sympy.Mul(*(f ** m for f, m in fs)))
    term = st.tuples(poly, st.sampled_from([1, -2, 3]), dens).map(lambda t: t[0] / (t[1] * t[2]))
    return st.one_of(term, st.tuples(term, term).map(lambda t: t[0] + t[1]))


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_from_expr_and_as_expr_match_the_ring_route(n, data):
    # parsing gives the (num, q, den) of the sympy ring route it replaced,
    # and the expression of a Coeff, parsed or computed, its srepr
    expr = data.draw(_rational_functions(n))
    c, ref = Coeff.from_expr(n, expr), reference_from_expr(n, expr)
    assert (c.num, c.q, c.den) == (ref.num, ref.q, ref.den)
    svec = data.draw(st.tuples(*[st.integers(-2, 2)] * (n - 1)))
    for x in (c, c * c.shift(svec, -1)):
        assert sympy.srepr(x.as_expr()) == sympy.srepr(reference_as_expr(x))


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
    n, ring = eng.n, cartan_ring(eng.n)
    syms = [sympy.Symbol("h%d" % k) for k in range(1, n)]
    small = st.integers(-3, 3)
    form = st.lists(small, min_size=n, max_size=n).map(_primitive_form)

    def linear(svec, c):
        return sum(a * x for a, x in zip(svec, syms)) + c

    def recip(forms):
        return eng.recip_linear(forms), 1 / sympy.Mul(*(linear(*f) for f in forms))

    def poly(cs):
        p = sum(c * x for c, x in zip(cs, syms)) + cs[-1]
        return coeff_from_poly(ring.from_expr(p)), p

    def parsed(args):
        p, f, k = args
        expr = linear(*p) / (k * linear(*f))
        return Coeff.from_expr(n, expr), expr

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
    assert all(type(m) is int and m >= 0 for m in c.num)
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
        Coeff.from_expr(eng.n, a.as_expr()),
        a * coeff_from_poly(denominator(lin)) * lin,
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
    info = _cofactor.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_native_kernels_match_the_ring_route(n, data):
    # packed numerators against sympy's polynomial ring, the route they replace
    ring = cartan_ring(n)
    monom = st.tuples(*[st.integers(0, 3)] * (n - 1))
    polys = st.dictionaries(monom, st.integers(-9, 9).filter(bool), max_size=5).map(ring.from_dict)
    a, b = data.draw(polys), data.draw(polys)
    pa, pb = coeff_from_poly(a).num, coeff_from_poly(b).num

    def poly(num):
        return numerator(Coeff(n, num))

    assert poly(pa) == a and poly(pb) == b
    assert poly(_mul(pa, pb)) == a * b
    assert poly(_add(pa, pb)) == a + b
    svec = data.draw(st.tuples(*[st.integers(-2, 2)] * (n - 1)))
    for scale in (1, -1, 2, -2):
        shifted = Coeff(n, pa).shift(svec, scale)
        assert numerator(shifted) == reference_shift(a, [scale * s for s in svec])
    svec_f, c_f = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                            .map(_primitive_form))
    key = svec_f + (c_f,)
    form = reference_form(ring, key)
    assert _divide(coeff_from_poly(a * form).num, key) == pa
    quo = _divide(pa, key)
    want = reference_divide(a, key)
    assert (quo is None) == (want is None)
    if quo is not None:
        assert poly(quo) == want
    # a rational numerator and a factored denominator round-trip through sympy
    c = coeff_from_poly(a * QQ(1, 6))
    assert numerator(c) == a * QQ(1, 6)
    assert coeff_from_poly(numerator(c)) == c
    den = data.draw(st.dictionaries(st.just(key), st.integers(1, 3)))
    want = ring.one
    for k, m in den.items():
        want = want * reference_form(ring, k) ** m
    assert denominator(Coeff(n, pa, den)) == want


@pytest.mark.parametrize("n", [2, 3])
def test_packed_exponents_refuse_to_overflow(n):
    # squaring a one-term coefficient doubles its exponent; at 2^(BITS - 1)
    # the field's guard bit is set, and the product raises instead of
    # carrying into the next field
    eng = shared_engine(n)
    for i in range(1, n):
        c = eng.h_span(i, i + 1)
        squarings = 0
        with pytest.raises(OverflowError, match="exceeds the 14-bit field"):
            for _ in range(2 * BITS):
                c = c * c
                squarings += 1
        assert squarings == BITS - 2
        values = [Fraction(2 + j) for j in range(n - 1)]
        assert c.evaluate(values) == values[i - 1] ** (2 ** (BITS - 2))
    # a parsed exponent is checked where it is packed: 2^(BITS - 1) - 1 is
    # the largest a field holds
    h1 = sympy.Symbol("h1")
    assert Coeff.from_expr(n, h1 ** (2 ** (BITS - 1) - 1)).evaluate([1] * (n - 1)) == 1
    with pytest.raises(OverflowError, match="exceeds the 14-bit field"):
        Coeff.from_expr(n, h1 ** (2 ** (BITS - 1)))


def test_output_reduces_each_coefficient_once(monkeypatch):
    # products and star return canonical elements, which dump as they are
    P = extremal_projector(SU3, N=2, engine=RewriteEngine(SU3))
    S = P.star()
    texts = P.dump(), S.dump()

    def refuse(self):
        raise AssertionError("a canonical element's coefficient reduced again")

    monkeypatch.setattr(Coeff, "reduced", refuse)
    assert (P.dump(), S.dump()) == texts
    assert P.canonical() is P


def _text_coeffs(n):
    """Reduced Coeffs of su(n) in every shape their text tells apart: a
    constant, one term, a constant and one single-variable term, several
    terms; q = 1 or not; no denominator, a lone factor, a lone power, and
    several factors, each a symbol h_i or a sum."""
    k, ring = n - 1, cartan_ring(n)
    coef = st.integers(-12, 12).filter(bool)
    monom = st.tuples(*[st.integers(0, 3)] * k)
    unit = st.integers(0, k - 1).map(lambda i: tuple(int(j == i) for j in range(k)))
    numerators = st.one_of(
        coef.map(lambda a: {(0,) * k: a}),
        st.tuples(monom, coef).map(lambda t: {t[0]: t[1]}),
        st.tuples(unit, st.integers(1, 3), coef, coef).map(
            lambda t: {tuple(e * t[1] for e in t[0]): t[2], (0,) * k: t[3]}),
        st.dictionaries(monom, coef, min_size=2, max_size=4),
    )
    forms = st.one_of(
        unit.map(lambda u: u + (0,)),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(_primitive_form)
        .map(lambda f: f[0] + (f[1],)).filter(lambda key: sum(map(bool, key)) > 1),
    )
    dens = st.one_of(
        st.just({}),
        forms.map(lambda key: {key: 1}),
        st.tuples(forms, st.integers(2, 3)).map(lambda t: {t[0]: t[1]}),
        st.dictionaries(forms, st.integers(1, 3), min_size=2, max_size=4),
    )

    def build(args):
        num, q, den = args
        poly = ring.from_dict({m: QQ(a, q) for m, a in num.items()})
        return coeff_from_poly(poly, den).reduced()

    return st.tuples(numerators, st.sampled_from([1, 2, 3, 6, 12]), dens).map(build)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coeff_text_matches_sympys_printer(n, data):
    c = data.draw(_text_coeffs(n))
    assert c.text() == reference_coeff_text(c)


@pytest.mark.parametrize("text", [
    "1 - h1", "1/6 - h1/12", "-h1*h2/12 + 1/2", "1 - 2*h2**3", "-h1*h2 + 1",
    "(1)/(6)", "(3*h1)/(2)", "h1/2 + 1/2", "-h1**2*h2",
    "(3*h1)/(2*h2*(h1 - 1))", "(h1/2 + 1/2)/(h2 - 1)", "(-1)/(h1 + h2 + 1)",
    "(-h1*h2**2)/(6*h1 + 6*h2 + 6)", "(5)/(6*h2)", "(h1 - 1)/(h2)",
    "(1)/(h1**3*(h2 - 1)**2)", "(-7)/(12*(h1 - h2 + 2)**2)",
    "(h1 + 2)/(h2*(h1 - 1)*(h1 + h2 + 1))", "(1)/((h1 - h2)*(2*h1 + 1)*(h2 + 1))",
    "(h2)/((h1 + 1)*(h1 + 2)**2*(h1 + 3))",
])
def test_coeff_text_shapes(eng3, text):
    c = Coeff.from_expr(eng3.n, sympy.sympify(text)).reduced()
    assert c.text() == reference_coeff_text(c) == text


def test_coeff_text_of_every_projector_coefficient():
    reverse = ((2, 3), (1, 3), (1, 2))
    cases = [(SU2, None, 6), (SU3, None, 4), (SU3, reverse, 4), (build_root_system(4), None, 2)]
    seen = 0
    for sys_, order, top in cases:
        eng = RewriteEngine(sys_, order)
        for N in range(top + 1):
            for c in extremal_projector(sys_, N=N, engine=eng).canonical().terms.values():
                assert c.text() == reference_coeff_text(c), c
                seen += 1
    assert seen == 409


@pytest.mark.parametrize("form, weight, text", [
    (((1, 0), 0), (0, 5), "h1"),
    (((1, 1), -1), (0, 1), "h1 + h2 - 1"),
    (((2, 1), 3), (-2, 1), "2*h1 + h2 + 3"),
])
def test_singular_weight_names_the_factor(eng3, form, weight, text):
    key = form[0] + (form[1],)
    assert text == str(reference_form(cartan_ring(eng3.n), key).as_expr())
    with pytest.raises(SingularWeightError) as err:
        eng3.recip_linear([form]).evaluate([Fraction(x) for x in weight])
    assert str(err.value) == "denominator factor %s vanishes at weight %s" % (
        text, tuple(map(str, weight)))


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


@pytest.mark.parametrize("word, letter", [
    ([("h", 0)], "Cartan letter ('h', 0) is outside h1..h2 of su(3)"),
    ([("h", 3)], "Cartan letter ('h', 3) is outside h1..h2 of su(3)"),
    ([(("h", -1), 2)], "Cartan letter ('h', -1) is outside h1..h2 of su(3)"),
    ([(1, 4)], "letter (1, 4) is not an off-diagonal pair (i, j) of su(3)"),
    ([(1, 1)], "letter (1, 1) is not an off-diagonal pair (i, j) of su(3)"),
    ([(1, 2), ((0, 1), 2)], "letter (0, 1) is not an off-diagonal pair (i, j) of su(3)"),
    ([(1, 4), (2, 1)], "letter (1, 4) is not an off-diagonal pair (i, j) of su(3)"),
])
def test_rewrite_word_refuses_letters_outside_su3(eng3, word, letter):
    with pytest.raises(ValueError) as err:
        rewrite_word(word, SU3, engine=eng3, N=4)
    assert str(err.value) == letter


@pytest.mark.parametrize("build, letter", [
    (lambda eng: eng.generator(1, 4, 2), (1, 4)),
    (lambda eng: eng.generator(4, 1, 2), (4, 1)),
    (lambda eng: eng.generator(0, 2, 2), (0, 2)),
    (lambda eng: eng.monomial((((2, 1), 1),), 1, (((1, 4), 2),), 2), (1, 4)),
    (lambda eng: eng.monomial((((3, 0), 1),), 1, (), 2), (3, 0)),
])
def test_engine_elements_refuse_pairs_outside_su3(build, letter):
    # the element was built before and failed only when multiplied, with
    # an IndexError from the weight bound
    with pytest.raises(ValueError) as err:
        build(shared_engine(3))
    assert str(err.value) == "letter %r is not an off-diagonal pair (i, j) of su(3)" % (letter,)
    eng = shared_engine(3)
    assert eng.monomial((((2, 1), 1),), 1, (((1, 2), 1),), 2).terms
    with pytest.raises(ValueError, match="diagonal letters"):
        eng.generator(2, 2, 2)


def _refusal(build):
    with pytest.raises(ValueError) as err:
        build(shared_engine(3))
    return str(err.value)


def test_monomial_refuses_a_zero_exponent():
    # the letter stayed in the key: x - 1 kept two terms and x != 1
    assert _refusal(lambda eng: eng.monomial((((2, 1), 0),), 1, (), 3)) == (
        "letter (2, 1) with exponent 0 is not a factor of a normal-ordered monomial of su(3)")
    for e in (-1, 1.0, Fraction(1)):
        assert "exponent %r" % (e,) in _refusal(lambda eng: eng.monomial((), 1, (((1, 2), e),), 3))


@pytest.mark.parametrize("lowering, raising, letter", [
    ((((1, 2), 1),), (), (1, 2)),
    ((), (((2, 1), 1),), (2, 1)),
    ((((3, 1), 1), ((2, 1), 1)), (), (2, 1)),
    ((((2, 1), 1), ((2, 1), 2)), (), (2, 1)),
    ((), (((1, 3), 1), ((1, 2), 1)), (1, 2)),
])
def test_monomial_refuses_words_out_of_normal_order(lowering, raising, letter):
    # a raising letter in the lowering word was filed as a lowering word
    assert _refusal(lambda eng: eng.monomial(lowering, 1, raising, 3)).startswith(
        "letter %r with exponent" % (letter,))
    eng = shared_engine(3)
    assert eng.monomial((((2, 1), 1),), 1, (), 3).equals_mod_filtration(eng.generator(2, 1, 3))
    assert eng.monomial((((2, 1), 2), ((3, 1), 1)), 1, (((1, 2), 1), ((1, 3), 1)), 3).terms


@pytest.mark.parametrize("exponent", [-2, 1.0, Fraction(1, 2)])
def test_rewrite_word_refuses_a_negative_or_non_int_exponent(exponent):
    # a negative exponent dropped its letter: the word below gave e21
    su2 = shared_engine(2)
    with pytest.raises(ValueError) as err:
        rewrite_word([((1, 2), exponent), ((2, 1), 1)], su2.sys, engine=su2)
    assert str(err.value) == "exponent %r of (1, 2) is not a nonnegative int" % (exponent,)
    word = rewrite_word([((1, 2), 0), ((2, 1), 1)], su2.sys, engine=su2)
    assert word.equals_mod_filtration(su2.generator(2, 1, 64))


@pytest.mark.parametrize("word", [[(1, 2), (2, 1)], [(1, 3)]])
def test_rewrite_word_refuses_an_engine_of_another_rank(word):
    # an su(3) engine once answered for su(2), and took (1, 3) as its letter
    with pytest.raises(ValueError, match=re.escape("an engine of su(3) for a root system of su(2)")):
        rewrite_word(word, SU2, engine=shared_engine(3), N=2)


def test_coeff_hash_is_computed_once(eng3):
    # the hash sits in a slot after the first call; equal coefficients
    # built apart hash alike, constants as their Fraction
    h1, h2 = sympy.symbols("h1 h2")
    c = eng3.coeff(h1 / (h1 + h2 + 3))
    assert c._hash is None
    first = hash(c)
    assert c._hash == first and hash(c) == first
    assert hash(eng3.coeff(h1 / (h1 + h2 + 3))) == first
    assert hash(eng3.coeff(Fraction(3, 4))) == hash(Fraction(3, 4))


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
    ring = cartan_ring(eng.n)
    h = ring.gens[0]
    ref = eng.zero(N)
    for k in range(min(a, b) + 1):
        poly = ring(math.factorial(k) * math.comb(a, k) * math.comb(b, k))
        for i in range(1, k + 1):
            poly = poly * (h - a - b + k + i)
        low = (((2, 1), b - k),) if b > k else ()
        high = (((1, 2), a - k),) if a > k else ()
        ref = ref + eng.monomial(low, coeff_from_poly(poly), high, N)
    return ref


def _int_leaves(key):
    """A memo key (a word of generator pairs, or a product's pair of a
    letter or a packed word and a packed word) holds ints only."""
    return all(_int_leaves(x) if isinstance(x, tuple) else isinstance(x, int) for x in key)


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
            assert all(map(_int_leaves, eng._reduce_cache))


def test_straightening_stack_stays_flat():
    # e^40 f^40 folds 40 letters, each through products that wait on
    # shorter ones; straightening must not nest a frame per letter or product
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    eng = RewriteEngine(SU2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        x = rewrite_word([((1, 2), 40), ((2, 1), 40)], SU2, engine=eng, N=40)
    finally:
        sys.setrecursionlimit(limit)
    assert x.equals_mod_filtration(_root_string(eng, 40, 40, 40))


def test_root_string_memos_stay_linear():
    # the fold keeps the normal form of each suffix e^k f^32 and the product
    # of e with each f^k; swapping letters one pair at a time memoized 11,473
    # intermediate words here
    eng = RewriteEngine(SU2)
    x = rewrite_word([((1, 2), 32), ((2, 1), 32)], SU2, engine=eng, N=32)
    assert x.equals_mod_filtration(_root_string(eng, 32, 32, 32))
    memos = [v for name, v in vars(eng).items() if name.endswith("_cache")]
    assert len(memos) == 3 and sum(map(len, memos)) < 200


def _same_normal_form(eng, word, memo):
    fold, letters = eng.reduce(word), reference_reduce(eng, word, memo)
    assert fold.keys() == letters.keys(), word
    assert all(not (fold[k] - letters[k]) for k in fold), word


def _letters(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_shift_comes_from_the_root_weight(n, data):
    # word_shift is the Cartan matrix times root_weight; against the sum of
    # [h_k, e_ij] = s_k e_ij over the letters, s_k = [k = i] - [k = j]
    # - [k + 1 = i] + [k + 1 = j].  From su(4) on, an interior row of the
    # Cartan matrix reads both neighbours w_{k-1} and w_{k+1}
    eng = RewriteEngine(build_root_system(n))
    words = st.lists(st.sampled_from(_letters(n)), max_size=8).map(eng._pack)
    A, B = data.draw(words), data.draw(words)
    assert eng.word_shift(A) == tuple(
        sum(e * ((k == i) - (k == j) - (k + 1 == i) + (k + 1 == j)) for (i, j), e in A)
        for k in range(1, n))
    AB = eng._pack(eng.unpack(A) + eng.unpack(B))
    assert eng.root_weight(AB) == tuple(map(sum, zip(eng.root_weight(A), eng.root_weight(B))))
    star = eng._pack([(j, i) for i, j in reversed(eng.unpack(A))])
    assert eng.word_shift(star) == tuple(-s for s in eng.word_shift(A))
    i, j = data.draw(st.sampled_from(_letters(n)))
    span = sum(h_symbols(n)[min(i, j) - 1 : max(i, j) - 1])
    assert eng.h_span(i, j) == Coeff.from_expr(n, span if i < j else -span)


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_matches_letter_by_letter_straightening(n, data):
    # random words in any normal ordering of su(2) to su(4), against the
    # straightening that swaps one adjacent pair at a time
    sys_ = build_root_system(n)
    order = data.draw(st.sampled_from(enumerate_normal_orderings(sys_)))
    eng = RewriteEngine(sys_, order)
    memo = {}
    for word in data.draw(st.lists(st.lists(st.sampled_from(_letters(n)), max_size=8),
                                   min_size=1, max_size=3)):
        _same_normal_form(eng, word, memo)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fold_matches_letter_by_letter_on_root_strings(n):
    # the sl(2) string e_g^a e_-g^b of every root g, a, b <= 12
    eng = RewriteEngine(build_root_system(n))
    for i, j in eng.sys.positive_roots:
        memo = {}
        for a in range(13):
            for b in range(13):
                _same_normal_form(eng, [(i, j)] * a + [(j, i)] * b, memo)


@pytest.mark.parametrize("n", [3, 4])
def test_fold_matches_letter_by_letter_on_heisenberg_pairs(n):
    # e12^a e23^b and its reverse, raising and lowering, in every normal
    # ordering: [e12, e23] = e13 commutes with both
    sys_ = build_root_system(n)
    for order in enumerate_normal_orderings(sys_):
        eng, memo = RewriteEngine(sys_, order), {}
        for x, y in (((1, 2), (2, 3)), ((2, 1), (3, 2))):
            for a in range(7):
                for b in range(7):
                    _same_normal_form(eng, [x] * a + [y] * b, memo)
                    _same_normal_form(eng, [y] * b + [x] * a, memo)


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


def _item(w):
    if w[0] == "recip":
        return 1 / (sympy.Symbol("h%d" % w[1]) + sympy.Rational(w[2], 2))
    return _word_item(w)


def _element(data, n, eng):
    """A drawn sum of up to three straightened words in generators and Cartan
    letters, reciprocals of h_k + c included, at a drawn bound N <= 4."""
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    cartan = st.tuples(
        st.sampled_from(["h", "expr", "recip"]), st.integers(1, n - 1), st.integers(-2, 2)
    )
    letter = st.one_of(st.sampled_from(gens), cartan)
    N = data.draw(st.integers(0, 4))
    x = eng.zero(N)
    for word in data.draw(st.lists(st.lists(letter, max_size=5), min_size=1, max_size=3)):
        x = x + rewrite_word([_item(w) for w in word], eng.sys, engine=eng, N=N)
    return x


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_matches_the_term_by_term_reference(n, eng2, eng3, data):
    # cutting R1 Rb before the coefficient arithmetic keeps exactly the
    # terms, and the stored coefficients, of the product truncated last
    eng = eng2 if n == 2 else eng3
    a, b = _element(data, n, eng), _element(data, n, eng)
    assert (a * b).terms == reference_mul(a, b).terms


def _low_part(x, k):
    """The terms of x of raising degree <= k."""
    return {key: c for key, c in x.terms.items() if x.raising_degree(key) <= k}


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cut_product_is_the_low_part_of_the_full_one(n, eng2, eng3, data):
    # the elements of test_product_matches_the_term_by_term_reference: an
    # output bound k keeps exactly the full product's terms of degree <= k
    eng = eng2 if n == 2 else eng3
    a, b = _element(data, n, eng), _element(data, n, eng)
    full = a * b
    top = min(a.bound, b.bound)
    for k in range(top + 1):
        cut = a.mul(b, k)
        assert cut.bound == k
        assert cut.terms == _low_part(full, k)
    with pytest.raises(ValueError, match="exceeds the inputs' bound"):
        a.mul(b, top + 1)


def test_cut_product_of_the_su4_projector():
    # straightening can lower the raising degree, so the inputs' degree-N
    # terms still feed the low part of the product
    N = 2
    P = extremal_projector(build_root_system(4), N=N)
    full = P * P
    for k in range(N):  # k = N is P * P itself
        assert P.mul(P, k).terms == _low_part(full, k)
    with pytest.raises(ValueError, match="exceeds the inputs' bound 2"):
        P.mul(P, N + 1)
    with pytest.raises(ValueError, match="exceeds the inputs' bound 1"):
        P.mul(P.mul(P, 1), 2)


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_weight_pruned_product_is_the_low_part_of_the_reference(n, eng2, eng3, eng4, data):
    # the elements of test_cut_product_is_the_low_part_of_the_full_one, and
    # of su(4), against reference_mul, which straightens every word and
    # cuts only at the end: the words mul skips by weight change no term
    eng = {2: eng2, 3: eng3, 4: eng4}[n]
    a, b = _element(data, n, eng), _element(data, n, eng)
    full = reference_mul(a, b)
    for k in range(min(a.bound, b.bound) + 1):
        assert a.mul(b, k).terms == _low_part(full, k)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grouped_product_of_projector_multiples(n, eng2, eng3, data):
    # x P and P x repeat raising and lowering words across their terms, so
    # mul's (Ra, Lb) groups hold many terms; each cut is the reference's
    eng = eng2 if n == 2 else eng3
    x = _element(data, n, eng)
    N = data.draw(st.integers(1, 4 if n == 2 else 2))
    P = extremal_projector(eng.sys, N=N, engine=eng)
    a, b = x * P, P * x
    full = reference_mul(a, b)
    for k in range(min(a.bound, b.bound) + 1):
        assert a.mul(b, k).terms == _low_part(full, k)


def test_product_groups_share_words(eng3):
    # the groups of the property test above are not all single terms
    x = rewrite_word([(1, 2)], SU3, engine=eng3, N=3) + rewrite_word([(3, 1)], SU3, engine=eng3, N=3)
    P = extremal_projector(SU3, N=3, engine=eng3)
    a, b = x * P, P * x
    ras, lbs = [Ra for _, Ra in a.terms], [Lb for Lb, _ in b.terms]
    assert len(set(ras)) < len(ras) and len(set(lbs)) < len(lbs)
    assert (a * b).terms == reference_mul(a, b).terms


def test_weight_pruned_su4_projector_product(eng4):
    N = 2
    P = extremal_projector(eng4.sys, N=N, engine=eng4)
    full = reference_mul(P, P)
    for k in range(N + 1):
        assert P.mul(P, k).terms == _low_part(full, k)


def test_product_straightens_no_raising_word_above_the_bound(monkeypatch):
    # a raising word of degree <= k has height <= 2k in su(3); mul skips
    # every R1 Rb (and raising Ra Lb) above that height before straightening
    # or multiplying it out (`product`), and straightens those at it
    N = 3
    eng = RewriteEngine(SU3)
    P = extremal_projector(SU3, N=N, engine=eng)
    seen = []
    reduce, product = eng.reduce, eng.product

    def spy(word):
        seen.append(tuple(word))
        return reduce(word)

    def spy_product(A, B):
        seen.append(eng.unpack(A) + eng.unpack(B))
        return product(A, B)

    monkeypatch.setattr(eng, "reduce", spy)
    monkeypatch.setattr(eng, "product", spy_product)
    P.mul(P, N - 1)
    raising = [w for w in seen if all(i < j for i, j in w)]
    assert max(sum(j - i for i, j in w) for w in raising) == (N - 1) * 2


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


@pytest.mark.parametrize("values", [(2,), (2, 3, 4), ()])
def test_evaluate_refuses_a_weight_of_the_wrong_length(eng3, values):
    # zip would cut the weight short: h1*h2 + h2 read 4 at (2,) and 16 at
    # (2, 3, 4), and 1/(h2 + 1) read 1 at (1,)
    h1, h2 = sympy.symbols("h1 h2")
    msg = r"a weight of su\(3\) has 2 entries, got %d$" % len(values)
    for c in (eng3.coeff(h1 * h2 + h2), eng3.coeff(1 / (h2 + 1)), eng3.coeff(0)):
        with pytest.raises(ValueError, match=msg):
            c.evaluate(values)
    assert eng3.coeff(h1 * h2 + h2).evaluate((2, 3)) == 9


@pytest.mark.parametrize("key", [0, 3, -1, "h1"])
def test_evaluate_cartan_refuses_a_key_outside_the_rank(eng3, key):
    x = rewrite_word([(2, 1), ("h", 2), (1, 2)], SU3, engine=eng3, N=4)
    msg = r"Cartan index %s is outside h1..h2 of su\(3\)$" % re.escape(repr(key))
    with pytest.raises(ValueError, match=msg):
        x.evaluate_cartan({1: 1, key: 7})
    for weight in ({2: 7}, {1: 0, 2: 7}):
        assert x.evaluate_cartan(weight).dump() == "e21 * [7] * e12"


def test_dump_stable():
    eng = RewriteEngine(SU2)
    x = rewrite_word([(1, 2), (2, 1)], SU2, engine=eng, N=8)
    assert x.dump() == "[h1]\ne21 * [1] * e12"


# the sha1 of every dump below; no exact value of the symbolic engine may move
PROJECTOR_DUMPS_SHA1 = "3c61fe5f09bff97fbf827604b70328f5bec9eca9"


def test_projector_dumps_unchanged():
    from extremal.projector import extremal_projector

    h = hashlib.sha1()

    def add(label, x):
        h.update(("%s\n%s\n" % (label, x.dump())).encode())

    su4 = build_root_system(4)
    cases = [
        (SU2, None, 6),
        (SU3, None, 3),
        (SU3, ((2, 3), (1, 3), (1, 2)), 3),
        (su4, None, 2),
    ]
    for sys_, order, top in cases:
        eng = RewriteEngine(sys_, order)
        for N in range(top + 1):
            add("su%d %s N=%d" % (sys_.n, order, N), extremal_projector(sys_, N=N, engine=eng))
    P = extremal_projector(SU3, N=3, engine=RewriteEngine(SU3))
    add("su3 P*P N=3", P * P)
    eng = RewriteEngine(SU2)
    for a in range(8):
        for b in range(8):
            add("e^%d f^%d" % (a, b), rewrite_word([((1, 2), a), ((2, 1), b)], SU2, engine=eng, N=16))
    assert h.hexdigest() == PROJECTOR_DUMPS_SHA1


def test_apply_element_su2():
    # e12 e21 acts as J+ J-; on the highest vector of spin 1/2 it is the
    # identity, on the lowest it is zero
    assert "_cache" not in inspect.signature(apply_element).parameters
    M = su2_irrep(Fraction(1, 2))
    x = rewrite_word([(1, 2), (2, 1)], SU2, N=M.weight_diameter)
    assert apply_element(x, M.basis_vector("m=1/2"), M) == M.basis_vector("m=1/2")
    assert apply_element(x, M.basis_vector("m=-1/2"), M).is_zero()
