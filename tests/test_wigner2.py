"""su(2) coupling: CGC by two routes, unitarity, symmetries, 6j and 9j,
and 6j/9j against independent implementations."""

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import event, given, settings
from hypothesis import strategies as st
from sympy.physics.wigner import clebsch_gordan, wigner_6j, wigner_9j

from extremal import exact
from extremal.exact import Radical, sqrt_of_rational
from extremal.repmod import su2_irrep
from extremal.wigner2 import (
    cgc_closed,
    cgc_closed_doubled,
    cgc_closed_table,
    cgc_projector,
    cgc_projector_doubled,
    cgc_projector_table,
    ninej,
    ninej_doubled,
    sixj,
    sixj_doubled,
)
from reference import (
    cgc_table,
    general_projector,
    lowering_monomial,
    reference_cgc_closed_doubled,
)

HALF = Fraction(1, 2)


def _rat(q):
    return Radical.from_rational(Fraction(q))


def _halves(lo, hi):
    """lo, lo + 1/2, ..., hi, ranged on doubled ints."""
    return [Fraction(k, 2) for k in range(int(2 * lo), int(2 * hi) + 1)]


def _projections(j):
    """The projections j, j - 1, ..., -j of spin j."""
    return [j - k for k in range(int(2 * j) + 1)]


def test_cgc_known_values():
    # (1/2 1/2 1/2 -1/2 | 0 0) = 1/sqrt(2); singlet antisymmetric
    assert cgc_closed(HALF, HALF, HALF, -HALF, 0, 0) == sqrt_of_rational(HALF)
    assert cgc_closed(HALF, -HALF, HALF, HALF, 0, 0) == -sqrt_of_rational(HALF)
    # stretched states are exactly 1
    assert cgc_closed(1, 1, HALF, HALF, Fraction(3, 2), Fraction(3, 2)) == _rat(1)
    # (1 0 1 0 | 2 0) = sqrt(2/3)
    assert cgc_closed(1, 0, 1, 0, 2, 0) == sqrt_of_rational(Fraction(2, 3))
    # (1 0 1 0 | 1 0) = 0
    assert not cgc_closed(1, 0, 1, 0, 1, 0)


def test_cgc_selection_rules():
    assert not cgc_closed(1, 1, 1, 1, 1, 1)          # m3 out of range via sum
    assert not cgc_closed(1, 0, HALF, HALF, 2, HALF)  # triangle violated
    assert not cgc_closed(HALF, HALF, HALF, HALF, 0, 1)


def test_dual_route_agreement():
    for j1 in _halves(HALF, Fraction(3, 2)):
        for j2 in _halves(HALF, 1):
            for j3 in _halves(abs(j1 - j2), j1 + j2):
                for m3 in _projections(j3):
                    for m1 in _projections(j1):
                        m2 = m3 - m1
                        if abs(m2) > j2:
                            continue
                        a = cgc_closed(j1, m1, j2, m2, j3, m3)
                        b = cgc_projector(j1, m1, j2, m2, j3, m3)
                        assert a == b, (j1, m1, j2, m2, j3, m3)


def test_cgc_orthogonality():
    j1, j2 = Fraction(1), Fraction(3, 2)
    allowed = [abs(j1 - j2) + k for k in range(int(2 * min(j1, j2)) + 1)]
    # rows: sum over m1 m2 of C(j3 m3) C(j3' m3') = delta
    for j3 in allowed:
        for j3p in allowed:
            for m3 in _projections(min(j3, j3p)):
                s = Radical.from_rational(0)
                for m1 in _projections(j1):
                    m2 = m3 - m1
                    if abs(m2) > j2:
                        continue
                    s = s + cgc_closed(j1, m1, j2, m2, j3, m3) * cgc_closed(
                        j1, m1, j2, m2, j3p, m3
                    )
                assert s == _rat(1 if j3 == j3p else 0)


_spins = st.integers(0, 8)  # doubled


@settings(max_examples=40, deadline=None)
@given(_spins, _spins)
def test_cgc_orthogonality_on_generated_tables(d1, d2):
    # the coupling matrix of each m3 is orthogonal, exactly in Radical:
    # rows, sum over m1 m2 of C(j3 m3) C(j3' m3) = delta(j3, j3'), and
    # columns, sum over j3 of C(m1 m2) C(m1' m2') = delta(m1, m1');
    # a pair of labels with different m3 is orthogonal by the selection rule
    event("doubled j1 + j2 = %d" % (d1 + d2))
    table = {}  # m3 -> {(m1, j3): C}
    for labels in cgc_table(Fraction(d1, 2), Fraction(d2, 2)):
        _, m1, _, _, j3, m3 = labels
        table.setdefault(m3, {})[m1, j3] = cgc_closed_doubled(*labels)
    zero = Radical.from_rational(0)
    event("a zero coefficient in the table: %s"
          % any(not v for block in table.values() for v in block.values()))
    for block in table.values():
        m1s = sorted({m1 for m1, _ in block})
        j3s = sorted({j3 for _, j3 in block})
        for j3, j3p in product(j3s, repeat=2):
            s = sum((block[m1, j3] * block[m1, j3p] for m1 in m1s), zero)
            assert s == _rat(j3 == j3p), (d1, d2, j3, j3p)
        for m1, m1p in product(m1s, repeat=2):
            s = sum((block[m1, j3] * block[m1p, j3] for j3 in j3s), zero)
            assert s == _rat(m1 == m1p), (d1, d2, m1, m1p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.data())
def test_cgc_closed_table_equals_the_one_label_routes(d1, d2, data):
    # the walk's shared roots give the values of cgc_closed_doubled and of
    # the ten-factorial root, label by label, in cgc_table's order; a j3
    # block is the full table's slice
    j1, j2 = Fraction(d1, 2), Fraction(d2, 2)
    full = list(cgc_closed_table(j1, j2))
    assert [labels for labels, _ in full] == cgc_table(j1, j2)
    for labels, v in full:
        assert v == cgc_closed_doubled(*labels) == reference_cgc_closed_doubled(*labels), labels
    d3 = data.draw(st.sampled_from(range(abs(d1 - d2), d1 + d2 + 1, 2)), label="doubled j3")
    event("j3 block %s" % ("stretched" if d3 == d1 + d2 else "inner"))
    assert list(cgc_closed_table(j1, j2, Fraction(d3, 2))) == [r for r in full if r[0][4] == d3]


@settings(max_examples=40, deadline=None)
@given(_spins, _spins, st.data())
def test_cgc_projector_table_walks_as_the_closed_table(d1, d2, data):
    # the two routes walk a table alike: the same labels in the same order,
    # with equal values; a j3 block is the full walk's slice, and the
    # one-label projector route gives the walk's value on every label
    j1, j2 = Fraction(d1, 2), Fraction(d2, 2)
    full = list(cgc_projector_table(j1, j2))
    assert full == list(cgc_closed_table(j1, j2))
    d3 = data.draw(st.sampled_from(range(abs(d1 - d2), d1 + d2 + 1, 2)), label="doubled j3")
    event("j3 block %s" % ("stretched" if d3 == d1 + d2 else "inner"))
    assert list(cgc_projector_table(j1, j2, Fraction(d3, 2))) == [r for r in full if r[0][4] == d3]
    for labels, v in full:
        assert cgc_projector_doubled(*labels) == v, labels


def test_cgc_closed_table_refuses_as_cgc_table():
    for args in [(1, 1, Fraction(3, 2)), (1, 1, 3), (-1, 1, None)]:
        with pytest.raises(ValueError):
            cgc_table(*args)
        with pytest.raises(ValueError):
            list(cgc_closed_table(*args))
        with pytest.raises(ValueError):
            list(cgc_projector_table(*args))


def test_cgc_swap_symmetry():
    # (j2 m2 j1 m1 | j3 m3) = (-1)^(j1+j2-j3) (j1 m1 j2 m2 | j3 m3)
    cases = [
        (1, 0, HALF, HALF, Fraction(3, 2), HALF),
        (1, 1, 1, -1, 1, 0),
        (Fraction(3, 2), HALF, 1, 0, Fraction(3, 2), HALF),
    ]
    for j1, m1, j2, m2, j3, m3 in cases:
        lhs = cgc_closed(j2, m2, j1, m1, j3, m3)
        rhs = cgc_closed(j1, m1, j2, m2, j3, m3)
        phase = (-1) ** int(Fraction(j1) + Fraction(j2) - Fraction(j3))
        assert lhs == rhs * _rat(phase)


def test_lowering_monomial_action():
    j = Fraction(3, 2)
    M = su2_irrep(j)
    top = M.basis_vector("m=3/2")
    for m in _projections(j):
        out = lowering_monomial(j, m).apply(top, M)
        assert out == M.basis_vector("m=%s" % m)


def test_general_projector_action():
    j = 1
    M = su2_irrep(j)
    P = general_projector(j, 0, 1)
    assert P.apply(M.basis_vector("m=1"), M) == M.basis_vector("m=0")
    assert P.apply(M.basis_vector("m=0"), M).is_zero()
    with pytest.raises(ValueError):
        general_projector(1, 2, 0)


def test_sixj_special_values():
    assert sixj(1, 1, 1, 1, 1, 1) == _rat(Fraction(1, 6))
    # {a b c; 0 c b} = (-1)^(a+b+c)/sqrt((2b+1)(2c+1))
    for a, b, c in [(1, 1, 1), (2, 1, 1), (1, HALF, HALF), (Fraction(3, 2), 1, HALF)]:
        val = sixj(a, b, c, 0, c, b)
        expect = sqrt_of_rational(
            Fraction(1, (int(2 * b) + 1) * (int(2 * c) + 1))
        ) * _rat((-1) ** int(a + b + c))
        assert val == expect
    assert not sixj(1, 1, 3, 1, 1, 1)  # broken triangle


def test_sixj_orthogonality():
    # sum_x (2x+1) {a b x; c d p} {a b x; c d q} = delta_pq / (2p+1)
    a = b = c = d = 1
    for p in (0, 1, 2):
        for q in (0, 1, 2):
            s = Radical.from_rational(0)
            for x in (0, 1, 2):
                s = s + sixj(a, b, x, c, d, p) * sixj(a, b, x, c, d, q) * _rat(
                    2 * x + 1
                )
            assert s == _rat(Fraction(1, 2 * p + 1) if p == q else 0)


def test_ninej_values():
    # all-ones symbol vanishes by the row-swap antisymmetry
    assert not ninej(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    # tabulated rational values
    assert ninej(((1, 1, 2), (1, 1, 2), (2, 2, 2))) == _rat(Fraction(-1, 150))
    assert ninej(((HALF, HALF, 1), (HALF, HALF, 1), (1, 1, 2))) == _rat(
        Fraction(1, 9)
    )
    assert ninej(
        ((1, HALF, Fraction(3, 2)), (HALF, 1, Fraction(3, 2)), (Fraction(3, 2), Fraction(3, 2), 1))
    ) == _rat(Fraction(-1, 144))


def test_recoupling_symbols_on_negative_and_bad_labels():
    # a negative label fails every triangle it is in: the symbol is 0
    for k in range(6):
        js = [1] * 6
        js[k] = -HALF
        assert not sixj(*js)
        js[k] = -1
        assert not sixj(*js)
    ones = [1] * 9
    for k in range(9):
        js = list(ones)
        js[k] = -1
        assert not ninej((js[0:3], js[3:6], js[6:9]))
    # all nine 1: exchanging two rows flips the sign by (-1)^9
    assert ninej(((1, 1, 1), (1, 1, 1), (1, 1, 1))) == _rat(0)
    assert ninej(((1, 1, 0), (1, 1, 0), (0, 0, 0))) == _rat(Fraction(1, 3))
    # a label that is no half-integer is refused
    with pytest.raises(ValueError):
        sixj(Fraction(1, 3), 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        ninej(((1, 1, 1), (1, Fraction(1, 3), 1), (1, 1, 1)))


def test_recoupling_symbols_are_parsers_over_the_doubled_cores():
    # the same value from Fraction labels and from their doubled ints, also
    # on negative and out-of-triangle labels
    for ds in product(range(-1, 4), repeat=6):
        assert sixj(*(Fraction(d, 2) for d in ds)) == sixj_doubled(*ds), ds
    rng = random.Random(19)
    for _ in range(500):
        ds = [rng.randrange(-2, 6) for _ in range(9)]
        rows = [ds[0:3], ds[3:6], ds[6:9]]
        halves = [[Fraction(d, 2) for d in r] for r in rows]
        assert ninej(halves) == ninej_doubled(rows), rows


# -- independent oracles for 6j and 9j --------------------------------


def _triad(a, b, c):
    return (a + b + c).denominator == 1 and abs(a - b) <= c <= a + b


def _sixj_valid(a, b, c, d, e, f):
    return all(
        _triad(*t) for t in ((a, b, c), (c, d, e), (b, d, f), (a, e, f))
    )


def _ninej_valid(a, b, c, d, e, f, g, h, i):
    return all(
        _triad(*t)
        for t in ((a, b, c), (d, e, f), (g, h, i), (a, d, g), (b, e, h), (c, f, i))
    )


def _sympy(r):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(d)
          for d, c in r.terms.items())
    )


def _sixj_contraction(a, b, c, d, e, f):
    """The 6j symbol as a contraction of four closed-form CGCs."""
    # contraction definition: couple (a b) c then (c d) e against
    # (b d) f then (a f) e, at total projection M = e
    total = Radical.from_rational(0)
    M = e
    for m1 in _projections(a):
        for m2 in _projections(b):
            m3 = M - m1 - m2
            if abs(m3) > d:
                continue
            c1 = cgc_closed(a, m1, b, m2, c, m1 + m2)
            if not c1:
                continue
            c2 = cgc_closed(c, m1 + m2, d, m3, e, M)
            if not c2:
                continue
            c3 = cgc_closed(b, m2, d, m3, f, m2 + m3)
            if not c3:
                continue
            c4 = cgc_closed(a, m1, f, m2 + m3, e, M)
            if not c4:
                continue
            total = total + c1 * c2 * c3 * c4
    phase = Fraction((-1) ** int(a + b + d + e))
    norm = sqrt_of_rational(Fraction(1, (int(2 * c) + 1) * (int(2 * f) + 1)))
    return total * norm * Radical.from_rational(phase)


def test_sixj_equals_cgc_contraction():
    for js in product(_halves(0, 2), repeat=6):
        if _sixj_valid(*js):
            assert sixj(*js) == _sixj_contraction(*js), js


def test_cgc_against_sympy():
    # every coefficient with j1, j2 <= 2, zeros included
    q = lambda x: sympy.Rational(x.numerator, x.denominator)
    count = 0
    for j1, j2 in product(_halves(0, 2), repeat=2):
        for j3 in _halves(abs(j1 - j2), j1 + j2):
            for m1, m2 in product(_projections(j1), _projections(j2)):
                if abs(m1 + m2) > j3:
                    continue
                ref = clebsch_gordan(q(j1), q(j2), q(j3), q(m1), q(m2), q(m1 + m2))
                val = cgc_closed(j1, m1, j2, m2, j3, m1 + m2)
                assert sympy.expand(_sympy(val) - ref) == 0, (j1, m1, j2, m2, j3)
                count += 1
    assert count == 809


def test_cgc_closed_at_large_spin_factors_only_the_prefactor(monkeypatch):
    # Racah's sum often has a large prime factor q, and trial division of it
    # would run to about q^(2/3); the squarefree split may see no int larger
    # than j1 + j2 + j3 + 1, so neither the sum, nor a factorial ratio, nor a
    # large prime reaches it.  (20 -12 20 12 | 32 0) is such a coefficient.
    radicands = []
    split = exact._squarefree_split
    monkeypatch.setattr(exact, "_squarefree_split",
                        lambda n: radicands.append(n) or split(n))
    exact._factorial_split.cache_clear()
    j = Fraction(20)
    rows = {}
    for j3 in (Fraction(32), Fraction(18)):
        radicands.clear()
        rows[j3] = [cgc_closed(j, m1, j, -m1, j3, 0) for m1 in _projections(j)]
        assert radicands and all(n <= j + j + j3 + 1 for n in radicands), j3
    assert rows[Fraction(32)][32] == cgc_closed(j, -12, j, 12, 32, 0)
    # the rows of the unitary coupling matrix are orthonormal
    for a, b in product(rows, repeat=2):
        dot = sum((x * y for x, y in zip(rows[a], rows[b])), Radical.from_rational(0))
        assert dot == Radical.from_rational(1 if a == b else 0), (a, b)


def test_sixj_against_sympy():
    valid = [js for js in product(_halves(0, Fraction(3, 2)), repeat=6) if _sixj_valid(*js)]
    assert len(valid) == 181
    for js in valid:
        ref = wigner_6j(*(sympy.Rational(j.numerator, j.denominator) for j in js))
        assert sympy.expand(_sympy(sixj(*js)) - ref) == 0, js


def test_ninej_against_sympy():
    valid = [js for js in product(_halves(0, 1), repeat=9) if _ninej_valid(*js)]
    assert len(valid) == 215
    for js in valid:
        ref = wigner_9j(*(sympy.Rational(j.numerator, j.denominator) for j in js))
        val = ninej((js[0:3], js[3:6], js[6:9]))
        assert sympy.expand(_sympy(val) - ref) == 0, js


def test_non_triangle_symbols_vanish():
    for js in product(_halves(0, Fraction(3, 2)), repeat=6):
        if not _sixj_valid(*js):
            assert not sixj(*js), js
    for js in product(_halves(0, HALF), repeat=9):
        if not _ninej_valid(*js):
            assert not ninej((js[0:3], js[3:6], js[6:9])), js
