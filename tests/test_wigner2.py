"""su(2) coupling: CGC by two routes, unitarity, symmetries, 6j and 9j,
and 6j/9j against independent implementations."""

from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.physics.wigner import clebsch_gordan, wigner_6j, wigner_9j

from extremal.exact import Radical, projections, spin_range, sqrt_of_rational
from extremal.repmod import su2_irrep
from extremal.wigner2 import cgc_closed, cgc_projector, ninej, sixj
from reference import general_projector, lowering_monomial

HALF = Fraction(1, 2)


def _rat(q):
    return Radical.from_rational(Fraction(q))


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
    for j1 in spin_range(HALF, Fraction(3, 2)):
        for j2 in spin_range(HALF, 1):
            for j3 in spin_range(abs(j1 - j2), j1 + j2):
                for m3 in projections(j3):
                    for m1 in projections(j1):
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
            for m3 in projections(min(j3, j3p)):
                s = Radical.from_rational(0)
                for m1 in projections(j1):
                    m2 = m3 - m1
                    if abs(m2) > j2:
                        continue
                    s = s + cgc_closed(j1, m1, j2, m2, j3, m3) * cgc_closed(
                        j1, m1, j2, m2, j3p, m3
                    )
                assert s == _rat(1 if j3 == j3p else 0)


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
    for m in projections(j):
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
    for m1 in projections(a):
        for m2 in projections(b):
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


def _spins(hi):
    return list(spin_range(0, hi))


def test_sixj_equals_cgc_contraction():
    for js in product(_spins(2), repeat=6):
        if _sixj_valid(*js):
            assert sixj(*js) == _sixj_contraction(*js), js


def test_cgc_against_sympy():
    # every coefficient with j1, j2 <= 2, zeros included
    q = lambda x: sympy.Rational(x.numerator, x.denominator)
    count = 0
    for j1, j2 in product(_spins(2), repeat=2):
        for j3 in spin_range(abs(j1 - j2), j1 + j2):
            for m1, m2 in product(projections(j1), projections(j2)):
                if abs(m1 + m2) > j3:
                    continue
                ref = clebsch_gordan(q(j1), q(j2), q(j3), q(m1), q(m2), q(m1 + m2))
                val = cgc_closed(j1, m1, j2, m2, j3, m1 + m2)
                assert sympy.expand(_sympy(val) - ref) == 0, (j1, m1, j2, m2, j3)
                count += 1
    assert count == 809


def test_sixj_against_sympy():
    valid = [js for js in product(_spins(Fraction(3, 2)), repeat=6) if _sixj_valid(*js)]
    assert len(valid) == 181
    for js in valid:
        ref = wigner_6j(*(sympy.Rational(j.numerator, j.denominator) for j in js))
        assert sympy.expand(_sympy(sixj(*js)) - ref) == 0, js


def test_ninej_against_sympy():
    valid = [js for js in product(_spins(1), repeat=9) if _ninej_valid(*js)]
    assert len(valid) == 215
    for js in valid:
        ref = wigner_9j(*(sympy.Rational(j.numerator, j.denominator) for j in js))
        val = ninej((js[0:3], js[3:6], js[6:9]))
        assert sympy.expand(_sympy(val) - ref) == 0, js


def test_non_triangle_symbols_vanish():
    for js in product(_spins(Fraction(3, 2)), repeat=6):
        if not _sixj_valid(*js):
            assert not sixj(*js), js
    for js in product(_spins(HALF), repeat=9):
        if not _ninej_valid(*js):
            assert not ninej((js[0:3], js[3:6], js[6:9])), js
