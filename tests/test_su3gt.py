"""Gelfand-Tsetlin bases for su(3): labels, orthonormality, subalgebra action."""

from fractions import Fraction

import pytest

from extremal.exact import Radical, sqrt_of_rational
from extremal.repmod import su3_irrep, su3_label
from extremal.su3gt import (
    admissible_jt,
    enumerate_gt_labels,
    gt_basis,
    gt_hypercharge,
    gt_label_index,
    gt_module,
    gt_multiplets,
    gt_norm_factor,
    gt_vector,
)
from reference import fraction_admissible_jt

HALF = Fraction(1, 2)
IRREPS = [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)]


def _rat(q):
    return Radical.from_rational(Fraction(q))


def test_label_counts_match_dimensions():
    for lam, mu in IRREPS:
        labels = enumerate_gt_labels(lam, mu)
        dim = (lam + 1) * (mu + 1) * (lam + mu + 2) // 2
        assert len(labels) == dim
        assert len(set(labels)) == dim
        # highest-weight label comes first
        assert labels[0] == (Fraction(0), Fraction(mu, 2), Fraction(mu, 2))


def _labels_by_scan(lam, mu):
    """Every half-integer (j, t) pair through the Fraction admissibility
    test: the reference for the int ranges of enumerate_gt_labels."""
    out = []
    for jj in range(0, 2 * (lam + mu) + 1):
        for tt in range(0, 2 * (lam + mu) + 1):
            j, t = Fraction(jj, 2), Fraction(tt, 2)
            if not fraction_admissible_jt(lam, mu, j, t):
                continue
            tz = t
            while tz >= -t:
                out.append((j, t, tz))
                tz -= 1
    return out


def test_label_ranges_match_scan():
    for lam in range(9):
        for mu in range(9 - lam):
            assert enumerate_gt_labels(lam, mu) == _labels_by_scan(lam, mu), (lam, mu)


def test_norm_factor_computed_once(monkeypatch):
    from extremal import su3gt

    calls = []
    real = su3gt.sqrt_factorial_ratio

    def counting(num, den, *rest):
        calls.append(1)
        return real(num, den, *rest)

    monkeypatch.setattr(su3gt, "sqrt_factorial_ratio", counting)
    su3gt._gt_norm_factor.cache_clear()
    jts = {(lam, mu, j, t) for lam, mu in IRREPS
           for j, t, _ in enumerate_gt_labels(lam, mu)}
    first = {key: gt_norm_factor(*key) for key in jts}
    for lam, mu, j, t in jts:  # again, with other argument types
        assert gt_norm_factor(str(lam), float(mu), str(j), float(t)) == first[(lam, mu, j, t)]
    assert len(calls) == len(jts)


def test_admissibility():
    for test in (admissible_jt, fraction_admissible_jt):
        assert test(1, 1, HALF, 1)
        assert not test(1, 1, HALF, HALF)  # mu/2 + j + t not an integer
        assert not test(1, 0, Fraction(2), Fraction(0))
        assert not test(1, 0, Fraction(-1), Fraction(0))


def test_admissibility_matches_the_fraction_inequalities():
    # every half-integer j, t in [-1, lam + mu + 1], for every lam + mu <= 8
    for lam in range(9):
        for mu in range(9 - lam):
            halves = [Fraction(k, 2) for k in range(-2, 2 * (lam + mu + 1) + 1)]
            for j in halves:
                for t in halves:
                    assert admissible_jt(lam, mu, j, t) == fraction_admissible_jt(
                        lam, mu, j, t), (lam, mu, j, t)


def test_admissibility_refuses_a_label_that_is_not_a_half_integer():
    with pytest.raises(ValueError, match="not a half-integer: 1/3"):
        admissible_jt(1, 1, Fraction(1, 3), HALF)


def test_octet_labels():
    labels = enumerate_gt_labels(1, 1)
    # (j, t) multiplets: (0, 1/2), (1/2, 0), (1/2, 1), (1, 1/2)
    jt = sorted(set((j, t) for j, t, _ in labels))
    assert jt == [
        (Fraction(0), HALF),
        (HALF, Fraction(0)),
        (HALF, Fraction(1)),
        (Fraction(1), HALF),
    ]
    assert gt_multiplets(1, 1) == jt  # in label order: ascending j, then t


def test_hypercharge_values():
    # octet: y = -1 + 2j
    assert gt_hypercharge(1, 1, 0) == -1
    assert gt_hypercharge(1, 1, HALF) == 0
    assert gt_hypercharge(1, 1, 1) == 1
    # decuplet-like (3,0): y = -2 + 2j
    assert gt_hypercharge(3, 0, Fraction(3, 2)) == 1


def test_norm_factor_validation():
    with pytest.raises(ValueError):
        gt_norm_factor(1, 0, 1, 0)  # fails mu/2 - j + t >= 0
    # admissible labels give positive radicals
    for lam, mu in IRREPS:
        for j, t, tz in enumerate_gt_labels(lam, mu):
            if tz == t:
                assert gt_norm_factor(lam, mu, j, t).sign() == 1


@pytest.mark.parametrize("lam", [Fraction(3, 2), 1.5, "3/2", 1.9, 2.7])
def test_su3_labels_are_not_truncated(lam):
    before = su3_irrep.cache_info().currsize
    for call in (lambda: su3_label(lam, 0), lambda: su3_irrep(lam, 0),
                 lambda: enumerate_gt_labels(lam, 0), lambda: gt_multiplets(lam, 0),
                 lambda: gt_label_index(lam, 0, (0, 0, 0)),
                 lambda: gt_norm_factor(lam, 0, 0, 0), lambda: gt_module(lam, 0),
                 lambda: gt_vector(lam, 0, (0, 0, 0))):
        with pytest.raises(ValueError):
            call()
    assert su3_irrep.cache_info().currsize == before


def test_gram_matrix_is_identity():
    for lam, mu in IRREPS:
        labels = enumerate_gt_labels(lam, mu)
        vecs = [gt_vector(lam, mu, lab) for lab in labels]
        for a, va in enumerate(vecs):
            for b in range(a, len(vecs)):
                dot = va.inner(vecs[b])
                assert dot == _rat(1 if a == b else 0), (lam, mu, a, b)


def test_weights_match_labels():
    # h1 = -3y/2 - ... : check via the stored weight of each coordinate:
    # every coordinate of a GT vector sits at weight (h1, h2) with
    # h2 = 2 t_z and -(2 h1 + h2)/3 = y
    for lam, mu in IRREPS:
        M = su3_irrep(lam, mu)
        for j, t, tz in enumerate_gt_labels(lam, mu):
            v = gt_vector(lam, mu, (j, t, tz))
            y = gt_hypercharge(lam, mu, j)
            for idx in v.coords:
                h1, h2 = M.weights[idx]
                assert h2 == 2 * tz
                assert -Fraction(2 * h1 + h2, 3) == y


def test_tspin_action_in_gt_basis():
    # T+ = e23, T- = e32 act within (j, t) multiplets with the standard
    # su(2) matrix elements sqrt((t -+ tz)(t +- tz + 1))
    for lam, mu in ((1, 1), (2, 1)):
        G = gt_module(lam, mu)
        labels, mats = G.tags, G.matrices
        idx = {lab: k for k, lab in enumerate(labels)}
        for j, t, tz in labels:
            col = idx[(j, t, tz)]
            up = {r for (r, c) in mats[(2, 3)] if c == col}
            if tz < t:
                target = idx[(j, t, tz + 1)]
                assert up == {target}
                assert mats[(2, 3)][(target, col)] == sqrt_of_rational(
                    (t - tz) * (t + tz + 1)
                )
            else:
                assert not up
            down = {r for (r, c) in mats[(3, 2)] if c == col}
            if tz > -t:
                target = idx[(j, t, tz - 1)]
                assert down == {target}
                assert mats[(3, 2)][(target, col)] == sqrt_of_rational(
                    (t + tz) * (t - tz + 1)
                )
            else:
                assert not down


def test_gt_module_matches_the_realized_route():
    # the closed GT formulas against the matrices read off the
    # projector-built vectors, over every irrep the guard admits
    from extremal.repmod import mat_eq
    from reference import realized_gt_module

    for lam in range(7):
        for mu in range(7 - lam):
            G, R = gt_module(lam, mu), realized_gt_module(lam, mu)
            assert (G.tags, G.weights) == (R.tags, R.weights), (lam, mu)
            assert sorted(G.matrices) == sorted(R.matrices)
            for g in G.matrices:
                assert mat_eq(G.matrices[g], R.matrices[g]), (lam, mu, g)


def test_gt_basis_matches_the_radical_route():
    # the frame route against gt_basis on Radical vectors and matrices:
    # from the highest vector of every irrep the guard admits, and from
    # each coupled highest vector of two products, multiplicity 2 included
    from extremal.su3cgc import decompose, pair_module
    from reference import reference_gt_basis

    for lam in range(7):
        for mu in range(7 - lam):
            M = su3_irrep(lam, mu)
            v = M.basis_vector(0)
            assert gt_basis(M, lam, mu, v) == reference_gt_basis(M, lam, mu, v), (lam, mu)
    for L1, L2 in (((1, 1), (1, 1)), ((2, 1), (1, 1))):
        Mt = pair_module(*L1, *L2)
        for L3, copies in decompose(*L1, *L2).items():
            for v in copies:
                assert gt_basis(Mt, *L3, v) == reference_gt_basis(Mt, *L3, v), (L1, L2, L3)


def test_gt_basis_checks_the_weight_and_reads_string_labels():
    # a highest vector of (1, 1) is no highest vector of (2, 0), and the
    # labels are read like every other su(3) label
    M = su3_irrep(1, 1)
    v = M.basis_vector(0)
    with pytest.raises(ValueError, match=r"has weight \(1, 1\), not \(2, 0\)"):
        gt_basis(M, 2, 0, v)
    with pytest.raises(ValueError, match="not an integer"):
        gt_basis(M, "1/2", 1, v)
    assert gt_basis(M, "1", "1", v) == gt_basis(M, 1, 1, v)


def test_gt_matrices_satisfy_commutators():
    # the GT-basis matrices define the same representation: spot-check
    # [e12, e21] on the octet equals e11 - e22 = diag(h1)
    from extremal.repmod import mat_eq, mat_mul
    from reference import mat_add, mat_scale

    lam, mu = 1, 1
    G = gt_module(lam, mu)
    labels, mats = G.tags, G.matrices
    comm = mat_add(
        mat_mul(mats[(1, 2)], mats[(2, 1)]),
        mat_scale(mat_mul(mats[(2, 1)], mats[(1, 2)]), -1),
    )
    diag = {}
    for k, (j, t, tz) in enumerate(labels):
        # h1 = -(3y/2 + tz) ... derive from y and tz: h1 = (-3y - 2tz)/2
        y = gt_hypercharge(lam, mu, j)
        h1 = Fraction(-3 * y - 2 * tz, 2)
        if h1:
            diag[(k, k)] = _rat(h1)
    assert mat_eq(comm, diag)


def test_gt_basis_runs_once_per_irrep_and_coupled_copy(monkeypatch):
    from extremal import su3cgc, su3gt
    from extremal.su3cgc import su3_cgc

    calls = {}
    real = su3gt.gt_basis

    def counting(M, lam, mu, v):
        key = (M.label, lam, mu)
        calls[key] = calls.get(key, 0) + 1
        return real(M, lam, mu, v)

    monkeypatch.setattr(su3gt, "gt_basis", counting)
    monkeypatch.setattr(su3cgc, "gt_basis", counting)
    su3gt._gt_basis.cache_clear()
    su3cgc.coupled_basis.cache_clear()
    for _ in range(2):
        for lam, mu in ((1, 0), (0, 1), (1, 1)):
            for lab in enumerate_gt_labels(lam, mu):
                gt_vector(lam, mu, lab)
        for g1 in enumerate_gt_labels(1, 0):
            for g2 in enumerate_gt_labels(0, 1):
                su3_cgc(1, 0, g1, 0, 1, g2, 1, 1, (HALF, 1, 0))
        for s in (1, 2):  # the octet occurs twice in 8 x 8
            for g3 in enumerate_gt_labels(1, 1):
                su3_cgc(1, 1, (0, HALF, HALF), 1, 1, (HALF, 0, 0), 1, 1, g3, s=s)
        gt_module(1, 1)
    assert calls == {
        ((1, 0), 1, 0): 1, ((0, 1), 0, 1): 1, ((1, 1), 1, 1): 1,
        (((1, 0), (0, 1)), 1, 1): 1, (((1, 1), (1, 1)), 1, 1): 2,
    }


def _lowered_per_label(M, lam, mu, top):
    from reference import gt_lower

    return [gt_lower(M, lam, mu, lab, top) for lab in enumerate_gt_labels(lam, mu)]


@pytest.mark.parametrize("lam, mu", [(l, s - l) for s in range(5) for l in range(s + 1)])
def test_gt_basis_equals_the_per_label_lowering_in_the_realized_irrep(lam, mu):
    M = su3_irrep(lam, mu)
    top = M.basis_vector(0)
    assert gt_basis(M, lam, mu, top) == _lowered_per_label(M, lam, mu, top)


def test_gt_basis_equals_the_per_label_lowering_in_the_octet_product():
    # 8 x 8 holds every irrep with lam + mu <= 4 that it decomposes into,
    # the octet twice: each copy climbs from its own coupled highest vector
    from extremal.su3cgc import decompose, pair_module

    Mt = pair_module(1, 1, 1, 1)
    found = decompose(1, 1, 1, 1)
    assert len(found[(1, 1)]) == 2
    for (lam, mu), copies in found.items():
        for hv in copies:
            assert gt_basis(Mt, lam, mu, hv) == _lowered_per_label(Mt, lam, mu, hv)


def test_gt_vector_checks_the_guard_before_enumerating_labels(monkeypatch):
    from extremal import su3gt

    def refuse(lam, mu):
        raise AssertionError("labels of (%d, %d) enumerated" % (lam, mu))

    monkeypatch.setattr(su3gt, "_gt_index", refuse)
    with pytest.raises(ValueError, match=r"desk-scale guard: lam \+ mu <= 6"):
        gt_vector(60, 60, (0, 30, 30))
