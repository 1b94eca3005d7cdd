"""Gelfand-Tsetlin bases for su(3): labels, orthonormality, subalgebra action."""

from fractions import Fraction

import pytest

from extremal.exact import Radical, sqrt_of_rational
from extremal.repmod import su3_irrep
from extremal.su3gt import (
    admissible_jt,
    enumerate_gt_labels,
    gt_hypercharge,
    gt_module,
    gt_norm_factor,
    gt_vector,
)

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
    """Every half-integer (j, t) pair through admissible_jt: the reference
    for the closed-form ranges of enumerate_gt_labels."""
    out = []
    for jj in range(0, 2 * (lam + mu) + 1):
        for tt in range(0, 2 * (lam + mu) + 1):
            j, t = Fraction(jj, 2), Fraction(tt, 2)
            if not admissible_jt(lam, mu, j, t):
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
    real = su3gt.factorial_ratio

    def counting(num, den):
        calls.append(1)
        return real(num, den)

    monkeypatch.setattr(su3gt, "factorial_ratio", counting)
    su3gt._gt_norm_factor.cache_clear()
    jts = {(lam, mu, j, t) for lam, mu in IRREPS
           for j, t, _ in enumerate_gt_labels(lam, mu)}
    first = {key: gt_norm_factor(*key) for key in jts}
    for lam, mu, j, t in jts:  # again, with other argument types
        assert gt_norm_factor(str(lam), float(mu), str(j), float(t)) == first[(lam, mu, j, t)]
    assert len(calls) == len(jts)


def test_admissibility():
    assert admissible_jt(1, 1, HALF, 1)
    assert not admissible_jt(1, 1, HALF, HALF)  # mu/2 + j + t not an integer
    assert not admissible_jt(1, 0, Fraction(2), Fraction(0))
    assert not admissible_jt(1, 0, Fraction(-1), Fraction(0))


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


def test_gt_lower_runs_once_per_label(monkeypatch):
    from extremal import su3gt
    from extremal.su3cgc import su3_cgc

    calls = {}
    real = su3gt.gt_lower

    def counting(M, lam, mu, label, v):
        key = (lam, mu) + tuple(label)
        calls[key] = calls.get(key, 0) + 1
        return real(M, lam, mu, label, v)

    monkeypatch.setattr(su3gt, "gt_lower", counting)
    su3gt._gt_basis.cache_clear()
    for _ in range(2):
        for lam, mu in ((1, 0), (0, 1), (1, 1)):
            for lab in enumerate_gt_labels(lam, mu):
                gt_vector(lam, mu, lab)
        for g1 in enumerate_gt_labels(1, 0):
            for g2 in enumerate_gt_labels(0, 1):
                su3_cgc(1, 0, g1, 0, 1, g2, 1, 1, (HALF, 1, 0))
        gt_module(1, 1)
    want = {(lam, mu) + lab for lam, mu in ((1, 0), (0, 1), (1, 1))
            for lab in enumerate_gt_labels(lam, mu)}
    assert set(calls) == want
    assert set(calls.values()) == {1}
