"""Root systems of su(n) and normal orderings of the positive roots."""

import pytest

from extremal.algebra import build_root_system, default_ordering, validate_normal_ordering
from reference import enumerate_normal_orderings


def test_root_counts():
    for n in (2, 3, 4, 5, 6):
        sys_data = build_root_system(n)
        assert len(sys_data.positive_roots) == n * (n - 1) // 2
        assert len(sys_data.simple_roots) == n - 1
    with pytest.raises(ValueError):
        build_root_system(1)
    with pytest.raises(ValueError):
        build_root_system(7)


def test_rho_pairing():
    sys_data = build_root_system(3)
    assert sys_data.rho_pairing((1, 2)) == 1
    assert sys_data.rho_pairing((2, 3)) == 1
    assert sys_data.rho_pairing((1, 3)) == 2


def test_validate_normal_ordering_su3():
    sys_data = build_root_system(3)
    ok, violations = validate_normal_ordering(sys_data, ((1, 2), (1, 3), (2, 3)))
    assert ok and not violations
    ok, violations = validate_normal_ordering(sys_data, ((1, 2), (2, 3), (1, 3)))
    assert not ok
    assert violations == [((1, 2), (2, 3), (1, 3))]
    with pytest.raises(ValueError):
        validate_normal_ordering(sys_data, ((1, 2), (1, 3)))


def test_su3_has_exactly_two_normal_orderings():
    sys_data = build_root_system(3)
    orders = enumerate_normal_orderings(sys_data)
    seqs = {o.sequence for o in orders}
    assert seqs == {
        ((1, 2), (1, 3), (2, 3)),
        ((2, 3), (1, 3), (1, 2)),
    }


def test_default_ordering():
    assert default_ordering(build_root_system(2)).sequence == ((1, 2),)
    assert default_ordering(build_root_system(3)).sequence == ((1, 2), (1, 3), (2, 3))
    # the lexicographic order is the first valid one the enumeration finds
    for n in (2, 3, 4):
        sys_data = build_root_system(n)
        assert default_ordering(sys_data) == enumerate_normal_orderings(sys_data)[0]
    # and it is normal beyond the enumeration guard
    seq = default_ordering(build_root_system(5)).sequence
    sys5 = build_root_system(5)
    ok, _ = validate_normal_ordering(sys5, seq)
    assert ok


def test_every_enumerated_ordering_validates():
    for n in (2, 3, 4):
        sys_data = build_root_system(n)
        for o in enumerate_normal_orderings(sys_data):
            ok, _ = validate_normal_ordering(sys_data, o.sequence)
            assert ok
