"""Root-system data for su(n) and normal orderings of the positive roots.

Roots are keyed by index pairs (i, j) with i < j, standing for eps_i - eps_j;
the raising generator attached to (i, j) is e_ij and the lowering one is e_ji.
The inner product is normalized so every root has (gamma, gamma) = 2, which
makes the per-root denominator shifts of the projector factors integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "RootSystemData",
    "NormalOrdering",
    "build_root_system",
    "validate_normal_ordering",
    "normal_ordering",
]


@dataclass(frozen=True)
class RootSystemData:
    """Positive roots of su(n) with pairings and the e_ij correspondence."""

    n: int
    positive_roots: tuple
    simple_roots: tuple

    def rho_pairing(self, g):
        """(rho, gamma) = j - i for gamma = eps_i - eps_j."""
        i, j = g
        return Fraction(j - i)


@dataclass(frozen=True)
class NormalOrdering:
    """A permutation of the positive roots with every composite root between
    its two constituents."""

    sequence: tuple


def build_root_system(n):
    if not (2 <= n <= 6):
        raise ValueError("su(n) rank out of supported range: n=%r" % (n,))
    roots = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    simple = tuple((i, i + 1) for i in range(1, n))
    return RootSystemData(n=n, positive_roots=roots, simple_roots=simple)


def _composition_triples(sys):
    """All (alpha, beta, gamma) of positive roots with alpha + beta = gamma."""
    out = []
    for (i, j) in sys.positive_roots:
        for k in range(i + 1, j):
            out.append(((i, k), (k, j), (i, j)))
    return out


def validate_normal_ordering(sys, seq):
    """Check the betweenness condition; returns (ok, violations).

    violations lists (alpha, beta, gamma) triples with gamma = alpha + beta
    where gamma is not strictly between alpha and beta in seq.
    """
    seq = tuple(seq)
    if sorted(seq) != sorted(sys.positive_roots):
        raise ValueError("sequence is not a permutation of the positive roots")
    pos = {r: i for i, r in enumerate(seq)}
    violations = []
    for a, b, g in _composition_triples(sys):
        lo, hi = sorted((pos[a], pos[b]))
        if not (lo < pos[g] < hi):
            violations.append((a, b, g))
    return (not violations), violations


def default_ordering(sys):
    """The lexicographic order of the (i, j) pairs, which is normal for every
    su(n) and is the first normal permutation in lexicographic order; for
    su(3) it is ((1,2),(1,3),(2,3)), matching the factorized product form."""
    return NormalOrdering(sequence=tuple(sorted(sys.positive_roots)))


def normal_ordering(sys, order=None):
    """`order` (a NormalOrdering, a sequence of roots or None for the
    default) as a NormalOrdering of sys; ValueError if it is not normal."""
    if order is None:
        order = default_ordering(sys)
    elif not isinstance(order, NormalOrdering):
        order = NormalOrdering(tuple(tuple(r) for r in order))
    ok, viol = validate_normal_ordering(sys, order.sequence)
    if not ok:
        raise ValueError("not a normal ordering, violations: %r" % viol)
    return order
