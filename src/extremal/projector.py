"""Extremal projectors: per-root factors, normal-ordered products, checks.

The factor for a positive root gamma is the series

    P_gamma = sum_n (-1)^n/n! * phi_{gamma,n} * e_{-gamma}^n e_gamma^n,
    phi_{gamma,n} = prod_{k=1..n} (h_gamma + (rho,gamma) + k)^(-1),

truncated at the element's raising bound; the full projector is the product of
the factors in a normal ordering of the positive roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .pbw import Coeff, RewriteEngine, TaylorElement

__all__ = [
    "ProjectorFactor",
    "projector_factor",
    "extremal_projector",
    "verify_extremal_identities",
    "IdentityReport",
    "no_go_polynomial_residual",
]


@dataclass
class ProjectorFactor:
    root: tuple
    series: TaylorElement


def phi_expr(engine, root, n):
    """phi_{gamma,n}: reciprocal Pochhammer in h_gamma with integer step.

    With every root normalized to (gamma,gamma) = 2 the step (gamma,gamma)/2
    is 1 and the additive shift is (rho,gamma) = j - i.
    """
    i, j = root
    svec = engine.h_span_vec(i, j)
    shift = int(engine.sys.rho_pairing(root))
    return engine.recip_linear([(svec, shift + k) for k in range(1, n + 1)])


def projector_factor(sys, root, N, engine=None):
    """Per-root factor of the extremal projector, truncated at n = N; built
    once per (engine, root, N) and kept on the engine."""
    if root not in sys.positive_roots:
        raise ValueError("%r is not a positive root of su(%d)" % (root, sys.n))
    if N < 0:
        raise ValueError("truncation bound must be >= 0")
    eng = engine if engine is not None else RewriteEngine(sys)
    # the memo holds the terms, not the series: a series refers back to the
    # engine, and that cycle would keep every discarded engine alive until a
    # full garbage collection
    terms = eng._factor_cache.get((root, N))
    if terms is None:
        i, j = root
        low_shift = eng.shift_vector((j, i))
        terms = {}
        for n in range(N + 1):
            # The series coefficient phi_n is written to the LEFT of the lowering
            # word; in L * C * R normal form it sits in the middle, so commute it
            # through e_{-gamma}^n first:  phi(h) e_-g^n = e_-g^n phi(h + n*s).
            phi = phi_expr(eng, root, n)
            mid = eng.shift_expr(phi, low_shift, scale=n) if n else phi
            key = ((((j, i), n),) if n else (), (((i, j), n),) if n else ())
            terms[key] = mid * Fraction((-1) ** n, math.factorial(n))
        eng._factor_cache[(root, N)] = terms
    return ProjectorFactor(root=root, series=TaylorElement(eng, N, terms))


def extremal_projector(sys, order=None, N=4, engine=None):
    """Product of the per-root factors along the normal ordering, left to right."""
    eng = engine if engine is not None else RewriteEngine(sys, order)
    out = eng.one(N)
    for root in eng.order.sequence:
        out = out * projector_factor(sys, root, N, engine=eng).series
    return out


def projector_factors(sys, order=None, N=4, engine=None):
    """The per-root factor series along the normal ordering, left to right."""
    eng = engine if engine is not None else RewriteEngine(sys, order)
    return [projector_factor(sys, root, N, engine=eng).series for root in eng.order.sequence]


def apply_projector(sys, v, M, order=None, N=None, engine=None):
    """Act with the extremal projector on a module vector, factor by factor.

    The expanded PBW form of a product of factors can pick up spurious poles:
    cross monomials that are singular at weights where the product itself is
    regular, the singularities cancelling between monomials.  Applying the
    factors sequentially (rightmost first) avoids them: each factor's
    denominators depend only on its own root, every pole it can hit lies on a
    non-dominant component, and zeroing that component agrees with the full
    projector there.
    """
    from .repmod import apply_element

    if N is None:
        N = M.weight_diameter
    for f in reversed(projector_factors(sys, order, N, engine=engine)):
        v = apply_element(f, v, M, singular="zero")
        if v.is_zero():
            return v
    return v


@dataclass
class IdentityReport:
    """Residuals of the defining identities, modulo the filtration."""

    annihilation_left: dict   # root -> residual monomial list for e_gamma P
    annihilation_right: dict  # root -> residual monomial list for P e_{-gamma}
    idempotency: list         # residual monomials of P^2 - P

    @property
    def ok(self):
        return (
            all(not v for v in self.annihilation_left.values())
            and all(not v for v in self.annihilation_right.values())
            and not self.idempotency
        )


def verify_extremal_identities(P, sys, N, engine=None):
    """Check e_gamma P = P e_{-gamma} = 0 (simple gamma) and P^2 = P.

    All checks are modulo the filtration F_{N-1}: multiplying by a generator
    can pull one unit of raising degree out of the dropped tail, so residual
    monomials of raising degree >= N are expected and ignored.
    """
    eng = engine if engine is not None else P.engine
    deg = N - 1
    left, right = {}, {}
    for root in sys.simple_roots:
        i, j = root
        e_plus = eng.generator(i, j, N)
        e_minus = eng.generator(j, i, N)
        left[root] = (e_plus * P).canonical().residual(eng.zero(N), deg)
        right[root] = (P * e_minus).canonical().residual(eng.zero(N), deg)
    idem = (P * P).canonical().residual(P, deg)
    return IdentityReport(annihilation_left=left, annihilation_right=right, idempotency=idem)


def no_go_polynomial_residual(sys, N, engine=None):
    """Negative control for the no-go theorem.

    Clears the denominators of the truncated su(2)-type factor product (so the
    element is an honest polynomial of the generators) and returns the exact,
    untruncated normal form of e_gamma * P_poly for the first simple root.
    A nonzero result witnesses that no polynomial solves the annihilation
    equations; the series identity lives only in the Taylor extension.
    """
    eng = engine if engine is not None else RewriteEngine(sys)
    big = 4 * N + 8  # large enough that nothing is dropped: computation is exact
    out = eng.one(big)
    for root in eng.order.sequence:
        factor = projector_factor(sys, root, N, engine=eng).series
        # multiply every term by the product of the other terms' denominators:
        # the factor becomes (common denominator) * P_gamma, a polynomial
        fracs = {key: c.reduced() for key, c in factor.terms.items()}
        cleared = {}
        for key, c in fracs.items():
            num = c.num
            for k2, c2 in fracs.items():
                if k2 != key:
                    num = num * c2.denominator()
            cleared[key] = Coeff(eng.ring, num)
        out = out * TaylorElement(eng, big, cleared)
    i, j = sys.simple_roots[0]
    e_plus = eng.generator(i, j, big)
    return (e_plus * out).canonical()
