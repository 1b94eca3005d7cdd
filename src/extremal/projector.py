"""Extremal projectors: per-root factors, normal-ordered products, checks.

The factor for a positive root gamma is the series

    P_gamma = sum_n (-1)^n/n! * phi_{gamma,n} * e_{-gamma}^n e_gamma^n,
    phi_{gamma,n} = prod_{k=1..n} (h_gamma + (rho,gamma) + k)^(-1),

truncated at the element's raising bound; the full projector is the product of
the factors in a normal ordering of the positive roots.  On a module vector
of weight lam, phi_{gamma,n} is the number phi_{gamma,n}(lam): `apply_factor`
and `apply_projector` act with it and build no symbolic element.  Only the
symbolic functions import `pbw`, and so sympy, when they are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import normal_ordering
from .exact import Radical
from .repmod import ModuleVector, mat_vec

__all__ = [
    "projector_factor",
    "extremal_projector",
    "apply_factor",
    "apply_projector",
    "verify_extremal_identities",
    "IdentityReport",
    "no_go_polynomial_residual",
]


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
    """Per-root factor of the extremal projector, truncated at n = N."""
    from .pbw import RewriteEngine, TaylorElement

    if root not in sys.positive_roots:
        raise ValueError("%r is not a positive root of su(%d)" % (root, sys.n))
    if N < 0:
        raise ValueError("truncation bound must be >= 0")
    eng = engine if engine is not None else RewriteEngine(sys)
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
    return TaylorElement(eng, N, terms)


def extremal_projector(sys, order=None, N=4, engine=None):
    """Product of the per-root factors along the normal ordering, left to right."""
    from .pbw import RewriteEngine

    eng = engine if engine is not None else RewriteEngine(sys, order)
    out = eng.one(N)
    for root in eng.order.sequence:
        out = out * projector_factor(sys, root, N, engine=eng)
    return out


def apply_factor(root, v, M):
    """Act with P_gamma, gamma = root, on a module vector.

    On a component u of weight lam it is sum_n c_n e_{-gamma}^n e_gamma^n u,
    c_0 = 1, c_n = c_{n-1} / (-n (a + n)), a = <lam,gamma> + (rho,gamma),
    summed by Horner's rule until e_gamma^n u vanishes.  A component on which
    a term with a + n = 0 acts goes to zero, as in apply_element(...,
    singular="zero"): a < 0 is non-dominant, where the projector has no image.
    """
    i, j = root
    if not 1 <= i < j <= M.n:
        raise ValueError("%r is not a positive root of su(%d)" % (root, M.n))
    up, down = M.matrix(root), M.matrix((j, i))
    by_weight = {}
    for idx, val in v.coords.items():
        by_weight.setdefault(M.weights[idx], {})[idx] = val
    out = {}
    for w, u in by_weight.items():
        raised = [u]  # e_gamma^n u for n = 0, 1, ... while nonzero
        while raised[-1]:
            raised.append(mat_vec(up, raised[-1]))
        raised.pop()
        a = sum(w[i - 1:j - 1]) + j - i
        if -len(raised) < a < 0:
            continue  # a + n = 0 for a term that acts
        acc = raised[-1]
        for n in range(len(raised) - 1, 0, -1):
            ratio = Radical.from_rational(Fraction(-1, n * (a + n)))
            acc = {k: x * ratio for k, x in mat_vec(down, acc).items()}
            for k, x in raised[n - 1].items():
                acc[k] = acc[k] + x if k in acc else x
        out.update(acc)
    return ModuleVector(out)


def apply_projector(sys, v, M, order=None, engine=None):
    """Act with the extremal projector on a module vector by apply_factor,
    rightmost factor first; `engine`, if given, supplies the ordering.

    The expanded PBW product of the factors picks up spurious poles that
    cancel between its monomials; each factor alone meets poles only on
    non-dominant components, where zeroing agrees with the full projector.
    """
    if M.n != sys.n:
        raise ValueError("algebra rank mismatch")
    if engine is not None:
        order = engine.order
    for root in reversed(normal_ordering(sys, order).sequence):
        v = apply_factor(root, v, M)
        if v.is_zero():
            break
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
    from .pbw import Coeff, RewriteEngine, TaylorElement

    eng = engine if engine is not None else RewriteEngine(sys)
    big = 4 * N + 8  # large enough that nothing is dropped: computation is exact
    out = eng.one(big)
    for root in eng.order.sequence:
        factor = projector_factor(sys, root, N, engine=eng)
        # multiply every term by the product of the other terms' denominators:
        # the factor becomes (common denominator) * P_gamma, a polynomial
        fracs = {key: c.reduced() for key, c in factor.terms.items()}
        cleared = {}
        for key, c in fracs.items():
            num = c.numerator()
            for k2, c2 in fracs.items():
                if k2 != key:
                    num = num * c2.denominator()
            cleared[key] = Coeff(eng.ring, num)
        out = out * TaylorElement(eng, big, cleared)
    i, j = sys.simple_roots[0]
    e_plus = eng.generator(i, j, big)
    return (e_plus * out).canonical()
