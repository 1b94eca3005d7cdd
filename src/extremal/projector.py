"""Extremal projectors: per-root factors, normal-ordered products, checks.

The factor for a positive root gamma is the series

    P_gamma = sum_n (-1)^n/n! * phi_{gamma,n} * e_{-gamma}^n e_gamma^n,
    phi_{gamma,n} = prod_{k=1..n} (h_gamma + (rho,gamma) + k)^(-1),

truncated at the element's raising bound; the full projector is the product of
the factors in a normal ordering of the positive roots.  On a module vector
of weight lam, phi_{gamma,n} is the number phi_{gamma,n}(lam): `apply_factor`
and `apply_projector` act with it and build no symbolic element, over the
module's rational frame (`factor_on_frame`), in ints.  Only the
symbolic functions import `pbw`, when they are called, and `pbw` loads sympy
only to parse or convert expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import default_ordering, normal_ordering
from .repmod import frame_apply, frame_sum

__all__ = [
    "projector_factor",
    "extremal_projector",
    "apply_factor",
    "factor_on_frame",
    "apply_projector",
    "verify_extremal_identities",
    "IdentityReport",
    "no_go_polynomial_residual",
]


def projector_factor(sys, root, N, engine=None):
    """Per-root factor of the extremal projector, truncated at n = N."""
    from .pbw import RewriteEngine, TaylorElement

    if root not in sys.positive_roots:
        raise ValueError("%r is not a positive root of su(%d)" % (root, sys.n))
    if N < 0:
        raise ValueError("truncation bound must be >= 0")
    eng = engine if engine is not None else RewriteEngine(sys)
    _check_rank(sys, eng)
    i, j = root
    svec, shift = eng.root_weight((((i, j), 1),)), int(sys.rho_pairing(root))
    terms = {}
    for n in range(N + 1):
        # The series coefficient phi_n is written to the LEFT of the lowering
        # word; in L * C * R normal form it sits in the middle, past
        # e_{-gamma}^n: phi(h) e_-g^n = e_-g^n phi(h + n*s), and h_gamma
        # moves by -2 under s, so the middle is, with every root normalized
        # to (gamma,gamma) = 2, prod_k (h_gamma + (rho,gamma) + k - 2n)^(-1)
        mid = eng.recip_linear([(svec, shift + k - 2 * n) for k in range(1, n + 1)])
        key = ((((j, i), n),) if n else (), (((i, j), n),) if n else ())
        terms[key] = mid * Fraction((-1) ** n, math.factorial(n))
    return TaylorElement(eng, N, terms)


def _check_rank(sys, engine):
    """ValueError unless `engine` straightens in the algebra of `sys`."""
    if engine.n != sys.n:
        raise ValueError("an engine of su(%d) for a root system of su(%d)" % (engine.n, sys.n))


def _engine_order(sys, order, engine):
    """engine.order, which its engine validated; ValueError if the engine
    is of another rank, or if `order` is given and is another ordering."""
    _check_rank(sys, engine)
    if order is not None:
        order = normal_ordering(sys, order)
        if order != engine.order:
            raise ValueError("order %s differs from the engine's ordering %s"
                             % (order.sequence, engine.order.sequence))
    return engine.order


def extremal_projector(sys, order=None, N=4, engine=None):
    """Product of the per-root factors along the normal ordering, left to
    right.  With no `engine`, the default ordering (None, or its sequence)
    uses `pbw.shared_engine`, and any other ordering a new engine."""
    from .pbw import RewriteEngine, shared_engine

    if engine is None:  # an engine validates `order` and holds it
        seq = getattr(order, "sequence", order)
        if seq is None or tuple(map(tuple, seq)) == default_ordering(sys).sequence:
            engine = shared_engine(sys.n)
        else:
            engine = RewriteEngine(sys, order)
        order = None
    out = engine.one(N)
    for root in _engine_order(sys, order, engine).sequence:
        out = out * projector_factor(sys, root, N, engine=engine)
    return out


def apply_factor(root, v, M):
    """Act with P_gamma, gamma = root, on a module vector, over M's frame
    (`factor_on_frame`)."""
    return M.from_frame(factor_on_frame(root, M.to_frame(v), M))


def factor_on_frame(root, parts, M):
    """Act with P_gamma, gamma = root, on the frame parts {k: (s, x)} of a
    vector of M (`Irrep.to_frame`), in int arithmetic on each part's x.

    On a component u of weight lam it is sum_n c_n e_{-gamma}^n e_gamma^n u,
    c_0 = 1, c_n = c_{n-1} / (-n (a + n)), a = <lam,gamma> + (rho,gamma),
    summed by Horner's rule until e_gamma^n u vanishes.  A component on which
    a term with a + n = 0 acts goes to zero, as in the zeroing oracle of the
    tests: a < 0 is non-dominant, where the projector has no image.
    """
    i, j = root
    if not 1 <= i < j <= M.n:
        raise ValueError("%r is not a positive root of su(%d)" % (root, M.n))
    up, down = M.frame[root], M.frame[(j, i)]
    out = {}
    for k, (s, x) in parts.items():
        by_weight = {}
        for idx, val in x.items():
            by_weight.setdefault(M.weights[idx], {})[idx] = val
        acted = []
        for w, u in by_weight.items():
            raised = [(1, u)]  # e_gamma^n u for n = 0, 1, ... while nonzero
            while raised[-1][1]:
                raised.append(frame_apply(up, raised[-1]))
            raised.pop()
            a = sum(w[i - 1:j - 1]) + j - i
            if -len(raised) < a < 0:
                continue  # a + n = 0 for a term that acts
            acc = raised[-1]
            for n in range(len(raised) - 1, 0, -1):
                t, y = frame_apply(down, acc)
                acc = frame_sum([(t * Fraction(-1, n * (a + n)), y), raised[n - 1]])
            acted.append(acc)
        t, y = frame_sum(acted)
        out[k] = (s * t, y)
    return out


def apply_projector(sys, v, M, order=None, engine=None):
    """Act with the extremal projector on a module vector by
    `factor_on_frame`, rightmost factor first, over M's frame; an `engine`
    supplies the ordering, and `order` must match it.

    The expanded PBW product of the factors picks up spurious poles that
    cancel between its monomials; each factor alone meets poles only on
    non-dominant components, where zeroing agrees with the full projector.
    """
    if M.n != sys.n:
        raise ValueError("algebra rank mismatch")
    order = normal_ordering(sys, order) if engine is None else _engine_order(sys, order, engine)
    parts = M.to_frame(v)
    for root in reversed(order.sequence):
        parts = factor_on_frame(root, parts, M)
        if not any(parts.values()):
            break
    return M.from_frame(parts)


@dataclass
class IdentityReport:
    """Residuals of the defining identities, modulo the filtration."""

    annihilation_left: dict   # root -> residual monomial list for e_gamma P
    annihilation_right: dict  # root -> residual monomial list for P e_{-gamma}
    idempotency: list         # residual monomials of P^2 - P

    CHECKS = ("annihilation_left", "annihilation_right", "idempotency")

    def failures(self):
        """(check, root, residual) for each nonempty residual, in CHECKS
        order; the root is None for idempotency."""
        out = [(check, root, res)
               for check in self.CHECKS[:2]
               for root, res in getattr(self, check).items() if res]
        if self.idempotency:
            out.append(("idempotency", None, self.idempotency))
        return out

    @property
    def ok(self):
        return not self.failures()


def verify_extremal_identities(P):
    """Check e_gamma P = P e_{-gamma} = 0 (simple gamma) and P^2 = P.

    All checks are modulo the filtration F_{N-1}, N = P.bound: multiplying by
    a generator can pull one unit of raising degree out of the dropped tail,
    so residual monomials of raising degree >= N are expected and ignored.

    Each product is therefore cut at raising degree N - 1.  This is exact:
    `TaylorElement.mul` keeps or drops each output term by that term's own
    raising degree, so the cut product holds exactly the full product's
    terms of degree <= N - 1, the only ones a residual keeps.  The inputs
    stay at bound N, because in su(3) and above straightening can lower the
    raising degree (e23 e12 = e12 e23 - e13), so their degree-N terms still
    reach degree N - 1.  What the cut saves is straightening: `mul` skips
    every word whose raising part must exceed height (N - 1)(n - 1), the
    most a raising word of degree N - 1 can have, by the weight that
    straightening keeps.
    """
    eng, N = P.engine, P.bound
    deg = N - 1
    left, right = {}, {}
    for root in eng.sys.simple_roots:
        i, j = root
        e_plus = eng.generator(i, j, N)
        e_minus = eng.generator(j, i, N)
        left[root] = e_plus.mul(P, deg).residual(eng.zero(N), deg)
        right[root] = P.mul(e_minus, deg).residual(eng.zero(N), deg)
    idem = P.mul(P, deg).residual(P, deg)
    return IdentityReport(annihilation_left=left, annihilation_right=right, idempotency=idem)


def no_go_polynomial_residual(sys, N):
    """Negative control for the no-go theorem.

    Clears the denominators of the truncated su(2)-type factor product (so the
    element is an honest polynomial of the generators) and returns the exact,
    untruncated normal form of e_gamma * P_poly for the first simple root.
    A nonzero result witnesses that no polynomial solves the annihilation
    equations; the series identity lives only in the Taylor extension.  It
    builds on `pbw.shared_engine`.  ValueError for N < 1: at N = 0 every
    factor is 1, and the "residual" is e_gamma itself.
    """
    from .pbw import TaylorElement, shared_engine

    if N < 1:
        raise ValueError("truncation bound must be >= 1 for the no-go control")
    eng = shared_engine(sys.n)
    big = 4 * N + 8  # large enough that nothing is dropped: computation is exact
    out = eng.one(big)
    for root in eng.order.sequence:
        factor = projector_factor(sys, root, N, engine=eng)
        # multiply every term by the product of the other terms' denominators:
        # the factor becomes (common denominator) * P_gamma, a polynomial
        fracs = {key: c.reduced() for key, c in factor.terms.items()}
        cleared = {}
        for key, c in fracs.items():
            others = {}
            for k2, c2 in fracs.items():
                if k2 != key:
                    for form, m in c2.den.items():
                        others[form] = others.get(form, 0) + m
            cleared[key] = c.cleared(others)
        out = out * TaylorElement(eng, big, cleared)
    i, j = sys.simple_roots[0]
    e_plus = eng.generator(i, j, big)
    return (e_plus * out).canonical()
