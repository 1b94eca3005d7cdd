"""Gelfand-Tsetlin basis for su(3) adapted to su(3) > u_Y(1) x su_T(2) > u(1).

Basis vectors of the irrep (lam, mu) are labeled (j, t, t_z): hypercharge
y = -(2*lam + mu)/3 + 2j, T-spin t, projection t_z.  Each vector is produced
by the explicit lowering operator

    N_jt * P^t_{t_z;t} * e31^(j + mu/2 - t) * e21^(j - mu/2 + t) |h>,

where P^t is the general projection operator of the T-spin su(2) subalgebra
(T+ = e23, T- = e32, T0 = (e22 - e33)/2) and N_jt a closed-form factorial
normalization; its extremal part is the (2,3) factor of the su(3) projector,
applied by `projector.apply_factor`.  `gt_module` reads the generator
matrices in the GT basis off by exact inner products, so the irrep can also
be used over its GT basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import factorial_ratio, half, projections, spin_range, sqrt_of_rational
from .projector import apply_factor
from .repmod import Irrep, ModuleVector, mat_pow_vec, mat_vec, su3_irrep

__all__ = [
    "enumerate_gt_labels",
    "gt_hypercharge",
    "gt_norm_factor",
    "gt_vector",
    "gt_lower",
    "gt_module",
    "su3_engine",
]


def su3_engine():
    """pbw.shared_engine(3), kept because perfbench/families.py imports it."""
    from .pbw import shared_engine

    return shared_engine(3)


def admissible_jt(lam, mu, j, t):
    """The four label inequalities plus the integrality of mu/2 + j + t."""
    mu2 = Fraction(mu, 2)
    if j < 0 or t < 0:
        return False
    if (mu2 + j + t).denominator != 1:
        return False
    return (
        mu2 + j - t >= 0
        and -mu2 + j + t >= 0
        and mu2 - j + t >= 0
        and mu2 + j + t <= lam + mu
    )


def enumerate_gt_labels(lam, mu):
    """All (j, t, t_z) labels of (lam, mu) in a fixed deterministic order.

    Order: ascending j, then ascending t, then descending t_z; the first
    label is the highest-weight one (0, mu/2, mu/2).
    """
    lam, mu = int(lam), int(mu)
    if lam < 0 or mu < 0:
        raise ValueError("labels must be nonnegative")
    mu2 = Fraction(mu, 2)
    out = []
    for j in spin_range(0, lam + mu):
        # admissible_jt's inequalities solved for t; stepping by 1 from
        # |j - mu/2| keeps mu/2 + j + t integral
        t = abs(j - mu2)
        while t <= min(j + mu2, lam + mu2 - j):
            out.extend((j, t, tz) for tz in projections(t))
            t += 1
    return out


def gt_hypercharge(lam, mu, j):
    return -Fraction(2 * lam + mu, 3) + 2 * Fraction(j)


def gt_norm_factor(lam, mu, j, t):
    """Normalization N^{(lam mu)}_{jt}: positive square root of a factorial
    ratio that makes the lowering-operator vector unit length; computed once
    per (lam, mu, j, t)."""
    lam, mu = int(lam), int(mu)
    j, t = half(j), half(t)
    if not admissible_jt(lam, mu, j, t):
        raise ValueError("inadmissible (j, t) = (%s, %s) for (%d, %d)" % (j, t, lam, mu))
    return _gt_norm_factor(lam, mu, j, t)


@lru_cache(maxsize=None)
def _gt_norm_factor(lam, mu, j, t):
    mu2 = Fraction(mu, 2)
    ratio = factorial_ratio(
        [lam + mu2 - j + t + 1, lam + mu2 - j - t, mu2 + j + t + 1, mu2 - j + t],
        [lam, mu, lam + mu + 1, j + mu2 - t, j - mu2 + t, 2 * t + 1],
    )
    return sqrt_of_rational(ratio)


def gt_lower(M, lam, mu, label, v):
    """Apply the GT lowering operator of (lam, mu) for `label` to v in M."""
    j, t, tz = (half(x) for x in label)
    mu2 = Fraction(mu, 2)
    coords = mat_pow_vec(M.matrix((2, 1)), v.coords, j - mu2 + t)
    coords = mat_pow_vec(M.matrix((3, 1)), coords, j + mu2 - t)
    w = apply_factor((2, 3), ModuleVector(coords), M)
    w = ModuleVector(mat_pow_vec(M.matrix((3, 2)), w.coords, t - tz))
    scalar = sqrt_of_rational(factorial_ratio([t + tz], [2 * t, t - tz]))
    return w.scale(gt_norm_factor(lam, mu, j, t) * scalar)


def gt_vector(lam, mu, label):
    """The GT basis vector for `label` as exact coordinates in the realized
    module of su3_irrep(lam, mu)."""
    lam, mu = int(lam), int(mu)
    v = _gt_basis(lam, mu)[1].get(tuple(label))
    if v is None:  # the basis holds exactly the admissible labels
        raise ValueError("inadmissible GT label %s for (%d, %d)" % (label, lam, mu))
    return v


@lru_cache(maxsize=None)
def _gt_basis(lam, mu):
    """The module and {label: GT vector} in label order, built once."""
    M = su3_irrep(lam, mu)
    top = M.basis_vector(0)
    return M, {lab: gt_lower(M, lam, mu, lab, top) for lab in enumerate_gt_labels(lam, mu)}


@lru_cache(maxsize=None)
def gt_module(lam, mu):
    """The irrep (lam, mu) over its GT basis, built once.

    Tags are the GT labels in label order, weights those of the GT vectors,
    and entry (r, c) of e_ij is <gt_r| e_ij |gt_c>, exact over Radical; only
    the rows in the weight space of e_ij |gt_c> are computed.
    """
    M, by_label = _gt_basis(lam, mu)
    vecs = list(by_label.values())
    weights = [M.weights[next(iter(v.coords))] for v in vecs]
    in_weight = {}
    for r, w in enumerate(weights):
        in_weight.setdefault(w, []).append(r)
    mats = {}
    for g, pm in M.matrices.items():
        mat = {}
        for c, vc in enumerate(vecs):
            img = ModuleVector(mat_vec(pm, vc.coords))
            if img.is_zero():
                continue
            for r in in_weight[M.weights[next(iter(img.coords))]]:
                dot = vecs[r].inner(img)
                if dot:
                    mat[(r, c)] = dot
        mats[g] = mat
    return Irrep(algebra="su3", n=3, label=(lam, mu), tags=list(by_label),
                 weights=weights, matrices=mats)
