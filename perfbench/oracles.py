"""Answer checks, one per request family, each by a route independent of the
one that produced the answer, and the perturbations of the self-test.

A check returns None when the answer is right and a one-line reason when it
is not.  Checks run after the stream has ended and its peak RSS was read;
this module imports sympy and the package only inside the checks.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import halves, projections, su3_dim


def _opts(argv):
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            out[tok[2:]] = argv[i + 1]
    return out


def _sym(x):
    import sympy

    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return sympy.sympify(str(x))


def _equal(value, ref):
    import sympy

    return sympy.expand(_sym(value) - ref) == 0


def _records(answer):
    return json.loads(answer)["records"]


# -- su(2): sympy.physics.wigner --------------------------------------


def check_cgc_su2(req, answer, ctx):
    from sympy.physics.wigner import clebsch_gordan

    opts = _opts(req["args"]["argv"])
    j1, j2 = Fraction(opts["j1"]), Fraction(opts["j2"])
    got = {}
    for r in _records(answer):
        key = tuple(Fraction(r[k]) for k in ("j3", "m3", "m1", "m2"))
        got[key] = r["value"]
    j3s = [Fraction(opts["j3"])] if "j3" in opts else halves(j1 + j2, abs(j1 - j2))
    for j3 in j3s:
        if (j1 + j2 + j3).denominator != 1:
            continue
        for m3 in projections(j3):
            for m1 in projections(j1):
                m2 = m3 - m1
                if abs(m2) > j2:
                    continue
                ref = clebsch_gordan(*(_sym(x) for x in (j1, j2, j3, m1, m2, m3)))
                value = got.pop((j3, m3, m1, m2), "0")
                if not _equal(value, ref):
                    return "(%s %s %s %s|%s %s) = %s, wigner gives %s" % (
                        j1, m1, j2, m2, j3, m3, value, ref)
    if got:
        return "records outside the table: %s" % sorted(got)[:1]
    return None


def check_sixj(req, answer, ctx):
    from sympy.physics.wigner import wigner_6j

    opts = _opts(req["args"]["argv"])
    js = [Fraction(opts["j%d" % k]) for k in range(1, 7)]
    (rec,) = _records(answer)
    ref = wigner_6j(*(_sym(x) for x in js))
    if not _equal(rec["value"], ref):
        return "{%s} = %s, wigner gives %s" % (" ".join(map(str, js)), rec["value"], ref)
    return None


def check_ninej(req, answer, ctx):
    from sympy.physics.wigner import wigner_9j

    opts = _opts(req["args"]["argv"])
    js = [Fraction(opts["j%d" % k]) for k in range(1, 10)]
    (rec,) = _records(answer)
    ref = wigner_9j(*(_sym(x) for x in js))
    if not _equal(rec["value"], ref):
        return "{%s} = %s, wigner gives %s" % (" ".join(map(str, js)), rec["value"], ref)
    return None


def check_cgc_proj(req, answer, ctx):
    from sympy.physics.wigner import clebsch_gordan

    j1, m1, j2, m2, j3, m3 = (Fraction(x) for x in req["args"]["jm"])
    ref = clebsch_gordan(*(_sym(x) for x in (j1, j2, j3, m1, m2, m3)))
    if not _equal(answer, ref):
        return "(%s %s %s %s|%s %s) = %s, wigner gives %s" % (
            j1, m1, j2, m2, j3, m3, answer, ref)
    return None


# -- su(3) modules ---------------------------------------------------


def _rad(text):
    from extremal.exact import parse_radical

    return parse_radical(text)


def _dot(u, v):
    from extremal.exact import Radical

    out = Radical.from_rational(0)
    for k, x in u.items():
        y = v.get(k)
        if y is not None:
            out = out + x * y
    return out


def _orthonormal(rows):
    """None if the sparse Radical vectors are orthonormal, else a reason."""
    for a, u in enumerate(rows):
        for b in range(a, len(rows)):
            d = _dot(u, rows[b])
            if d != (1 if a == b else 0):
                return "rows %d, %d have inner product %s" % (a, b, d)
    return None


def check_gt_basis(req, answer, ctx):
    opts = _opts(req["args"]["argv"])
    lam, mu = int(opts["lam"]), int(opts["mu"])
    recs = _records(answer)
    labels = {(r["j"], r["t"], r["tz"]) for r in recs}
    if len(recs) != su3_dim(lam, mu) or len(labels) != len(recs):
        return "%d vectors with %d labels for (%d,%d), dimension %d" % (
            len(recs), len(labels), lam, mu, su3_dim(lam, mu))
    rows = []
    for r in recs:
        vec = {}
        for item in r["coords"].split(";"):
            i, v = item.split(":", 1)
            vec[int(i)] = _rad(v)
        rows.append(vec)
    return _orthonormal(rows)


def check_cgc_su3(req, answer, ctx):
    opts = _opts(req["args"]["argv"])
    rows = {}
    for r in _records(answer):
        row = (r["lam3"], r["mu3"], r["s"], r["j3"], r["t3"], r["tz3"])
        col = (r["j1"], r["t1"], r["tz1"], r["j2"], r["t2"], r["tz2"])
        rows.setdefault(row, {})[col] = _rad(r["value"])
    if "lam3" not in opts:
        n = su3_dim(int(opts["lam1"]), int(opts["mu1"])) * su3_dim(
            int(opts["lam2"]), int(opts["mu2"]))
        if len(rows) != n:
            return "%d coupled rows for a product of dimension %d" % (len(rows), n)
    return _orthonormal([rows[k] for k in sorted(rows)])


def _pme_key(req):
    return json.dumps({k: v for k, v in req["args"].items() if k != "route"},
                      sort_keys=True)


def check_pme(req, answer, ctx):
    other = ctx.partner(req)
    if other is None:
        return "no answer by the other route"
    if answer != other:
        return "route %s gives %s, the other route %s" % (
            req["args"]["route"], answer, other)
    return None


def _kernel(rows, cols):
    """Basis of {x over cols : row . x = 0 for every row}, exact."""
    from extremal.exact import Radical

    pivots = []  # (col, row normalized to 1 at col)
    for row in rows:
        r = dict(row)
        for c, p in pivots:
            f = r.get(c)
            if f:
                for k, v in p.items():
                    r[k] = r.get(k, Radical.from_rational(0)) - f * v
                r = {k: v for k, v in r.items() if v}
        if not r:
            continue
        c = min(r)
        inv = r[c].inverse()
        r = {k: v * inv for k, v in r.items()}
        for i, (c2, p) in enumerate(pivots):
            f = p.get(c)
            if f:
                q = dict(p)
                for k, v in r.items():
                    q[k] = q.get(k, Radical.from_rational(0)) - f * v
                pivots[i] = (c2, {k: v for k, v in q.items() if v})
        pivots.append((c, r))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in cols:
        if free in pivot_cols:
            continue
        vec = {free: Radical.from_rational(1)}
        for c, p in pivots:
            f = p.get(free)
            if f:
                vec[c] = -f
        basis.append(vec)
    return basis


def check_apply_proj(req, answer, ctx):
    """P v must be the orthogonal projection of v onto the highest-weight
    vectors of v's weight, found here as the kernel of e12 and e23."""
    from extremal.exact import Radical
    from extremal.repmod import mat_vec

    a = req["args"]
    M = ctx.tensor_module(tuple(a["L1"]), tuple(a["L2"]))
    idx = a["index"]
    w = M.weights[idx]
    pv = answer.coords
    if any(M.weights[i] != w for i in pv):
        return "projection leaves the weight %s" % (w,)
    for g in ((1, 2), (2, 3)):
        if mat_vec(M.matrix(g), pv):
            return "e%d%d does not annihilate the projection" % g
    space = [i for i, x in enumerate(M.weights) if x == w]
    rows = []
    for g in ((1, 2), (2, 3)):
        by_row = {}
        for (r, c), v in M.matrix(g).items():
            if M.weights[c] == w:
                by_row.setdefault(r, {})[c] = v
        rows.extend(by_row.values())
    rest = {idx: Radical.from_rational(1)}
    for i, v in pv.items():
        rest[i] = rest.get(i, Radical.from_rational(0)) - v
    for k in _kernel(rows, space):
        if _dot(rest, k):
            return "v - Pv is not orthogonal to the highest-weight space"
    return None


# -- symbolic ---------------------------------------------------------


def check_verify(req, answer, ctx):
    recs = _records(answer)
    if len(recs) != 3:
        return "%d checks reported, expected 3" % len(recs)
    bad = [r["check"] for r in recs if r["ok"] is not True]
    return "checks failed: %s" % bad if bad else None


def _annihilation(P, N):
    """None if e_g P and P e_-g vanish modulo F_(N-1) for simple g and P
    has constant term 1, else a reason."""
    eng = P.engine
    const = P.terms.get(((), ()))
    if const is None or not const.reduced().is_one():
        return "constant term is %s, not 1" % const
    for i, j in eng.sys.simple_roots:
        for side, prod in (("e%d%d P" % (i, j), eng.generator(i, j, N) * P),
                           ("P e%d%d" % (j, i), P * eng.generator(j, i, N))):
            res = prod.canonical().residual(eng.zero(N), N - 1)
            if res:
                return "%s leaves %d monomials" % (side, len(res))
    return None


def _parse_word(text):
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        out.append(((int(name[1]), int(name[2])), int(exp or 1)))
    return tuple(out)


def check_projector(req, answer, ctx):
    """Rebuild the printed series on a fresh engine with the same ordering
    and check the defining annihilation identities."""
    import sympy

    from extremal.algebra import build_root_system
    from extremal.pbw import RewriteEngine, TaylorElement

    opts = _opts(req["args"]["argv"])
    n, N = {"su2": 2, "su3": 3}[opts["algebra"]], int(opts["trunc"])
    order = None
    if "order" in opts:
        order = tuple((int(t[0]), int(t[1])) for t in opts["order"].split(","))
    eng = RewriteEngine(build_root_system(n), order)
    terms = {}
    for r in _records(answer):
        key = (_parse_word(r["lowering"]), _parse_word(r["raising"]))
        terms[key] = eng.coeff(sympy.sympify(r["coefficient"]))
    return _annihilation(TaylorElement(eng, N, terms), N)


def check_su4_proj(req, answer, ctx):
    return _annihilation(answer, req["args"]["N"])


def check_ef(req, answer, ctx):
    """e^a f^b = sum_k k! C(a,k) C(b,k) f^(b-k) prod_i (h-a-b+k+i) e^(a-k)."""
    import math

    import sympy

    a, b = req["args"]["a"], req["args"]["b"]
    h = sympy.Symbol("h1")
    want = {}
    for k in range(min(a, b) + 1):
        low = (((2, 1), b - k),) if b - k else ()
        high = (((1, 2), a - k),) if a - k else ()
        c = math.factorial(k) * math.comb(a, k) * math.comb(b, k)
        want[(low, high)] = c * sympy.prod([h - a - b + k + i for i in range(1, k + 1)])
    got = answer.canonical().terms
    if set(got) != set(want):
        return "monomials %s, closed formula %s" % (sorted(got), sorted(want))
    for key, c in got.items():
        if sympy.expand(c.as_expr() - want[key]) != 0:
            return "coefficient of %s is %s, closed formula %s" % (
                key, c.as_expr(), want[key])
    return None


def check_word(req, answer, ctx):
    """Matrix of the normal form on a module equals the product of the
    generator matrices of the word (acceptance criterion 8)."""
    from extremal.repmod import mat_eq, mat_mul, matrix_of

    from families import letters

    M = ctx.word_module(req["args"]["n"])
    prod = None
    for g in letters(req["args"]["word"]):
        m = M.matrix(g)
        prod = m if prod is None else mat_mul(prod, m)
    if not mat_eq(matrix_of(answer, M), prod):
        return "normal form acts differently from the word on %s" % (M.label,)
    return None


def check_no_go(req, answer, ctx):
    return None if answer.terms else "polynomial truncation left no residual"


CHECKS = {
    "cgc-su2": check_cgc_su2,
    "sixj": check_sixj,
    "ninej": check_ninej,
    "cgc-proj": check_cgc_proj,
    "gt-basis": check_gt_basis,
    "cgc-su3": check_cgc_su3,
    "pme-direct": check_pme,
    "pme-formula": check_pme,
    "apply-proj": check_apply_proj,
    "verify": check_verify,
    "projector": check_projector,
    "ef": check_ef,
    "word": check_word,
    "su4-proj": check_su4_proj,
    "no-go": check_no_go,
}


class Context:
    """What checks share: every answer of the session, and modules."""

    def __init__(self, requests, answers):
        self.requests = requests
        self.answers = answers
        self._by_key = {}
        for r, a in zip(requests, answers):
            if r["family"].startswith("pme-"):
                self._by_key[(_pme_key(r), r["args"]["route"])] = a
        self._modules = {}

    def partner(self, req):
        route = "formula" if req["args"]["route"] == "direct" else "direct"
        return self._by_key.get((_pme_key(req), route))

    def tensor_module(self, l1, l2):
        from extremal.repmod import su3_irrep, tensor

        key = ("tensor", l1, l2)
        if key not in self._modules:
            self._modules[key] = tensor(su3_irrep(*l1), su3_irrep(*l2))
        return self._modules[key]

    def word_module(self, n):
        from extremal.repmod import su2_irrep, su3_irrep

        if n == 2:
            return su2_irrep(Fraction(3, 2))
        return su3_irrep(1, 1)


def check(req, answer, ctx):
    try:
        return CHECKS[req["family"]](req, answer, ctx)
    except Exception as exc:  # a malformed answer is a rejected answer
        return "check raised %s: %s" % (type(exc).__name__, exc)


# -- self-test: one perturbed answer per family ----------------------


def _perturb_records(answer, edit):
    doc = json.loads(answer)
    edit(doc["records"])
    return json.dumps(doc)


def _double_value(recs):
    recs[0]["value"] = str(_rad(recs[0]["value"]) * 2)


def _double_coord(recs):
    i, v = recs[0]["coords"].split(";")[0].split(":", 1)
    rest = recs[0]["coords"].split(";")[1:]
    recs[0]["coords"] = ";".join(["%s:%s" % (i, _rad(v) * 2)] + rest)


def _fail_first(recs):
    recs[0]["ok"] = False


def _double_series_term(recs):
    for r in recs:
        if r["lowering"]:
            r["coefficient"] = "2*(%s)" % r["coefficient"]
            return


def _plus_one(element):
    from extremal.pbw import TaylorElement

    terms = dict(element.terms)
    one = element.engine.coeff(1)
    cur = terms.get(((), ()))
    terms[((), ())] = one if cur is None else cur + one
    return TaylorElement(element.engine, element.bound, terms)


def _double_series(element):
    from extremal.pbw import TaylorElement

    terms = dict(element.terms)
    key = next(k for k in terms if k != ((), ()))
    terms[key] = terms[key] * 2
    return TaylorElement(element.engine, element.bound, terms)


def _perturb_apply(req, answer):
    from extremal.repmod import ModuleVector

    if not answer.is_zero():
        return answer.scale(2)
    return ModuleVector({req["args"]["index"]: 1})


PERTURB = {
    "cgc-su2": lambda r, a: _perturb_records(a, _double_value),
    "sixj": lambda r, a: _perturb_records(a, _double_value),
    "ninej": lambda r, a: _perturb_records(a, lambda recs: recs[0].update(
        value="(%s) + 1" % recs[0]["value"])),
    "cgc-proj": lambda r, a: a + 1,
    "gt-basis": lambda r, a: _perturb_records(a, _double_coord),
    "cgc-su3": lambda r, a: _perturb_records(a, _double_value),
    "pme-direct": lambda r, a: a + 1,
    "pme-formula": lambda r, a: a + 1,
    "apply-proj": _perturb_apply,
    "verify": lambda r, a: _perturb_records(a, _fail_first),
    "projector": lambda r, a: _perturb_records(a, _double_series_term),
    "ef": lambda r, a: _plus_one(a),
    "word": lambda r, a: _plus_one(a),
    "su4-proj": lambda r, a: _double_series(a),
    "no-go": lambda r, a: type(a)(a.engine, a.bound, {}),
}


def self_test(requests, answers, ctx):
    """Perturb the first usable answer of each family; every check must
    reject its perturbed answer.  Returns {family: reason or None}; None
    means the check accepted a wrong answer."""
    out = {}
    for req, ans in zip(requests, answers):
        fam = req["family"]
        if fam in out or ans is None:
            continue
        if fam == "projector" and int(_opts(req["args"]["argv"])["trunc"]) < 1:
            continue
        out[fam] = check(req, PERTURB[fam](req, ans), ctx)
    return out
