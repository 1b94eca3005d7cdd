"""Seeded request streams, one per workload.

A stream is a list of requests, each a JSON-ready dict:

    {"family": str, "size": [name, value], "args": {...}}

The same seed gives the same stream.  Every stream has a fixed composition
(how many requests of each family and which size classes), so that its total
cost hardly depends on the seed; the seed picks the concrete spins, labels,
words and basis vectors inside each class, and the order.  No request repeats
exactly, but requests share sub-results (coupling tables and their single-j3
blocks, 9j symbols and the 6j symbols they contract, su(3) modules reused by
tables, matrix elements and projections).

This module uses only the standard library: the generated inputs are all the
program under test receives.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

HALF = Fraction(1, 2)


def _s(x):
    return str(Fraction(x))


def halves(hi, lo=0):
    """Spins lo, lo + 1/2, ..., hi."""
    return [Fraction(k, 2) for k in range(int(2 * lo), int(2 * hi) + 1)]


def _tri(a, b, c):
    return (a + b + c).denominator == 1 and abs(a - b) <= c <= a + b


@functools.lru_cache(maxsize=None)
def _tri_range(a, b, hi):
    return tuple(c for c in halves(min(a + b, hi), abs(a - b)) if _tri(a, b, c))


def projections(j):
    """Projections j, j - 1, ..., -j."""
    return [j - k for k in range(int(2 * j) + 1)]


class _Stream:
    """Collects requests, refusing exact repeats."""

    def __init__(self):
        self.requests = []
        self._seen = set()

    def add(self, family, size, args):
        key = (family, repr(sorted(args.items())))
        if key in self._seen:
            return False
        self._seen.add(key)
        self.requests.append({"family": family, "size": size, "args": args})
        return True

    def fill(self, count, make):
        """Call make() until it reported count new requests."""
        added = 0
        for _ in range(200 * count):
            added += bool(make())
            if added == count:
                return
        raise RuntimeError("could not draw %d distinct requests" % count)


def _argv(command, pairs):
    out = [command]
    for name, value in pairs:
        out += ["--" + name, str(value)]
    return out + ["--format", "json"]


def _opts(args):
    """CLI options of a request's argv, as Fractions."""
    argv = args["argv"]
    return {argv[i][2:]: Fraction(argv[i + 1]) for i in range(1, len(argv) - 2, 2)}


def _matched(st, rng, family, count, draw, proxy, ref_key=""):
    """Add count requests of one family whose cost proxies follow a fixed
    reference list: the seed picks the requests, not the family's cost.

    draw(rng) returns (size, args) or None; proxy(args) estimates cost."""
    ref = random.Random("reference:%s%s" % (family, ref_key))
    targets = []
    while len(targets) < count:
        c = draw(ref)
        if c is not None:
            targets.append(proxy(c[1]))
    pool = [(math.log(proxy(c[1])), c) for c in (draw(rng) for _ in range(30 * count))
            if c is not None]
    for t in sorted(targets, reverse=True):
        pool.sort(key=lambda pc: abs(pc[0] - math.log(t)))
        while not st.add(family, *pool.pop(0)[1]):
            pass


# -- su2-tables --------------------------------------------------------


def su2_tables(rng):
    st = _Stream()
    spins = halves(6)

    def table(r):
        j1, j2 = r.choice(spins), r.choice(spins)
        return ["j", _s(max(j1, j2))], {"argv": _argv(
            "cgc-su2", [("j1", _s(j1)), ("j2", _s(j2))])}

    def table_cost(args):
        o = _opts(args)
        return (2 * o["j1"] + 1) * (2 * o["j2"] + 1) * (2 * min(o["j1"], o["j2"]) + 1)
    _matched(st, rng, "cgc-su2", 13, table, table_cost)

    # Single-j3 blocks: half of them read tables the stream already holds.
    tables = [(o["j1"], o["j2"]) for o in (_opts(r["args"]) for r in st.requests)]

    def block():
        if rng.random() < 0.5:
            j1, j2 = rng.choice(tables)
        else:
            j1, j2 = rng.choice(spins), rng.choice(spins)
        j3 = rng.choice(_tri_range(j1, j2, 12))
        return st.add("cgc-su2", ["j", _s(max(j1, j2))], {"argv": _argv(
            "cgc-su2", [("j1", _s(j1)), ("j2", _s(j2)), ("j3", _s(j3))])})
    st.fill(10, block)

    big = halves(10)

    def six(r):
        a, b = r.choice(big), r.choice(big)
        c = r.choice(_tri_range(a, b, 10))
        d = r.choice(big)
        cs = _tri_range(c, d, 10)
        if not cs:
            return None
        e = r.choice(cs)
        fs = [f for f in _tri_range(b, d, 10) if _tri(a, e, f)]
        if not fs:
            return None
        js = (a, b, c, d, e, r.choice(fs))
        return ["j", _s(max(js))], {"argv": _argv(
            "sixj", [("j%d" % (k + 1), _s(x)) for k, x in enumerate(js)])}

    def six_cost(args):
        # the contraction visits the projections m1, m2 of j1, j2 whose
        # remainder j5 - m1 - m2 is a projection of j4
        o = _opts(args)
        a, b, _, d, e, _ = (int(2 * o["j%d" % k]) for k in range(1, 7))
        return max(1, sum(1 for m1 in range(-a, a + 1, 2) for m2 in range(-b, b + 1, 2)
                          if abs(e - m1 - m2) <= d))
    _matched(st, rng, "sixj", 40, six, six_cost)

    small = halves(4)

    def nine(r):
        a, b, d, e = (r.choice(small) for _ in range(4))
        c = r.choice(_tri_range(a, b, 4))
        f_, g_, h_ = _tri_range(d, e, 4), _tri_range(a, d, 4), _tri_range(b, e, 4)
        if not (f_ and g_ and h_):
            return None
        f, g, h = r.choice(f_), r.choice(g_), r.choice(h_)
        is_ = [i for i in _tri_range(g, h, 4) if _tri(c, f, i)]
        if not is_:
            return None
        js = (a, b, c, d, e, f, g, h, r.choice(is_))
        return ["j", _s(max(js))], {"argv": _argv(
            "ninej", [("j%d" % (k + 1), _s(x)) for k, x in enumerate(js)])}

    def nine_cost(args):
        # one 6j triple per intermediate spin x
        o = _opts(args)
        a, b, c, d, e, f, g, h, i = (o["j%d" % k] for k in range(1, 10))
        xs = min(a + i, b + f, d + h) - max(abs(a - i), abs(b - f), abs(d - h)) + 1
        return max(xs, 1) * ((2 * a + 1) * (2 * b + 1) + (2 * d + 1) * (2 * e + 1)
                             + (2 * g + 1) * (2 * h + 1))
    _matched(st, rng, "ninej", 20, nine, nine_cost)

    # Projector-route entries: one for every (j1, j2) pair, so each coupled
    # module is built once whatever the seed, plus four that reuse one.
    proj = halves(3, HALF)

    def entry(j1, j2):
        j3 = rng.choice(_tri_range(j1, j2, 6))
        m3 = rng.choice(projections(j3))
        m1 = rng.choice([m for m in projections(j1) if abs(m3 - m) <= j2])
        js = (j1, m1, j2, m3 - m1, j3, m3)
        return st.add("cgc-proj", ["j", _s(max(j1, j2))], {"jm": [_s(x) for x in js]})
    for j1 in proj:
        for j2 in proj:
            st.fill(1, lambda: entry(j1, j2))
    st.fill(4, lambda: entry(rng.choice(proj), rng.choice(proj)))
    return st.requests


# -- su3-modules -------------------------------------------------------


def su3_dim(lam, mu):
    return (lam + 1) * (mu + 1) * (lam + mu + 2) // 2


def _su3_labels(lam, mu):
    """GT labels (j, t, tz) of (lam, mu), in the package's label order."""
    out = []
    mu2 = Fraction(mu, 2)
    for jj in range(2 * (lam + mu) + 1):
        for tt in range(2 * (lam + mu) + 1):
            j, t = Fraction(jj, 2), Fraction(tt, 2)
            if (mu2 + j + t).denominator != 1:
                continue
            if not (mu2 + j - t >= 0 and -mu2 + j + t >= 0
                    and mu2 - j + t >= 0 and mu2 + j + t <= lam + mu):
                continue
            out.extend((j, t, t - k) for k in range(int(2 * t) + 1))
    return out


def _su3_targets(l1, l2):
    """Constituents (lam3, mu3) of l1 x l2, without multiplicity: peel off
    irreps at a weight of greatest height, h1 + h2, until no weight is left."""
    weights = {}
    for w1 in _su3_weights(*l1):
        for w2 in _su3_weights(*l2):
            w = (w1[0] + w2[0], w1[1] + w2[1])
            weights[w] = weights.get(w, 0) + 1
    out = set()
    while weights:
        top = max(weights, key=lambda w: (w[0] + w[1], w))
        out.add(top)
        for w in _su3_weights(*top):
            weights[w] -= 1
            if not weights[w]:
                del weights[w]
    return sorted(out)


def _su3_weights(lam, mu):
    """Weights (h1, h2 eigenvalues) of (lam, mu) with multiplicity, read
    off the GT labels: h1 = -(3y + 2tz)/2, h2 = 2tz."""
    out = []
    for j, t, tz in _su3_labels(lam, mu):
        y = -Fraction(2 * lam + mu, 3) + 2 * j
        out.append((int(-(3 * y + 2 * tz) / 2), int(2 * tz)))
    return out


def _compatible(l1, l2, l3):
    (lam1, mu1), (lam2, mu2), (lam3, mu3) = l1, l2, l3
    delta = Fraction((2 * lam1 + mu1) + (2 * lam2 + mu2) - (2 * lam3 + mu3), 6)
    out = []
    for g3 in _su3_labels(lam3, mu3):
        for g1 in _su3_labels(lam1, mu1):
            for g2 in _su3_labels(lam2, mu2):
                if (g1[0] + g2[0] - g3[0] == delta and g1[2] + g2[2] == g3[2]
                        and abs(g1[1] - g2[1]) <= g3[1] <= g1[1] + g2[1]):
                    out.append((g1, g2, g3))
    return out


def _lab(g):
    return [_s(x) for x in g]


FUND = [(1, 0), (0, 1)]
SMALL = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]


def su3_modules(rng):
    st = _Stream()
    # GT bases: every irrep with lam + mu <= 4, one conjugate pair at 5 and
    # one irrep at 6, each once.  Costs within each class are close.
    irreps = [(l, s - l) for s in range(5) for l in range(s + 1)]
    irreps += list(rng.choice([((4, 1), (1, 4)), ((3, 2), (2, 3))]))
    irreps.append(rng.choice([(4, 2), (2, 4), (3, 3)]))
    for lam, mu in irreps:
        st.add("gt-basis", ["lam+mu", lam + mu],
               {"argv": _argv("gt-basis", [("lam", lam), ("mu", mu)])})

    def cgc(l1, l2, l3=None):
        pairs = [("lam1", l1[0]), ("mu1", l1[1]), ("lam2", l2[0]), ("mu2", l2[1])]
        if l3 is not None:
            pairs += [("lam3", l3[0]), ("mu3", l3[1])]
        return st.add("cgc-su3", ["lam+mu", sum(l1) + sum(l2)],
                      {"argv": _argv("cgc-su3", pairs)})

    # the 8 x 8 product: the octet block (multiplicity two) and one decuplet
    cgc((1, 1), (1, 1), (1, 1))
    cgc((1, 1), (1, 1), rng.choice([(3, 0), (0, 3)]))
    # full tables, one per cost class: 3 x 3, 3 x 6 and 3 x 8 (any order
    # and conjugation)
    def either(a, b):
        return (a, b) if rng.random() < 0.5 else (b, a)
    cgc(*either(rng.choice(FUND), rng.choice(FUND)))
    cgc(*either(rng.choice(FUND), rng.choice([(2, 0), (0, 2)])))
    cgc(*either(rng.choice(FUND), (1, 1)))

    # Matrix elements and projections cycle through the products, so each
    # tensor module is built and first projected on whatever the seed.
    products = [((1, 0), (0, 1)), ((1, 0), (1, 0)), ((0, 1), (0, 1)),
                ((1, 1), (1, 0)), ((0, 1), (1, 1)), ((2, 0), (1, 0)),
                ((0, 2), (0, 1))]
    candidates = {}

    def pme(l1, l2):
        if (l1, l2) not in candidates:
            candidates[(l1, l2)] = [(l3, _compatible(l1, l2, l3))
                                    for l3 in _su3_targets(l1, l2)]
        l3, triples = rng.choice(candidates[(l1, l2)])
        (g1, g2, g3), (g1p, g2p, g3p) = rng.choice(triples), rng.choice(triples)
        args = {"L1": list(l1), "g1": _lab(g1), "L2": list(l2), "g2": _lab(g2),
                "L3": list(l3), "g3": _lab(g3), "g3p": _lab(g3p),
                "g1p": _lab(g1p), "g2p": _lab(g2p)}
        size = ["lam+mu", sum(l1) + sum(l2)]
        if not st.add("pme-direct", size, dict(args, route="direct")):
            return False
        st.add("pme-formula", size, dict(args, route="formula"))
        return True
    for i in range(25):
        st.fill(1, lambda: pme(*products[i % len(products)]))

    tensor_products = products + [((1, 1), (1, 1)), ((2, 0), (0, 2))]

    def apply(l1, l2):
        idx = rng.randrange(su3_dim(*l1) * su3_dim(*l2))
        return st.add("apply-proj", ["lam+mu", sum(l1) + sum(l2)],
                      {"L1": list(l1), "L2": list(l2), "index": idx})
    for i in range(27):
        st.fill(1, lambda: apply(*tensor_products[i % len(tensor_products)]))
    return st.requests


# -- symbolic ----------------------------------------------------------


def symbolic(rng):
    """Returns (fixed, free): fixed requests keep their places in the stream,
    so the shared engines have grown by the same amount whatever the seed
    when each fresh-engine build runs."""
    fixed = _Stream()
    for n in range(2, 7):
        fixed.add("verify", ["N", n], {"argv": _argv(
            "verify", [("suite", "su2-projector"), ("trunc", n)])})
    for n in range(1, 4):
        fixed.add("verify", ["N", n], {"argv": _argv(
            "verify", [("suite", "su3-projector"), ("trunc", n)])})
    for n in range(1, 4):
        for order in (None, "23,13,12"):
            pairs = [("algebra", "su3"), ("trunc", n)]
            if order:
                pairs.append(("order", order))
            fixed.add("projector", ["N", n], {"argv": _argv("projector", pairs)})
    for k in range(1, 7):
        fixed.add("ef", ["k", k], {"a": k, "b": k})
    for n in (1, 2):
        fixed.add("su4-proj", ["N", n], {"N": n})
    for n in (1, 2, 3):
        fixed.add("no-go", ["N", n], {"N": n})

    free = _Stream()

    def ef():
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        return a != b and free.add("ef", ["k", max(a, b)], {"a": a, "b": b})
    free.fill(4, ef)

    # 50 words per rank, length 4..12 for su(2) and 4..10 for su(3), whose
    # longer words would cost as much as the fixed requests.  Straightening
    # cost grows about exponentially with the pairs (raising letter, later
    # lowering letter) and with the length; words are matched on that.
    def word_cost(args):
        gens = [g for g in args["word"] if g[0] != "h"]
        bad = sum(1 for a, g in enumerate(gens) for h in gens[a + 1:]
                  if g[0] < g[1] and h[0] > h[1])
        return math.exp(bad + 0.3 * len(args["word"]))

    for n, max_len in ((2, 12), (3, 10)):
        letters = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        letters += [["h", k] for k in range(1, n)]

        def word(r):
            w = [r.choice(letters) for _ in range(r.randint(4, max_len))]
            return ["len", len(w)], {"n": n, "word": w}
        _matched(free, rng, "word", 50, word, word_cost, ref_key=n)
    return fixed.requests, free.requests


WORKLOADS = {
    "su2-tables": su2_tables,
    "su3-modules": su3_modules,
    "symbolic": symbolic,
}


def stream(workload, seed):
    """The request stream of one workload for one seed, shuffled; where a
    workload returns (fixed, free), the fixed requests sit at evenly spaced
    places in their own order and the free ones fill the gaps shuffled."""
    rng = random.Random("%s:%d" % (workload, seed))
    reqs = WORKLOADS[workload](rng)
    if isinstance(reqs, tuple):
        fixed, free = reqs
        rng.shuffle(free)
        gap = len(free) / len(fixed)
        out = []
        for i, r in enumerate(fixed):
            out += free[round(i * gap):round((i + 1) * gap)] + [r]
        return out
    rng.shuffle(reqs)
    return reqs
