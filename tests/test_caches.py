"""Process-global caches: every memo is bounded, or keyed by a finite set."""

import gc
import importlib
import pkgutil
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

import extremal
from extremal import cli, pbw, repmod, wigner2
from extremal.algebra import build_root_system
from extremal.exact import triangle

# caches whose key space is finite without a bound: the rank n <= 6 of
# build_root_system, and the one argument parser
UNBOUNDED_BY_DESIGN = {"pbw.h_symbols", "pbw.shared_engine", "cli.build_parser"}

# every builder declared with exact.label_cache, and its bound
LABEL_CACHED = {
    "repmod.su2_irrep": 64, "repmod.su3_irrep": 32, "su3gt._gt_index": 64,
    "su3gt._gt_basis": 32, "su3gt.gt_module": 32, "su3cgc.pair_module": 16,
    "su3cgc.decompose": 16, "su3cgc.coupled_basis": 64,
}


def _caches():
    """{module.name: maxsize} of every functools cache defined in extremal."""
    out = {}
    for info in pkgutil.iter_modules(extremal.__path__):
        mod = importlib.import_module("extremal." + info.name)
        for name, obj in vars(mod).items():
            if (callable(getattr(obj, "cache_parameters", None))
                    and getattr(obj, "__module__", None) == mod.__name__):
                out["%s.%s" % (info.name, name)] = obj.cache_parameters()["maxsize"]
    return out


def test_every_cache_is_bounded_or_finite_by_design():
    caches = _caches()
    assert "wigner2._sixj" in caches and "exact._factorial_split" in caches
    unbounded = {name for name, maxsize in caches.items() if maxsize is None}
    assert unbounded <= UNBOUNDED_BY_DESIGN, unbounded - UNBOUNDED_BY_DESIGN


def test_every_label_cached_builder_is_listed_under_its_public_name():
    # exact.label_cache keeps its lru_cache off the module: the bound check
    # above sees it only through the public name
    caches = _caches()
    assert {name: caches.get(name) for name in LABEL_CACHED} == LABEL_CACHED


def _refused_labels():
    """A pytest.param(builder, labels) for each label a label-cached builder refuses."""
    from extremal import su3cgc, su3gt

    builders = {
        "su3_irrep": (repmod.su3_irrep, (1, 1), True),
        "gt_module": (su3gt.gt_module, (1, 1), True),
        "_gt_basis": (su3gt._gt_basis, (1, 1), True),
        "_gt_index": (su3gt._gt_index, (1, 1), False),
        "pair_module": (su3cgc.pair_module, (1, 0, 0, 1), True),
        "decompose": (su3cgc.decompose, (1, 0, 0, 1), True),
        "coupled_basis": (su3cgc.coupled_basis, (1, 0, 0, 1, 1, 1, 1), True),
    }
    cases = [("su2_irrep", repmod.su2_irrep, (j,))
             for j in (-1, Fraction(-1, 2), Fraction(1, 3), "x")]
    for name, (build, good, guarded) in builders.items():
        bad = [-1, Fraction(1, 2), "x"]
        cases += [(name, build, (lam,) + good[1:]) for lam in bad]
        cases += [(name, build, good[:1] + (mu,) + good[2:]) for mu in bad]
        if guarded:
            cases.append((name, build, (7, 0) + good[2:]))
    build = builders["coupled_basis"][0]
    cases += [("coupled_basis", build, (1, 0, 0, 1) + tail)
              for tail in ((-1, 1, 1), (1, -1, 1), (1, 1, 0), (1, 1, -1), (1, 1, "x"))]
    return [pytest.param(build, labels, id="%s(%s)" % (name, ", ".join(map(repr, labels))))
            for name, build, labels in cases]


@pytest.mark.parametrize("build, labels", _refused_labels())
def test_a_refused_label_leaves_the_cache_untouched(build, labels):
    before = build.cache_info()
    with pytest.raises(ValueError):
        build(*labels)
    assert build.cache_info() == before


def test_sixj_cache_stays_at_its_bound():
    bound = wigner2._sixj.cache_info().maxsize
    labels = [js for js in product(range(7), repeat=6)
              if all(triangle(*t) for t in (js[0:3], (js[2], js[3], js[4]),
                                            (js[1], js[3], js[5]),
                                            (js[0], js[4], js[5])))]
    assert len(labels) > bound + 50
    wigner2._sixj.cache_clear()
    first = [wigner2.sixj_doubled(*js) for js in labels[:bound + 50]]
    assert wigner2._sixj.cache_info().currsize == bound
    # the oldest symbols were evicted, and come back equal
    assert [wigner2.sixj_doubled(*js) for js in labels[:10]] == first[:10]
    wigner2._sixj.cache_clear()


def test_su2_irrep_cache_stays_at_its_bound():
    bound = repmod.su2_irrep.cache_info().maxsize
    repmod.su2_irrep.cache_clear()
    dims = [repmod.su2_irrep(Fraction(d, 2)).dim for d in range(bound + 10)]
    assert dims == [d + 1 for d in range(bound + 10)]
    assert repmod.su2_irrep.cache_info().currsize == bound
    repmod.su2_irrep.cache_clear()


def test_a_cgc_table_leaves_no_values_held(capsys):
    # a table reuses no coefficient, so none may outlive the request
    assert cli.main(["cgc-su2", "--j1", "1", "--j2", "1", "--format", "json"]) == 0
    tracemalloc.start()
    try:
        assert cli.main(["cgc-su2", "--j1", "8", "--j2", "8", "--format", "json"]) == 0
        capsys.readouterr()
        gc.collect()  # also empties the interpreter's free lists of tuples and floats
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, "*/extremal/*")])
    assert sum(s.size for s in held.statistics("filename")) < 100_000


def _memo_sizes(eng):
    return {name: len(memo) for name, memo in vars(eng).items() if name.endswith("_cache")}


@pytest.mark.parametrize("call", ["reduce", "product"])
def test_engine_memos_are_emptied_whole_past_their_bound(monkeypatch, call):
    # a shared engine serves every default-ordering projector, so its memos
    # are bounded: past pbw._MEMO_LIMIT straightening entries, the next
    # reduce or product starts from empty memos
    su3 = build_root_system(3)
    word = [(1, 2), (2, 3), (3, 1), (2, 1)]
    A, B = (((1, 2), 2), ((2, 3), 1)), (((1, 3), 1), ((2, 3), 2))
    eng = pbw.RewriteEngine(su3)
    pbw.rewrite_word([(2, 3), (1, 2), (3, 2), ("h", 1), (2, 1)], su3, engine=eng)
    assert all(_memo_sizes(eng).values())
    monkeypatch.setattr(pbw, "_MEMO_LIMIT", len(eng._reduce_cache) - 1)
    fresh = pbw.RewriteEngine(su3)
    if call == "reduce":
        assert eng.reduce(word) == fresh.reduce(word)
    else:
        assert eng.product(A, B) == fresh.product(A, B)
    assert _memo_sizes(eng) == _memo_sizes(fresh)


def test_a_bounded_engine_gives_the_same_products(monkeypatch):
    from extremal.projector import extremal_projector, verify_extremal_identities

    su3 = build_root_system(3)
    P = extremal_projector(su3, N=3, engine=pbw.RewriteEngine(su3))
    full, grown = P * P, len(P.engine._reduce_cache)
    monkeypatch.setattr(pbw, "_MEMO_LIMIT", 40)
    eng = pbw.RewriteEngine(su3)
    Q = extremal_projector(su3, N=3, engine=eng)
    assert Q.terms == P.terms and (Q * Q).terms == full.terms
    assert verify_extremal_identities(Q).ok
    assert len(eng._reduce_cache) < grown
