"""Process-global caches: every memo is bounded, or keyed by a finite set."""

import gc
import importlib
import pkgutil
import tracemalloc
from fractions import Fraction
from itertools import product

import extremal
from extremal import cli, repmod, wigner2
from extremal.exact import triangle

# caches whose key space is finite without a bound: the rank n <= 6 of
# build_root_system, and the one argument parser
UNBOUNDED_BY_DESIGN = {"pbw.h_symbols", "pbw.shared_engine", "cli.build_parser"}


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
    bound = repmod._su2_cached.cache_info().maxsize
    repmod._su2_cached.cache_clear()
    dims = [repmod.su2_irrep(Fraction(d, 2)).dim for d in range(bound + 10)]
    assert dims == [d + 1 for d in range(bound + 10)]
    assert repmod._su2_cached.cache_info().currsize == bound
    repmod._su2_cached.cache_clear()


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
