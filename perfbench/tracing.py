"""Per-layer spans recorded from outside the package.

`install()` replaces the public functions of every `extremal.*` module, in
every namespace that bound them (also through `from ... import`), and a set
of hot methods on their classes, with wrappers that record one span per call:
name, start, end and the span that caused it (the innermost wrapped call on
the stack; there are no threads).  Spans are kept in flat arrays and written
out when the session ends.  A layer is the module a name lives in; its self
time is its spans' durations minus the time covered by their child spans,
accumulated exactly as the calls return.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

MODULES = ("exact", "algebra", "pbw", "projector", "repmod", "wigner2",
           "su3gt", "su3cgc", "cli")

# Span names for functions that the per-layer metrics name differently.
RENAMED = {
    "projector.extremal_projector": "projector.build",
    "projector.verify_extremal_identities": "projector.verify",
    "projector.apply_projector": "projector.apply",
}

# Methods wrapped on their classes: module -> class -> attribute -> span.
METHODS = {
    "exact": {"Radical": {
        "__mul__": "radical_mul", "__rmul__": "radical_mul",
        "__add__": "radical_add", "__radd__": "radical_add",
        "__sub__": "radical_sub", "__neg__": "radical_neg",
        "inverse": "radical_inverse", "sign": "radical_sign",
    }},
    "pbw": {
        "Coeff": {
            "__mul__": "coeff_mul", "__rmul__": "coeff_mul",
            "__add__": "coeff_add", "__radd__": "coeff_add",
            "__sub__": "coeff_sub", "__neg__": "coeff_neg",
            "__eq__": "coeff_eq", "shift": "coeff_shift",
            "evaluate": "coeff_evaluate", "reduced": "coeff_reduced",
            "as_expr": "coeff_as_expr",
        },
        "RewriteEngine": {"__init__": "engines_created", "reduce": "reduce"},
        "TaylorElement": {
            "__mul__": "mul", "__add__": "add", "scale": "scale",
            "star": "star", "canonical": "canonical", "residual": "residual",
            "evaluate_cartan": "evaluate_cartan", "dump": "dump",
        },
    },
    "repmod": {
        "Irrep": {"weight_diameter": "weight_diameter"},
        "ModuleVector": {"__add__": "vector_add", "scale": "vector_scale",
                         "inner": "vector_inner"},
    },
}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.child = [0.0]
        self.self_s = []
        self.calls = []
        self.counts = {}          # extra counters set by hooks
        self.decompose_applies = {}
        self.originals = {}       # span name -> unwrapped object

    def nid(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.ids[name]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name, post=None, namer=None):
        nid = self.nid(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child = self.stack, self.child
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = nid if namer is None else namer(args, kwargs)
            sid = len(names)
            names.append(n)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                self_s[n] += d - child.pop()
                child[-1] += d
                calls[n] += 1
                starts[sid] = t0
                ends[sid] = t1
            if post is not None:
                post(sid, args, out)
            return out

        return wrapper

    # -- results ------------------------------------------------------

    def name_stats(self):
        return {n: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for i, n in enumerate(self.names) if self.calls[i]}

    def calls_outside(self, name, outside):
        """Calls of `name` with no `outside` span among their callers."""
        nid, out_id = self.ids.get(name), self.ids.get(outside)
        if nid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        count = 0
        for sid in range(len(names)):
            if names[sid] != nid:
                continue
            p = parents[sid]
            while p >= 0 and names[p] != out_id:
                p = parents[p]
            count += p < 0
        return count

    def layer_self(self):
        out = {}
        for i, n in enumerate(self.names):
            layer = n.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_s[i]
        return out

    def write(self, path):
        """Spans as gzip text: a header of names, then one line per span:
        id name_index parent_id start end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names %s\n" % " ".join(self.names))
            for sid in range(len(self.span_name)):
                fh.write("%d %d %d %.9f %.9f\n" % (
                    sid, self.span_name[sid], self.span_parent[sid],
                    self.span_start[sid], self.span_end[sid]))


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield name, obj


def install():
    """Wrap the package in place; returns the Tracer."""
    tr = Tracer()
    mods = {m: sys.modules["extremal." + m] for m in MODULES
            if "extremal." + m in sys.modules}
    hooks = _hooks(tr)
    replace = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for name, fn in _public_functions(mod):
            span = RENAMED.get("%s.%s" % (short, name), "%s.%s" % (short, name))
            tr.originals[span] = fn
            namer = None
            if span == "su3cgc.projector_matrix_element":
                direct, formula = tr.nid("su3cgc.pme_direct"), tr.nid("su3cgc.pme_formula")

                def namer(args, kwargs, direct=direct, formula=formula):
                    return formula if kwargs.get("route") == "formula" else direct
            replace[id(fn)] = tr.wrap(fn, span, post=hooks.get(span), namer=namer)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("extremal"):
            continue
        for name, obj in list(vars(mod).items()):
            w = replace.get(id(obj))
            if w is not None:
                setattr(mod, name, w)
    for short, classes in METHODS.items():
        for cls_name, attrs in classes.items():
            cls = getattr(mods[short], cls_name)
            for attr, span in attrs.items():
                span = "%s.%s" % (short, span)
                raw = cls.__dict__[attr]
                post = hooks.get(span)
                if isinstance(raw, property):
                    setattr(cls, attr, property(tr.wrap(raw.fget, span, post)))
                else:
                    setattr(cls, attr, tr.wrap(raw, span, post))
    return tr


def _hooks(tr):
    """Counters read where the work happens, keyed by span name."""
    decompose = tr.nid("su3cgc.decompose")

    def mul(sid, args, out):
        a, b = args
        if hasattr(b, "terms"):
            tr.add("pbw.mul.pairs", len(a.terms) * len(b.terms))
        tr.add("pbw.mul.terms_out", len(out.terms))

    def apply(sid, args, out):
        tr.add("projector.apply.nonzero", 0 if out.is_zero() else 1)
        parent = tr.span_parent[sid]
        if parent >= 0 and tr.span_name[parent] == decompose:
            tr.decompose_applies[parent] = tr.decompose_applies.get(parent, 0) + 1
            tr.add("su3cgc.decompose.applies", 1)

    def decomposed(sid, args, out):
        if tr.decompose_applies.pop(sid, 0):
            tr.add("su3cgc.decompose.kept", sum(len(v) for v in out.values()))

    def emit(sid, args, out):
        tr.add("cli.bytes_out", len(args[0].encode("utf-8")))

    return {"pbw.mul": mul, "projector.apply": apply,
            "su3cgc.decompose": decomposed, "cli.emit": emit}


def per_layer_metrics(tr, run_s_untraced, run_s_traced):
    """The per-layer metrics of BENCHMARK.json, from one traced session."""
    stats = tr.name_stats()
    layers = tr.layer_self()

    def calls(span):
        return stats.get(span, {}).get("calls", 0)

    def self_s(span):
        return stats.get(span, {}).get("self_s", 0.0)

    def count(key):
        return tr.counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("exact", "pbw", "repmod", "wigner2", "su3gt", "su3cgc", "cli"):
        m[layer + ".self_s"] = (layers.get(layer, 0.0), "s")
    for span in ("exact.radical_mul", "exact.radical_add", "exact.radical_inverse",
                 "exact.radical_sign", "exact.sqrt_of_rational",
                 "exact.factorial_ratio", "pbw.reduce", "pbw.mul",
                 "pbw.coeff_mul", "pbw.coeff_shift",
                 "pbw.coeff_evaluate", "projector.build", "projector.apply",
                 "repmod.tensor", "repmod.apply_element", "repmod.mat_vec",
                 "wigner2.cgc_closed", "wigner2.sixj", "su3gt.gt_vector",
                 "su3cgc.su3_cgc"):
        m[span + ".calls"] = (calls(span), "count")
    for span in ("pbw.reduce", "pbw.mul", "projector.build", "projector.verify",
                 "projector.apply", "repmod.su3_irrep", "repmod.tensor",
                 "repmod.weight_diameter", "repmod.apply_element",
                 "wigner2.cgc_projector", "wigner2.sixj", "wigner2.ninej",
                 "su3gt.gt_vector", "su3cgc.decompose", "su3cgc.pme_direct",
                 "su3cgc.pme_formula", "cli.render"):
        m[span + ".self_s"] = (self_s(span), "s")
    # Coeff.__eq__ subtracts; how often dict probes call it depends on hash
    # values that vary between processes, so its additions are not counted.
    m["pbw.coeff_add.calls"] = (
        tr.calls_outside("pbw.coeff_add", "pbw.coeff_eq"), "count")
    m["pbw.engines_created"] = (calls("pbw.engines_created"), "count")
    m["pbw.mul.pairs"] = (count("pbw.mul.pairs"), "count")
    m["pbw.mul.terms_out"] = (count("pbw.mul.terms_out"), "count")
    m["projector.apply.nonzero_frac"] = (
        ratio(count("projector.apply.nonzero"), calls("projector.apply")), "ratio")
    m["su3cgc.decompose.accept_ratio"] = (
        ratio(count("su3cgc.decompose.kept"), count("su3cgc.decompose.applies")),
        "ratio")
    m["cli.bytes_out"] = (count("cli.bytes_out"), "bytes")
    lru = tr.originals.get("repmod.su3_irrep")
    m["repmod.su3_irrep.misses"] = (lru.cache_info().misses if lru else 0, "count")
    m["trace.overhead_frac"] = (
        (run_s_traced - run_s_untraced) / run_s_untraced, "ratio")
    return m
