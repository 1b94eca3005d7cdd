"""The benchmark harness still runs against the package.

For each workload, the smallest request of each family in the seed-7 stream
is served in process through the harness's own executors and checked by its
oracles, and every method the tracer wraps must still exist.  This catches
API drift that would break a benchmark run, at a fraction of its cost.
"""

import importlib
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import families  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _smallest(requests):
    """The smallest request of each family; a direct projector matrix
    element comes with its formula-route partner, which its check needs."""
    out = {}
    for r in sorted(requests, key=lambda r: Fraction(str(r["size"][1]))):
        if r["family"] != "pme-formula":
            out.setdefault(r["family"], r)
    chosen = list(out.values())
    if "pme-direct" in out:
        key = oracles._pme_key(out["pme-direct"])
        chosen += [r for r in requests
                   if r["family"] == "pme-formula" and oracles._pme_key(r) == key]
    return chosen


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smallest_requests_pass_their_oracles(workload):
    requests = _smallest(workloads.stream(workload, 7))
    state = {}
    answers = [families.EXECUTORS[r["family"]](r["args"], state) for r in requests]
    ctx = oracles.Context(requests, answers)
    for r, a in zip(requests, answers):
        assert oracles.check(r, a, ctx) is None, r
        families.serialize(a)


def test_traced_names_exist():
    for short, classes in tracing.METHODS.items():
        mod = importlib.import_module("extremal." + short)
        for cls_name, attrs in classes.items():
            cls = getattr(mod, cls_name)
            for attr in attrs:
                assert attr in cls.__dict__, (short, cls_name, attr)
    for span in tracing.RENAMED:
        short, name = span.split(".")
        assert callable(getattr(importlib.import_module("extremal." + short), name)), span
