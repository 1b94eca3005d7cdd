"""One benchmark session: a fresh interpreter serving one request stream.

    python3 perfbench/session.py WORKLOAD MODE < spec.json

MODE is `run` or `trace` (also wrap the package's layers, see tracing.py).
The spec on stdin holds the requests and whether to check the answers.  The
session imports the modules its workload calls, notes the time, then serves
the requests one after another from one client, with process-global caches
cold at the start and warm across the stream.  Peak RSS is read when the
stream ends, before any check imports an oracle.  The last line of stdout is
a JSON result.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from families import EXECUTORS, IMPORTS, serialize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


# On a shared host the speed can drift by 20-30 % within seconds, differently
# on each core (seen on a 2-core VM), for the package and any code alike.  An interval timer in
# this process runs a fixed integer loop every PROBE_INTERVAL_S and records
# how long it took: the speed of the core the session runs on, sampled
# throughout every request.  Times are scaled to the speed at which the loop
# takes PROBE_NOMINAL_S ("seconds at nominal speed").
PROBE_LOOP = 3000
PROBE_INTERVAL_S = 0.02
PROBE_NOMINAL_S = 0.25e-3
PROBES = []  # (start, duration), perf_counter seconds


def _probe(signum, frame):
    t = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i % 7
    PROBES.append((t, time.perf_counter() - t))


def nominal(t0, t1):
    """The time from t0 to t1 less the probes run in it, scaled by nominal
    over measured probe time (the median of the probes within [t0, t1] and
    the two on either side)."""
    starts = [p[0] for p in PROBES]
    i, j = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
    inside = sum(p[1] for p in PROBES[i:j])
    near = PROBES[max(0, i - 2):j + 2]
    return (t1 - t0 - inside) * PROBE_NOMINAL_S / statistics.median(p[1] for p in near)


def _import_workload(workload):
    sys.path.insert(0, SRC)
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    t_ready = time.monotonic()
    where = os.path.abspath(sys.modules["extremal"].__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit("extremal was imported from %s, not %s" % (where, SRC))
    return t_ready


def serve(requests):
    """Answers, errors and (start, end) of every request."""
    state = {}  # what executors keep across the stream: the shared engines
    answers, errors, spans = [], [], []
    for req in requests:
        fn = EXECUTORS[req["family"]]
        t0 = time.perf_counter()
        try:
            ans, err = fn(req["args"], state), None
        except Exception as exc:  # a request that raises is a failed request
            ans, err = None, "%s: %s" % (type(exc).__name__, exc)
        spans.append((t0, time.perf_counter()))
        answers.append(ans)
        errors.append(err)
    return answers, errors, spans


def main(argv):
    workload, mode = argv[1], argv[2]
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t_ready = _import_workload(workload)
    setup_probe_s = sum(p[1] for p in PROBES)
    _probe(None, None)  # at least one sample, however fast the imports
    setup_scale = PROBE_NOMINAL_S / statistics.median(p[1] for p in PROBES)
    spec = json.load(sys.stdin)
    requests = spec["requests"]
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.install()
    answers, errors, spans = serve(requests)
    signal.setitimer(signal.ITIMER_REAL, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = [nominal(t0, t1) for t0, t1 in spans]
    run_s = sum(lat)

    out = {
        "t_ready": t_ready,
        "setup_probe_s": setup_probe_s,
        "setup_scale": setup_scale,
        "run_s": run_s,
        "wall_s": spans[-1][1] - spans[0][0],
        "peak_rss_mb": peak_rss_mb,
        "log": [[r["family"], r["size"][0], r["size"][1], 1e3 * t]
                for r, t in zip(requests, lat)],
        "errors": [[i, e] for i, e in enumerate(errors) if e],
    }
    if tracer is not None:
        # metrics first: the checks below must not count as traced work
        out["trace"] = {"names": tracer.name_stats(), "layers": tracer.layer_self(),
                        "metrics": tracing.per_layer_metrics(
                            tracer, spec["untraced_run_s"], run_s),
                        "spans": len(tracer.span_name)}
        tracer.write(spec["spans_path"])
    out["hashes"] = [
        None if a is None else hashlib.sha1(serialize(a).encode()).hexdigest()[:16]
        for a in answers
    ]
    if spec.get("check"):
        import oracles

        ctx = oracles.Context(requests, answers)
        out["rejected"] = [
            [i, reason] for i, (r, a) in enumerate(zip(requests, answers))
            if a is not None and (reason := oracles.check(r, a, ctx))
        ]
        out["self_test"] = oracles.self_test(requests, answers, ctx)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
