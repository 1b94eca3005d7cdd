"""Session benchmark of the extremal package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): su2-tables, su3-modules, symbolic.  A run
builds the workload's request stream from the seed and serves it in fresh
interpreters (session.py), one client, one request after another.

--trace 0 serves the same stream in sessions until S seconds have passed
(at least MIN_SESSIONS); measure() says how the metrics combine them.  The
first session's answers are checked by independent oracles (oracles.py),
whose checkers must also reject one perturbed answer per request family;
later sessions must give answers identical to the first.

--trace 1 serves the stream once untraced and once traced (tracing.py), and
reads an import-time breakdown from `python -X importtime`; it prints the
per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A per-request log, the environment and, in trace mode,
the spans are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SESSION = os.path.join(ROOT, "perfbench", "session.py")
MIN_SESSIONS = 4
RUN_LIMIT_S = 170  # a run must end within 180 s
IMPORTTIME_RUNS = 3


class BenchError(RuntimeError):
    pass


def _env():
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")


def _run(cmd, deadline, **kw):
    """subprocess.run that is killed, and waited for, at the deadline."""
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=_env(), timeout=max(1.0, deadline - time.monotonic()),
                              **kw)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not end within the run's %d s" % (
            " ".join(cmd[1:3]), RUN_LIMIT_S))


def spawn(workload, mode, spec, deadline):
    """Run one session; returns its result with setup_s added."""
    t0 = time.monotonic()
    proc = _run([sys.executable, SESSION, workload, mode], deadline,
                input=json.dumps(spec))
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError("%s session exited with %d:\n%s" % (mode, proc.returncode, tail))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["t_ready"] - t0 - out["setup_probe_s"]) * out["setup_scale"]
    return out


def _failures(requests, first, session):
    """(count, first offender) of a session: raised, rejected by an oracle
    (first session) or differing from the first session's answers."""
    bad = {}
    for i, err in session["errors"]:
        bad.setdefault(i, "raised " + err)
    for i, reason in session.get("rejected", []):
        bad.setdefault(i, "rejected: " + reason)
    if session is not first:
        for i, (a, b) in enumerate(zip(first["hashes"], session["hashes"])):
            if a != b:
                bad.setdefault(i, "answer differs from the first session's")
    if not bad:
        return 0, None
    i = min(bad)
    return len(bad), "request %d %s %s: %s" % (
        i, requests[i]["family"], json.dumps(requests[i]["args"]), bad[i])


def _self_test_failures(first):
    return sorted(f for f, reason in first.get("self_test", {}).items() if not reason)


def hd_quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  It moves
    smoothly where the latency distribution has gaps, where interpolating
    the two nearest order statistics jumps."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    num = den = 0.0
    for i, x in enumerate(xs):
        h = 1.0 / (n * steps)
        w = 0.0
        for k in range(steps):
            t = (i * steps + k + 0.5) * h
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log(1 - t) - log_beta)
        num += w * x
        den += w
    return num / den


def measure(workload, requests, seconds, deadline):
    """Sessions of the stream until `seconds` have passed, at least
    MIN_SESSIONS.  Times are in seconds at nominal speed (session.py).  Each
    request's latency is the median of its latencies over the sessions;
    run_s is the stream's time at those latencies, and the percentiles are
    taken over them."""
    start = time.monotonic()
    sessions = []
    spec = {"requests": requests, "check": True}
    while True:
        t0 = time.monotonic()
        sessions.append(spawn(workload, "run", spec, deadline))
        spec = {"requests": requests}
        cost = time.monotonic() - t0
        if len(sessions) >= MIN_SESSIONS and time.monotonic() - start + cost > seconds:
            break
    lat = [statistics.median(v) for v in zip(*([x[3] for x in s["log"]] for s in sessions))]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
        "run_s": (sum(lat) / 1e3, "s"),
        "latency_p50_ms": (hd_quantile(lat, 0.5), "ms"),
        "latency_p90_ms": (hd_quantile(lat, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sessions), "MB"),
    }
    return sessions, metrics, {"session_run_s": [s["run_s"] for s in sessions],
                               "session_wall_s": [s["wall_s"] for s in sessions]}


def importtime(workload, deadline):
    """(sympy_s, extremal_s) from `python -X importtime`: the cumulative
    import time of sympy, and the self time of the package's own modules."""
    from families import IMPORTS

    code = "import sys; sys.path.insert(0, 'src'); " + "; ".join(
        "import " + m for m in IMPORTS[workload])
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = _run([sys.executable, "-X", "importtime", "-c", code], deadline)
        if proc.returncode != 0:
            raise BenchError("importtime probe failed: %s" % proc.stderr[-300:])
        sympy_us = extremal_us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)$", line)
            if not m:
                continue
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if name == "sympy":
                sympy_us += cum_us
            elif name == "extremal" or name.startswith("extremal."):
                extremal_us += self_us
        runs.append((sympy_us / 1e6, extremal_us / 1e6))
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs))


def traced(workload, requests, deadline):
    plain = spawn(workload, "run", {"requests": requests, "check": True}, deadline)
    spans = os.path.join(OUT, "spans-%s.txt.gz" % workload)
    tr = spawn(workload, "trace", {"requests": requests, "spans_path": spans,
                                   "untraced_run_s": plain["run_s"]}, deadline)
    metrics = {k: tuple(v) for k, v in tr["trace"]["metrics"].items()}
    sympy_s, extremal_s = importtime(workload, deadline)
    metrics["import.sympy_s"] = (sympy_s, "s")
    metrics["import.extremal_s"] = (extremal_s, "s")
    layers = tr["trace"]["layers"]
    total = sum(layers.values()) or 1.0
    extra = {"layer_share": {k: v / total for k, v in sorted(layers.items())},
             "spans": tr["trace"]["spans"], "spans_file": spans,
             "names": tr["trace"]["names"]}
    return [plain, tr], metrics, extra


def environment(deadline):
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    probe = _run([sys.executable, "-c",
                  "import json, sympy; from sympy.external.gmpy import GROUND_TYPES; "
                  "print(json.dumps([sympy.__version__, GROUND_TYPES]))"], deadline)
    if probe.returncode == 0:
        env["sympy"], env["ground_types"] = json.loads(probe.stdout)
    env["git_sha"] = _git_sha()
    return env


def _git_sha():
    """HEAD of the checkout, read from .git without leaving it; "unknown"
    outside a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _scaling(sessions):
    """Median latency per (family, size) over every session's log."""
    cells = {}
    for s in sessions:
        for fam, size_name, size, ms in s["log"]:
            cells.setdefault((fam, size_name, str(size)), []).append(ms)
    return [[f, n, v, statistics.median(t), len(t)]
            for (f, n, v), t in sorted(cells.items())]


def _record(workload, seed, trace, env, result, extra, sessions, scaling):
    """Append the run, with every session's per-request log (family, size,
    latency), to the history, and flag a change of environment."""
    os.makedirs(OUT, exist_ok=True)
    history = os.path.join(OUT, "history.jsonl")
    key = {k: env.get(k) for k in ("python", "sympy", "ground_types", "nproc")}
    previous = None
    if os.path.exists(history):
        with open(history) as fh:
            lines = fh.read().splitlines()
        if lines:
            previous = json.loads(lines[-1]).get("env_key")
    entry = {"workload": workload, "seed": seed, "trace": trace, "env": env,
             "env_key": key, "result": result, "extra": extra,
             "scaling": scaling, "logs": [s["log"] for s in sessions]}
    with open(history, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    return previous is not None and previous != key


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "extremal", "__init__.py")):
        print("error: no package at src/extremal in %s" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    requests = workloads.stream(args.workload, args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        env = environment(deadline)
        if args.trace:
            sessions, metrics, extra = traced(args.workload, requests, deadline)
        else:
            sessions, metrics, extra = measure(args.workload, requests, args.seconds,
                                               deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    first = sessions[0]
    failed, offender = 0, None
    for s in sessions:
        n, why = _failures(requests, first, s)
        failed += n
        offender = offender or why
    untested = _self_test_failures(first)
    attempted = len(requests) * len(sessions)
    result = {
        "correct": failed == 0 and not untested,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    scaling = _scaling(sessions)
    moved = _record(args.workload, args.seed, args.trace, env, result, extra,
                    sessions, scaling)

    print("workload %s seed %d: %d sessions x %d requests, env %s" % (
        args.workload, args.seed, len(sessions), len(requests), json.dumps(env)))
    if moved:
        print("note: environment differs from the previous run; do not compare")
    print("failed_frac %.6f (%d of %d)" % (failed / attempted, failed, attempted))
    print("latency percentiles over %d requests per session" % len(requests))
    if offender:
        print("first offender: %s" % offender)
    print("oracle self-test: %s" % (
        "every checker rejected its perturbed answer" if not untested
        else "checkers accepting a perturbed answer: %s" % ", ".join(untested)))
    for fam, size_name, size, ms, n in scaling:
        print("scaling %-12s %s=%-5s %10.3f ms (n=%d)" % (fam, size_name, size, ms, n))
    if "layer_share" in extra:
        for layer, share in extra["layer_share"].items():
            print("layer %-10s %6.1f %% of traced self time" % (layer, 100 * share))
    for name, (value, unit) in metrics.items():
        print("metric %s = %.6g %s" % (name, value, unit))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
