"""Command-line front end: exact coupling tables, projector dumps, GT bases,
and the verification suites.

Output is deterministic: records are sorted by their canonical key order and
rendered identically across runs.  Exact values appear as Radical strings;
the value_float column is a display-only decimal rendering.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

from .algebra import build_root_system
from . import exact
from .exact import sqrt_of_rational
# imported at load time on purpose: every perfbench workload must load pbw at
# set-up, for tracing.install() and so that setup_s and run_s keep their split
from .pbw import TaylorElement, shared_engine
from .projector import (
    IdentityReport,
    extremal_projector,
    no_go_polynomial_residual,
    verify_extremal_identities,
)
from .repmod import su3_dim, su3_label
from .su3gt import enumerate_gt_labels, gt_hypercharge, gt_norm_factor, gt_vector
from .wigner2 import cgc_closed_doubled, cgc_projector_doubled, cgc_table, ninej, sixj

SCHEMA = 1


def half(text):
    """argparse type for exact half-integers written as `p/2` or integers."""
    try:
        return exact.half(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a half-integer: %r" % (text,))


def _vfloat(v):
    return "%.12g" % float(v)


def _record(keys, value):
    rec = dict(keys)
    rec["value"] = str(value)
    rec["value_float"] = _vfloat(value)
    return rec


# -- table builders ---------------------------------------------------


def records_cgc_su2(args):
    table = cgc_table(args.j1, args.j2, args.j3)
    # every doubled label d of the table has |d| <= 2 j1 + 2 j2; each is
    # printed as its half-integer once, and the records share the strings
    top = sum(exact.doubled(args.j1, args.j2))
    text = {d: "%d/2" % d if d % 2 else str(d // 2) for d in range(-top, top + 1)}
    out = []
    for labels in table:
        v = cgc_closed_doubled(*labels)
        if v:
            keys = zip(("j1", "m1", "j2", "m2", "j3", "m3"), map(text.__getitem__, labels))
            out.append(_record(keys, v))
    return out


def records_cgc_su3(args):
    from .su3cgc import coupled_basis, decompose, pair_module

    lam1, mu1, lam2, mu2 = args.lam1, args.mu1, args.lam2, args.mu2
    found = decompose(lam1, mu1, lam2, mu2)
    targets = sorted(found)
    if args.lam3 is not None or args.mu3 is not None:
        if args.lam3 is None or args.mu3 is None:
            raise CliError("--lam3 and --mu3 must be given together")
        want = (args.lam3, args.mu3)
        if want not in found:
            raise CliError(
                "(%d,%d) does not occur in (%d,%d)x(%d,%d)"
                % (want + (lam1, mu1, lam2, mu2))
            )
        targets = [want]
    tags = pair_module(lam1, mu1, lam2, mu2).tags
    out = []
    for lam3, mu3 in targets:
        for s in range(1, len(found[(lam3, mu3)]) + 1):
            vecs = coupled_basis(lam1, mu1, lam2, mu2, lam3, mu3, s)
            for g3, v in zip(enumerate_gt_labels(lam3, mu3), vecs):
                for idx in sorted(v.coords):
                    g1, g2 = tags[idx]
                    out.append(
                        _record(
                            [
                                ("lam3", lam3), ("mu3", mu3), ("s", s),
                                ("j3", str(g3[0])), ("t3", str(g3[1])), ("tz3", str(g3[2])),
                                ("j1", str(g1[0])), ("t1", str(g1[1])), ("tz1", str(g1[2])),
                                ("j2", str(g2[0])), ("t2", str(g2[1])), ("tz2", str(g2[2])),
                            ],
                            v.coords[idx],
                        )
                    )
    return out


def _spins(args, count):
    """--j1 .. --j<count> with their record keys, refused if any is negative."""
    js = [getattr(args, "j%d" % k) for k in range(1, count + 1)]
    if any(j < 0 for j in js):
        raise CliError("spins must be nonnegative")
    return js, [("j%d" % k, str(j)) for k, j in enumerate(js, 1)]


def records_sixj(args):
    js, keys = _spins(args, 6)
    return [_record(keys, sixj(*js))]


def records_ninej(args):
    js, keys = _spins(args, 9)
    return [_record(keys, ninej((js[0:3], js[3:6], js[6:9])))]


def records_gt_basis(args):
    lam, mu = su3_label(args.lam, args.mu)
    out = []
    for lab in enumerate_gt_labels(lam, mu):
        v = gt_vector(lam, mu, lab)
        coords = ";".join(
            "%d:%s" % (i, v.coords[i]) for i in sorted(v.coords)
        )
        rec = _record(
            [
                ("lam", lam), ("mu", mu),
                ("j", str(lab[0])), ("t", str(lab[1])), ("tz", str(lab[2])),
                ("y", str(gt_hypercharge(lam, mu, lab[0]))),
            ],
            gt_norm_factor(lam, mu, lab[0], lab[1]),
        )
        rec["coords"] = coords
        out.append(rec)
    return out


def _parse_order(text):
    """--order as a tuple of roots; `extremal_projector` checks that they
    form a normal ordering."""
    seq = []
    for tok in text.split(","):
        tok = tok.strip()
        if len(tok) != 2 or not tok.isdigit():
            raise CliError("bad root %r in --order (want e.g. 12,13,23)" % (tok,))
        seq.append((int(tok[0]), int(tok[1])))
    return tuple(seq)


def records_projector(args):
    n = {"su2": 2, "su3": 3}[args.algebra]
    order = _parse_order(args.order) if args.order else None
    P = extremal_projector(build_root_system(n), order=order, N=args.trunc)
    return [{"lowering": L, "coefficient": c, "raising": R}
            for L, c, R in P.monomial_texts()]


# -- verification suites ----------------------------------------------


def _verify_su_projector(n, trunc):
    default = {2: 6, 3: 4}[n]
    N = trunc if trunc is not None else default
    if N < 1:
        # the residuals are kept up to raising degree N - 1: none at N = 0
        raise CliError("truncation bound must be >= 1 for su%d-projector" % n)
    eng = shared_engine(n)
    P = extremal_projector(eng.sys, N=N, engine=eng)
    failures = verify_extremal_identities(P).failures()
    for check, root, residual in failures:
        L, c, R = residual[0]
        first = TaylorElement(eng, N, {(L, R): c}).dump()
        print("%s fails%s: %d-term residual, first %s"
              % (check, " at root %s" % (root,) if root else "", len(residual), first),
              file=sys.stderr)
    failed = {check for check, _, _ in failures}
    return [(check, check not in failed) for check in IdentityReport.CHECKS]


def _verify_no_go(trunc):
    N = trunc if trunc is not None else 3
    res = no_go_polynomial_residual(build_root_system(2), N)
    return [("polynomial_truncation_fails_annihilation", bool(res.terms))]


def _verify_su2_cgc(trunc):
    top = trunc if trunc is not None else 2  # the largest doubled spin
    ok = all(not (cgc_closed_doubled(*labels) - cgc_projector_doubled(*labels))
             for j1 in range(top + 1) for j2 in range(top + 1)
             for labels in cgc_table(Fraction(j1, 2), Fraction(j2, 2)))
    return [("closed_equals_projector_route", ok)]


def _verify_su3_gt(trunc):
    lam, mu = (1, 1)
    labels = enumerate_gt_labels(lam, mu)
    count_ok = len(labels) == su3_dim(lam, mu)
    vecs = [gt_vector(lam, mu, lab) for lab in labels]
    gram_ok = all(va.inner(vb) == (a == b)
                  for a, va in enumerate(vecs) for b, vb in enumerate(vecs))
    return [("label_count", count_ok), ("orthonormality", gram_ok)]


def _verify_su3_cgc(trunc):
    from .su3cgc import decompose, su3_cgc

    found = decompose(1, 0, 0, 1)
    decomp_ok = sorted(found) == [(0, 0), (1, 1)]
    mag = sqrt_of_rational(Fraction(1, 3))
    singlet_ok = all(su3_cgc(1, 0, g1, 0, 1, g2, 0, 0, (0, 0, 0)) in (0, mag, -mag)
                     for g1 in enumerate_gt_labels(1, 0) for g2 in enumerate_gt_labels(0, 1))
    return [("decomposition", decomp_ok), ("singlet_magnitudes", singlet_ok)]


SUITES = {
    "su2-projector": lambda trunc: _verify_su_projector(2, trunc),
    "su3-projector": lambda trunc: _verify_su_projector(3, trunc),
    "no-go": _verify_no_go,
    "su2-cgc": _verify_su2_cgc,
    "su3-gt": _verify_su3_gt,
    "su3-cgc": _verify_su3_cgc,
}


def records_verify(args):
    if args.trunc is not None and args.trunc < 0:
        raise CliError("truncation bound must be >= 0")
    if args.trunc is not None and args.suite in ("su3-gt", "su3-cgc"):
        raise CliError("the %s suite takes no truncation bound" % args.suite)
    checks = SUITES[args.suite](args.trunc)
    return [
        {"suite": args.suite, "check": name, "ok": bool(ok)} for name, ok in checks
    ]


# -- output plumbing --------------------------------------------------


class CliError(Exception):
    pass


def _render_json(records, command):
    """The bytes of json.dumps(doc, indent=2) + "\n", on json's C encoder.

    Any indent sends json to its pure-Python encoder.  A record is a flat
    dict of scalars with at least one field, and an encoded string never
    holds a raw newline, so one compact encode whose item separator carries
    the field indent, with the record brackets written here, is the same.
    """
    head = '{\n  "schema": %s,\n  "command": %s,\n  "records": ' % (
        json.dumps(SCHEMA), json.dumps(command))
    if not records:
        return head + "[]\n}\n"
    body = json.dumps(records, separators=(",\n      ", ": "))[2:-2]
    body = body.replace("},\n      {", "\n    },\n    {\n      ")
    return head + "[\n    {\n      " + body + "\n    }\n  ]\n}\n"


def render(records, fmt, command):
    if not records:
        fields = []
    else:
        fields = list(records[0].keys())
    if fmt == "json":
        return _render_json(records, command)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        w.writerow(fields)
        for rec in records:
            w.writerow([rec[f] for f in fields])
        return buf.getvalue()
    widths = {f: max([len(f)] + [len(str(r[f])) for r in records]) for f in fields}
    lines = ["  ".join(f.ljust(widths[f]) for f in fields).rstrip()]
    for rec in records:
        lines.append("  ".join(str(rec[f]).ljust(widths[f]) for f in fields).rstrip())
    return "\n".join(lines) + "\n"


def emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".extremal-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.cache  # no argument: it holds the one parser
def build_parser():
    p = argparse.ArgumentParser(
        prog="extremal",
        description="Exact extremal-projector calculator for su(2) and su(3): "
        "Clebsch-Gordan tables, 6j/9j symbols, Gelfand-Tsetlin bases.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        sp.add_argument("--out", metavar="FILE", default=None)

    sp = sub.add_parser("cgc-su2", help="su(2) Clebsch-Gordan table")
    sp.add_argument("--j1", type=half, required=True)
    sp.add_argument("--j2", type=half, required=True)
    sp.add_argument("--j3", type=half, default=None)
    common(sp)

    sp = sub.add_parser("cgc-su3", help="su(3) Clebsch-Gordan table")
    for name in ("lam1", "mu1", "lam2", "mu2"):
        sp.add_argument("--" + name, type=int, required=True)
    sp.add_argument("--lam3", type=int, default=None)
    sp.add_argument("--mu3", type=int, default=None)
    common(sp)

    sp = sub.add_parser("sixj", help="su(2) 6j symbol")
    for k in range(1, 7):
        sp.add_argument("--j%d" % k, type=half, required=True)
    common(sp)

    sp = sub.add_parser("ninej", help="su(2) 9j symbol")
    for k in range(1, 10):
        sp.add_argument("--j%d" % k, type=half, required=True)
    common(sp)

    sp = sub.add_parser("gt-basis", help="Gelfand-Tsetlin basis of an su(3) irrep")
    sp.add_argument("--lam", type=int, required=True)
    sp.add_argument("--mu", type=int, required=True)
    common(sp)

    sp = sub.add_parser("projector", help="dump the truncated extremal projector")
    sp.add_argument("--algebra", choices=("su2", "su3"), required=True)
    sp.add_argument("--trunc", type=int, default=4)
    sp.add_argument("--order", default=None, help="normal ordering, e.g. 12,13,23")
    common(sp)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--trunc", type=int, default=None)
    common(sp)

    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse takes a value such as -1/2 for an option: glue it to its flag
        if re.fullmatch(r"-\d+/\d+", argv[i]) and argv[i - 1].startswith("--"):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    # looked up at call time, so that a replaced records_* function is used
    build = globals()["records_" + args.command.replace("-", "_")]
    try:
        records = build(args)
    except (CliError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        # a failed self-check, a weight or factorial pole, the recursion limit
        print("error: %s: %s" % (type(exc).__name__, " ".join(str(exc).split())),
              file=sys.stderr)
        return 4
    try:
        emit(render(records, args.format, args.command), args.out)
    except OSError as exc:
        print("error: cannot write %s: %s" % (args.out or "stdout", exc.strerror or exc),
              file=sys.stderr)
        return 2
    if args.command == "verify" and not all(r["ok"] for r in records):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
