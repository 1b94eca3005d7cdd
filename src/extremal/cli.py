"""Command-line front end: exact coupling tables, projector dumps, GT bases,
and the verification suites.

Output is deterministic: records are sorted by their canonical key order and
rendered identically across runs.  Exact values appear as Radical strings;
the value_float column is a display-only decimal rendering.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

from .algebra import (
    NormalOrdering,
    build_root_system,
    validate_normal_ordering,
)
from . import exact
from .exact import Radical, projections, spin_range, sqrt_of_rational
# imported at load time on purpose: every perfbench workload must load pbw at
# set-up, for tracing.install() and so that setup_s and run_s keep their split
from .pbw import RewriteEngine
from .projector import (
    extremal_projector,
    no_go_polynomial_residual,
    verify_extremal_identities,
)
from .su3gt import enumerate_gt_labels, gt_hypercharge, gt_norm_factor, gt_vector
from .wigner2 import cgc_closed, cgc_projector, ninej, sixj

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
    j1, j2 = args.j1, args.j2
    if j1 < 0 or j2 < 0:
        raise CliError("spins must be nonnegative")
    # j1 + j2, j1 + j2 - 1, ..., |j1 - j2|
    j3s = [j1 + j2 - k for k in range(int(2 * min(j1, j2)) + 1)]
    if args.j3 is not None:
        if args.j3 not in j3s:
            raise CliError("j3=%s does not occur in %s x %s"
                           % (args.j3, j1, j2))
        j3s = [args.j3]
    out = []
    for j3 in j3s:
        for m3 in projections(j3):
            for m1 in projections(j1):
                m2 = m3 - m1
                if abs(m2) > j2:
                    continue
                v = cgc_closed(j1, m1, j2, m2, j3, m3)
                if not v:
                    continue
                out.append(
                    _record(
                        [
                            ("j1", str(j1)), ("m1", str(m1)),
                            ("j2", str(j2)), ("m2", str(m2)),
                            ("j3", str(j3)), ("m3", str(m3)),
                        ],
                        v,
                    )
                )
    return out


def records_cgc_su3(args):
    from .su3cgc import coupled_vector, decompose, pair_module

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
            for g3 in enumerate_gt_labels(lam3, mu3):
                v = coupled_vector(lam1, mu1, lam2, mu2, lam3, mu3, s, g3)
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
    lam, mu = args.lam, args.mu
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


def _parse_order(sys_data, text):
    seq = []
    for tok in text.split(","):
        tok = tok.strip()
        if len(tok) != 2 or not tok.isdigit():
            raise CliError("bad root %r in --order (want e.g. 12,13,23)" % (tok,))
        seq.append((int(tok[0]), int(tok[1])))
    seq = tuple(seq)
    try:
        ok, _ = validate_normal_ordering(sys_data, seq)
    except ValueError as exc:
        raise CliError(str(exc))
    if not ok:
        raise CliError("%r is not a normal ordering" % (text,))
    return NormalOrdering(sequence=seq)


def records_projector(args):
    n = {"su2": 2, "su3": 3}[args.algebra]
    sys_data = build_root_system(n)
    order = _parse_order(sys_data, args.order) if args.order else None
    P = extremal_projector(sys_data, order=order, N=args.trunc).canonical()
    out = []
    for L, c, R in P.monomials():
        import sympy

        num, den = sympy.fraction(c.as_expr())
        out.append(
            {
                "lowering": P._word_str(L),
                "coefficient": "(%s)/(%s)" % (num, den) if den != 1 else str(num),
                "raising": P._word_str(R),
            }
        )
    return out


# -- verification suites ----------------------------------------------


def _verify_su_projector(n, trunc):
    default = {2: 6, 3: 4}[n]
    N = trunc if trunc is not None else default
    if N < 1:
        # the residuals are kept up to raising degree N - 1: none at N = 0
        raise CliError("truncation bound must be >= 1 for su%d-projector" % n)
    sys_data = build_root_system(n)
    eng = RewriteEngine(sys_data)
    P = extremal_projector(sys_data, N=N, engine=eng)
    rep = verify_extremal_identities(P, sys_data, N, engine=eng)
    checks = [
        ("annihilation_left", all(not v for v in rep.annihilation_left.values())),
        ("annihilation_right", all(not v for v in rep.annihilation_right.values())),
        ("idempotency", not rep.idempotency),
    ]
    return checks


def _verify_no_go(trunc):
    N = trunc if trunc is not None else 3
    res = no_go_polynomial_residual(build_root_system(2), N)
    return [("polynomial_truncation_fails_annihilation", bool(res.terms))]


def _verify_su2_cgc(trunc):
    hi = Fraction(trunc) / 2 if trunc is not None else Fraction(1)
    ok = True
    for j1 in spin_range(0, hi):
        for j2 in spin_range(0, hi):
            for j3 in spin_range(abs(j1 - j2), j1 + j2):
                for m3 in projections(j3):
                    for m1 in projections(j1):
                        m2 = m3 - m1
                        if abs(m2) > j2:
                            continue
                        a = cgc_closed(j1, m1, j2, m2, j3, m3)
                        b = cgc_projector(j1, m1, j2, m2, j3, m3)
                        ok = ok and not (a - b)
    return [("closed_equals_projector_route", ok)]


def _verify_su3_gt(trunc):
    lam, mu = (1, 1)
    labels = enumerate_gt_labels(lam, mu)
    count_ok = len(labels) == (lam + 1) * (mu + 1) * (lam + mu + 2) // 2
    vecs = [gt_vector(lam, mu, lab) for lab in labels]
    one = Radical.from_rational(1)
    gram_ok = True
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            want = one if a == b else Radical.from_rational(0)
            if va.inner(vb) != want:
                gram_ok = False
    return [("label_count", count_ok), ("orthonormality", gram_ok)]


def _verify_su3_cgc(trunc):
    from .su3cgc import decompose, su3_cgc

    found = decompose(1, 0, 0, 1)
    decomp_ok = sorted(found) == [(0, 0), (1, 1)]
    mag = sqrt_of_rational(Fraction(1, 3))
    labs1 = enumerate_gt_labels(1, 0)
    labs2 = enumerate_gt_labels(0, 1)
    singlet_ok = True
    zero = Radical.from_rational(0)
    for g1 in labs1:
        for g2 in labs2:
            v = su3_cgc(1, 0, g1, 0, 1, g2, 0, 0, (0, 0, 0))
            if v != zero and v != mag and v != -mag:
                singlet_ok = False
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
    checks = SUITES[args.suite](args.trunc)
    return [
        {"suite": args.suite, "check": name, "ok": bool(ok)} for name, ok in checks
    ]


# -- output plumbing --------------------------------------------------


class CliError(Exception):
    pass


def render(records, fmt, command):
    if not records:
        fields = []
    else:
        fields = list(records[0].keys())
    if fmt == "json":
        doc = {"schema": SCHEMA, "command": command, "records": records}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
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
    sp.set_defaults(builder=records_cgc_su2)

    sp = sub.add_parser("cgc-su3", help="su(3) Clebsch-Gordan table")
    for name in ("lam1", "mu1", "lam2", "mu2"):
        sp.add_argument("--" + name, type=int, required=True)
    sp.add_argument("--lam3", type=int, default=None)
    sp.add_argument("--mu3", type=int, default=None)
    common(sp)
    sp.set_defaults(builder=records_cgc_su3)

    sp = sub.add_parser("sixj", help="su(2) 6j symbol")
    for k in range(1, 7):
        sp.add_argument("--j%d" % k, type=half, required=True)
    common(sp)
    sp.set_defaults(builder=records_sixj)

    sp = sub.add_parser("ninej", help="su(2) 9j symbol")
    for k in range(1, 10):
        sp.add_argument("--j%d" % k, type=half, required=True)
    common(sp)
    sp.set_defaults(builder=records_ninej)

    sp = sub.add_parser("gt-basis", help="Gelfand-Tsetlin basis of an su(3) irrep")
    sp.add_argument("--lam", type=int, required=True)
    sp.add_argument("--mu", type=int, required=True)
    common(sp)
    sp.set_defaults(builder=records_gt_basis)

    sp = sub.add_parser("projector", help="dump the truncated extremal projector")
    sp.add_argument("--algebra", choices=("su2", "su3"), required=True)
    sp.add_argument("--trunc", type=int, default=4)
    sp.add_argument("--order", default=None, help="normal ordering, e.g. 12,13,23")
    common(sp)
    sp.set_defaults(builder=records_projector)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--trunc", type=int, default=None)
    common(sp)
    sp.set_defaults(builder=records_verify)

    return p


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse takes a value such as -1/2 for an option: glue it to its flag
        if re.fullmatch(r"-\d+/\d+", argv[i]) and argv[i - 1].startswith("--"):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    try:
        records = args.builder(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        # a failed self-check, a singular weight or pole, the recursion limit
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
