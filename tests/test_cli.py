"""Command-line interface: formats, determinism, exit codes, atomic output."""

import argparse
import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal import cli
from extremal.exact import Radical
from extremal.projector import IdentityReport
from extremal.wigner2 import cgc_closed


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cgc_su2_pretty_row_count(capsys):
    code, out, _ = run(capsys, "cgc-su2", "--j1", "1/2", "--j2", "1/2")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    # header + 6 nonzero coefficients (3 triplet + 1 stretched pair doubled + 2 singlet)
    assert len(lines) == 1 + 6
    assert lines[0].startswith("j1")


def test_cgc_su2_known_value(capsys):
    code, out, _ = run(
        capsys, "cgc-su2", "--j1", "1/2", "--j2", "1/2", "--j3", "0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "cgc-su2"
    vals = {(r["m1"], r["m2"]): r["value"] for r in doc["records"]}
    assert vals[("1/2", "-1/2")] == "1/2*sqrt(2)"
    assert vals[("-1/2", "1/2")] == "-1/2*sqrt(2)"
    for r in doc["records"]:
        assert abs(float(r["value_float"])) == pytest.approx(0.5 ** 0.5)


def test_json_output_deterministic(capsys):
    a = run(capsys, "cgc-su2", "--j1", "1", "--j2", "1", "--format", "json")
    b = run(capsys, "cgc-su2", "--j1", "1", "--j2", "1", "--format", "json")
    assert a == b
    assert a[0] == 0


def test_csv_format(capsys):
    code, out, _ = run(
        capsys, "sixj", "--j1", "1", "--j2", "1", "--j3", "1",
        "--j4", "1", "--j5", "1", "--j6", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j1", "j2", "j3", "j4", "j5", "j6", "value", "value_float"]
    assert rows[1][6] == "1/6"


def test_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "gt-basis", "--lam", "1", "--mu", "0",
        "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""  # nothing on stdout when --out is given
    doc = json.loads(target.read_text())
    assert len(doc["records"]) == 3
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_refused(tmp_path, capsys, where):
    # a missing parent directory, or a directory as the target: one error
    # line, exit 2, and no temp file left behind
    target = tmp_path / "absent" / "x" if where == "missing" else tmp_path
    code, out, err = run(capsys, "cgc-su2", "--j1", "1", "--j2", "1",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s: " % target)
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_gt_basis_fields(capsys):
    code, out, _ = run(capsys, "gt-basis", "--lam", "1", "--mu", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 8
    rec = doc["records"][0]
    for field in ("lam", "mu", "j", "t", "tz", "y", "value", "value_float", "coords"):
        assert field in rec
    ys = {r["y"] for r in doc["records"]}
    assert ys == {"-1", "0", "1"}


def test_projector_dump(capsys):
    code, out, _ = run(
        capsys, "projector", "--algebra", "su2", "--trunc", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 3
    by_low = {r["lowering"]: r for r in doc["records"]}
    assert by_low[""]["coefficient"] == "1"
    assert by_low["e21"]["raising"] == "e12"
    # -1/(h1 + 2) commuted through e21 into the middle slot: -1/h1
    assert by_low["e21"]["coefficient"] == "(-1)/(h1)"


def test_projector_order_flag(capsys):
    code, out, _ = run(
        capsys, "projector", "--algebra", "su3", "--trunc", "1",
        "--order", "23,13,12", "--format", "json"
    )
    assert code == 0
    code, _, err = run(
        capsys, "projector", "--algebra", "su3", "--trunc", "1", "--order", "12,23,13"
    )
    assert code == 2
    assert "normal ordering" in err


def test_cgc_su3_target_filter(capsys):
    code, out, _ = run(
        capsys, "cgc-su3", "--lam1", "1", "--mu1", "0", "--lam2", "0", "--mu2", "1",
        "--lam3", "0", "--mu3", "0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 3
    assert {r["value"] for r in doc["records"]} <= {"1/3*sqrt(3)", "-1/3*sqrt(3)"}


def test_cli_error_exit_code(capsys):
    # --lam3 without --mu3
    code, _, err = run(
        capsys, "cgc-su3", "--lam1", "1", "--mu1", "0", "--lam2", "0", "--mu2", "1",
        "--lam3", "0"
    )
    assert code == 2
    assert "error:" in err
    # target not in the decomposition
    code, _, err = run(
        capsys, "cgc-su3", "--lam1", "1", "--mu1", "0", "--lam2", "0", "--mu2", "1",
        "--lam3", "2", "--mu3", "2"
    )
    assert code == 2


@pytest.mark.parametrize("command, message", [
    ("gt-basis --lam -1 --mu 0", "labels must be nonnegative"),
    ("cgc-su3 --lam1 -1 --mu1 0 --lam2 1 --mu2 0", "labels must be nonnegative"),
    ("cgc-su3 --lam1 7 --mu1 0 --lam2 1 --mu2 0", "desk-scale guard: lam + mu <= 6"),
    ("cgc-su2 --j1 -1 --j2 1", "spins must be nonnegative"),
    ("cgc-su2 --j1 -1/2 --j2 1", "spins must be nonnegative"),
    ("cgc-su2 --j1 1 --j2 -3/2", "spins must be nonnegative"),
    ("cgc-su2 --j1 1/2 --j2 1/2 --j3 5", "j3=5 does not occur in 1/2 x 1/2"),
    ("cgc-su2 --j1 1/2 --j2 1/2 --j3 1/2", "j3=1/2 does not occur in 1/2 x 1/2"),
    ("sixj --j1 -1 --j2 1 --j3 1 --j4 1 --j5 1 --j6 1", "spins must be nonnegative"),
    ("sixj --j1 1 --j2 1 --j3 1 --j4 -1/2 --j5 1 --j6 1", "spins must be nonnegative"),
    ("ninej --j1 -1 --j2 1 --j3 1 --j4 1 --j5 1 --j6 1 --j7 1 --j8 1 --j9 1",
     "spins must be nonnegative"),
    ("ninej --j1 1 --j2 1 --j3 1 --j4 1 --j5 1 --j6 1 --j7 1 --j8 1 --j9 -1/2",
     "spins must be nonnegative"),
])
def test_domain_error_exit_code(capsys, command, message):
    # a request outside the domain exits 2 with one error line, printing nothing
    code, out, err = run(capsys, *command.split())
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_gt_basis_checks_the_guard_before_enumerating_labels(capsys, monkeypatch):
    # enumerating the labels of (80, 80) alone takes seconds and hundreds of MB
    def refuse(lam, mu):
        raise AssertionError("labels of (%d, %d) enumerated" % (lam, mu))

    monkeypatch.setattr(cli, "enumerate_gt_labels", refuse)
    code, out, err = run(capsys, "gt-basis", "--lam", "80", "--mu", "80")
    assert code == 2
    assert out == ""
    assert err == "error: desk-scale guard: lam + mu <= 6\n"


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_negative_trunc_is_refused(capsys, suite):
    # a negative bound would sweep nothing and report every check as passed
    code, out, err = run(capsys, "verify", "--suite", suite, "--trunc", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: truncation bound must be >= 0\n"


@pytest.mark.parametrize("suite", ["su3-gt", "su3-cgc"])
def test_verify_trunc_is_refused_by_the_fixed_suites(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--trunc", "2")
    assert code == 2
    assert out == ""
    assert err == "error: the %s suite takes no truncation bound\n" % suite


@pytest.mark.parametrize("suite", ["su2-projector", "su3-projector"])
def test_verify_projector_zero_trunc_is_refused(capsys, suite):
    # at N = 0 no residual is kept, so every check would pass unexamined
    code, out, err = run(capsys, "verify", "--suite", suite, "--trunc", "0")
    assert code == 2
    assert out == ""
    assert err == "error: truncation bound must be >= 1 for %s\n" % suite


def test_verify_no_go_zero_trunc_is_refused(capsys):
    # at N = 0 the "residual" is e12 itself, so the control would pass
    # without checking the series
    code, out, err = run(capsys, "verify", "--suite", "no-go", "--trunc", "0")
    assert code == 2
    assert out == ""
    assert err == "error: truncation bound must be >= 1 for the no-go control\n"


def test_bad_half_integer_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cgc-su2", "--j1", "1/3", "--j2", "1/2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_suite_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "su2-projector", "--trunc", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r["ok"] for r in doc["records"])


def _cgc_table_records(capsys, *argv):
    code, out, err = run(capsys, "cgc-su2", *argv, "--format", "json")
    assert (code, err) == (0, "")
    return [tuple(r[k] for k in ("j1", "m1", "j2", "m2", "j3", "m3", "value"))
            for r in json.loads(out)["records"]]


def test_cgc_su2_tables_hold_the_allowed_nonzero_coefficients(capsys):
    # the selection rules scanned in Fractions: j3 from j1 + j2 down to
    # |j1 - j2|, then m3 and m1 descending, keeping |m2| <= j2
    spins = [Fraction(k, 2) for k in range(7)]
    for j1, j2 in product(spins, repeat=2):
        want = []
        j3 = j1 + j2
        while j3 >= abs(j1 - j2):
            for m3 in (j3 - k for k in range(int(2 * j3) + 1)):
                for m1 in (j1 - k for k in range(int(2 * j1) + 1)):
                    m2 = m3 - m1
                    v = cgc_closed(j1, m1, j2, m2, j3, m3) if abs(m2) <= j2 else None
                    if v:
                        want.append(tuple(map(str, (j1, m1, j2, m2, j3, m3, v))))
            j3 -= 1
        full = _cgc_table_records(capsys, "--j1", str(j1), "--j2", str(j2))
        assert full == want, (j1, j2)
        # each --j3 table is the full table's block for that j3
        for j3 in {r[4] for r in full}:
            block = _cgc_table_records(capsys, "--j1", str(j1), "--j2", str(j2),
                                       "--j3", j3)
            assert block == [r for r in full if r[4] == j3], (j1, j2, j3)


@pytest.mark.parametrize("wrong", [(2, 0, 2, 0, 4, 0), (2, 0, 2, 0, 2, 0)],
                         ids=["nonzero", "zero"])
def test_verify_su2_cgc_catches_one_wrong_coefficient(monkeypatch, capsys, wrong):
    # the projector route off by 1 at (1 0 1 0 | 2 0) = sqrt(2/3), or at
    # (1 0 1 0 | 1 0) = 0: the suite visits zero-valued labels too
    route, one = cli.cgc_projector_table, Radical.from_rational(1)
    monkeypatch.setattr(cli, "cgc_projector_table", lambda *spins: (
        (labels, v + one if labels == wrong else v) for labels, v in route(*spins)))
    code, out, _ = run(capsys, "verify", "--suite", "su2-cgc", "--format", "json")
    assert code == 3
    assert json.loads(out)["records"] == [
        {"suite": "su2-cgc", "check": "closed_equals_projector_route", "ok": False}]
    monkeypatch.undo()
    assert run(capsys, "verify", "--suite", "su2-cgc")[0] == 0


def test_verify_failure_exit_code(monkeypatch, capsys):
    # the exit-code contract for a failing check, via an injected suite
    monkeypatch.setitem(cli.SUITES, "no-go", lambda trunc: [("forced", False)])
    code, out, _ = run(capsys, "verify", "--suite", "no-go", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["records"][0]["ok"] is False


def test_failing_projector_check_names_its_residual(monkeypatch, capsys):
    # stdout and the exit code as for any failed check; stderr has one line
    # per failing check and root, with the first residual monomial
    def forged(P):
        first, second, third = P.monomials()
        return IdentityReport(annihilation_left={(1, 2): [second, third]},
                              annihilation_right={(1, 2): []},
                              idempotency=[third])

    monkeypatch.setattr(cli, "verify_extremal_identities", forged)
    code, out, err = run(capsys, "verify", "--suite", "su2-projector", "--trunc", "2",
                         "--format", "json")
    assert code == 3
    assert [(r["check"], r["ok"]) for r in json.loads(out)["records"]] == [
        ("annihilation_left", False), ("annihilation_right", True), ("idempotency", False)]
    assert err.splitlines() == [
        "annihilation_left fails at root (1, 2): 2-term residual, first e21 * [(-1)/(h1)] * e12",
        "idempotency fails: 1-term residual, first e21^2 * [(1)/(2*(h1 - 2)*(h1 - 1))] * e12^2",
    ]


@pytest.mark.parametrize("exc", [
    RuntimeError("decomposition incomplete: 8 of 9"),
    RecursionError("maximum recursion depth exceeded"),
    ArithmeticError("vanishing denominator\nat weight (0, -1)"),
])
def test_internal_failure_exit_code(monkeypatch, capsys, exc):
    # self-checks, poles and the recursion limit exit 4 with one stderr line;
    # the table function is replaced, after the parser is built, by one that
    # raises, so main must look it up when it is called
    cli.build_parser()

    def fail(args):
        raise exc

    for command, argv in [
        ("sixj", ["--j1", "1", "--j2", "1", "--j3", "1", "--j4", "1", "--j5", "1", "--j6", "1"]),
        ("cgc-su2", ["--j1", "1", "--j2", "1/2"]),
    ]:
        monkeypatch.setattr(cli, "records_" + command.replace("-", "_"), fail)
        code, out, err = run(capsys, command, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("error: %s: " % type(exc).__name__)
        assert err.count("\n") == 1


def test_every_subcommand_has_a_table_function():
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    assert sorted(action.choices) == ["cgc-su2", "cgc-su3", "gt-basis", "ninej",
                                      "projector", "sixj", "verify"]
    for command in action.choices:
        assert callable(getattr(cli, "records_" + command.replace("-", "_")))


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    # an optional given once is not carried into the next call
    _, single, _ = run(capsys, "cgc-su2", "--j1", "1", "--j2", "1", "--j3", "0",
                       "--format", "json")
    code, full, _ = run(capsys, "cgc-su2", "--j1", "1", "--j2", "1", "--format", "json")
    assert code == 0
    assert {r["j3"] for r in json.loads(single)["records"]} == {"0"}
    assert {r["j3"] for r in json.loads(full)["records"]} == {"0", "1", "2"}
    assert len(json.loads(full)["records"]) == 9 + 6 + 3
    # nor is a format
    _, as_csv, _ = run(capsys, "cgc-su2", "--j1", "1/2", "--j2", "1/2", "--format", "csv")
    code, pretty, _ = run(capsys, "cgc-su2", "--j1", "1/2", "--j2", "1/2")
    assert code == 0
    assert as_csv.startswith('"j1","m1",')
    assert pretty.split("\n")[0].split() == ["j1", "m1", "j2", "m2", "j3", "m3",
                                              "value", "value_float"]
    # a usage error leaves the parser fit for the next request
    with pytest.raises(SystemExit) as exc:
        cli.main(["cgc-su2", "--j1", "1/3", "--j2", "1/2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "cgc-su2", "--j1", "1/2", "--j2", "1/2")
    assert code == 0
    assert out == pretty


# text that could break a hand-written layout: escapes, raw newlines, "},"
# and the separators themselves inside strings, non-ASCII text
_TRICKY_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["},", '"},\n      {"', "\\", "\n", "\t", "\u00e9\u2211", "[]", ": "]),
)
_RECORD = st.dictionaries(
    _TRICKY_TEXT,
    st.one_of(st.integers(-10 ** 20, 10 ** 20), st.booleans(), _TRICKY_TEXT),
    min_size=1, max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_RECORD, max_size=4), command=_TRICKY_TEXT)
def test_json_render_matches_the_indented_dump(records, command):
    doc = {"schema": cli.SCHEMA, "command": command, "records": records}
    assert cli.render(records, "json", command) == json.dumps(doc, indent=2) + "\n"


# sha256 of stdout for cheap commands; any change to a printed byte (value,
# order, spacing, format) changes a digest
STDOUT_DIGESTS = [
    ("cgc-su2 --j1 1 --j2 1/2",
     "8ebbf4200ec5306b2f899923ac56b76afe3741b78025894a5a059e591575ece6"),
    ("cgc-su2 --j1 1 --j2 1/2 --format json",
     "3e32b48515cc5b27e06f2324af33bdde27f25e91b8a40d1e73d2d688be9afcdd"),
    ("cgc-su2 --j1 1 --j2 1/2 --format csv",
     "176be10ff8764cc6f0fe4f35f065c00cde42f2765ac724fe843e0b595487b8ea"),
    ("sixj --j1 10 --j2 10 --j3 10 --j4 10 --j5 10 --j6 10",
     "e7791aabcc4e7989cf1caa1f68310dfb8d74767fc0ec770640a3b4f818dd41b1"),
    ("sixj --j1 1 --j2 1 --j3 3 --j4 1 --j5 1 --j6 1",
     "448a755bd6670372edadcb6ac6ba4a3d33920a3a219e92725235f8432ea997b6"),
    ("ninej --j1 1 --j2 1/2 --j3 3/2 --j4 1/2 --j5 1 --j6 3/2 --j7 3/2 --j8 3/2"
     " --j9 1 --format json",
     "606ed55eedf71779c60212059a45240561869fd4b4bee70935c0704ab3635209"),
    ("gt-basis --lam 2 --mu 1 --format json",
     "438ddbae2e60868dea81e544d7cb36986295c36ec3e42c402143a060e0e8b201"),
    ("cgc-su3 --lam1 1 --mu1 0 --lam2 0 --mu2 1 --format json",
     "ebc92aa546c7e05bbaff30282b5177d0d7590a0fab16b9daa493cd650e440f7c"),
    ("projector --algebra su3 --trunc 2",
     "c80671a8261787c23fd0425abfe06defbf948bff524589fd146c4d82e60f4615"),
    ("projector --algebra su3 --trunc 2 --order 23,13,12",
     "29efa2dae7cafc4096a9db523cf445e6720dc81708e88bee1fa93e6a653846e1"),
    ("verify --suite su2-cgc --format json",
     "d2bedf714f934e43ebb373bb094f815d9d335f08dcfa00e23edeb29e2d351f43"),
    ("projector --algebra su2 --trunc 6",
     "1493a950f7cf767998f253b9a1ebbbd44c29c6624212910a40b1375c375fbdd0"),
    ("verify --suite no-go --format json",
     "b794abf20613db25f1365ea5cfbacf4f6c41fecc2a4081891b1b57ff374bdf17"),
    ("cgc-su3 --lam1 1 --mu1 1 --lam2 1 --mu2 1 --lam3 1 --mu3 1 --format json",
     "a65d1c905346803eeaf60afccdf882c60494c41ae52e457c1c950675612a4e67"),
    ("gt-basis --lam 3 --mu 3 --format json",
     "c3ebdc78adda4f36597802450ae3ee49ce46e4180e21d11fd9c6895438d6f1a4"),
    ("projector --algebra su3 --trunc 3 --format json",
     "be3755014ee6406b76957b4fdb20c8a25718afb5f58103f3ab63ab3a314ca3ec"),
    ("projector --algebra su3 --trunc 3 --order 23,13,12 --format json",
     "c9a10c5ab301fef1a97264a9a48b34d90d5693723d9187857e33f5c487bd2caa"),
    ("cgc-su3 --lam1 2 --mu1 1 --lam2 1 --mu2 1 --format json",
     "444087a162b05fde2ea6cb92c25359706b0f40c2f8606ecc4c024fff3ffa27d4"),
    ("gt-basis --lam 4 --mu 2 --format json",
     "bfeb6e7022a090147d8b86a9187f32bdfb59a2af64d53491a17c17c9da7e5d07"),
    ("cgc-su3 --lam1 2 --mu1 2 --lam2 1 --mu2 1 --format json",
     "cff61df31a2c6956fc1d8f2e4a3410e17cc8daf3d436c38f62b2ca2e6ceb1c44"),
    ("cgc-su3 --lam1 1 --mu1 1 --lam2 1 --mu2 1 --format csv",
     "00e89808760d035663a84d424ce7ca39e3381712fb9c61e2f3897643eb8574de"),
    ("cgc-su3 --lam1 0 --mu1 2 --lam2 2 --mu2 0",
     "285f69f6dd33db70746658775dbbee1c92c1be659bf23389466abadce26f00a5"),
    ("cgc-su3 --lam1 1 --mu1 0 --lam2 1 --mu2 0 --lam3 0 --mu3 1 --format json",
     "0e4723c9f4d5d7a56f28622ea323c56816d787706667b807718da41ee8b91c91"),
    ("cgc-su2 --j1 3/2 --j2 5/2 --format json",
     "006b9818d062a0ae28f4ff1c14fa733203cf8fea96f29fba5c4f35ba75c6a5d1"),
    ("cgc-su2 --j1 6 --j2 6 --j3 7 --format csv",
     "36158ce3fac4c4ae4a4ca66f475ff9d2dca48609013517c667c0e28e418aa338"),
    ("cgc-su2 --j1 0 --j2 2",
     "8639578483a896ce4b4b8748231094744f32496e51528866e6d427cd09185de8"),
    ("cgc-su2 --j1 8 --j2 15/2 --format json",
     "5bdd9cd9d18fc51af5b70f198ddaa1802ceea47d33ab6a5a54a3b2908ca844b8"),
    ("sixj --j1 19/2 --j2 10 --j3 21/2 --j4 9 --j5 21/2 --j6 10",
     "f559546b0a7b240fad1f81609e0e2cdda1ad916b1176fec1ec6c20b8360575ee"),
    ("ninej --j1 4 --j2 7/2 --j3 9/2 --j4 3 --j5 4 --j6 5 --j7 4 --j8 9/2 --j9 7/2",
     "c33b19147229ebe50f5d6fb7380a4283b4081c9f3fd1712dc143d772ed83db8f"),
]


@pytest.mark.parametrize(
    "command, digest", STDOUT_DIGESTS, ids=[c for c, _ in STDOUT_DIGESTS]
)
def test_stdout_bytes_unchanged(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_the_cli_loads_no_sympy():
    # the engine holds packed-int numerators, so serving every subcommand,
    # the symbolic ones included, leaves sympy unloaded; parsing and
    # interop import it when they are called
    code = """
import contextlib, io, sys
from extremal import cli
requests = [
    ["cgc-su2", "--j1", "1", "--j2", "1/2"],
    ["cgc-su3", "--lam1", "1", "--mu1", "0", "--lam2", "0", "--mu2", "1"],
    ["sixj", "--j1", "1", "--j2", "1", "--j3", "1", "--j4", "1", "--j5", "1", "--j6", "1"],
    ["ninej", "--j1", "1", "--j2", "1", "--j3", "0", "--j4", "1", "--j5", "1",
     "--j6", "0", "--j7", "0", "--j8", "0", "--j9", "0"],
    ["gt-basis", "--lam", "1", "--mu", "1"],
    ["projector", "--algebra", "su3", "--trunc", "3", "--format", "json"],
] + [["verify", "--suite", s] for s in sorted(cli.SUITES)]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in requests:
        assert cli.main(argv) == 0, argv
from extremal.pbw import Coeff, rewrite_word, shared_engine
eng = shared_engine(3)
c = eng.recip_linear([((1, 1), 1)]) * eng.h_span(1, 2) * Coeff.from_rational(3, 2)
x = rewrite_word([(1, 2), (2, 1)], eng.sys, N=2, engine=eng)
print(repr(c), repr(x))
assert "sympy" not in sys.modules, sorted(m for m in sys.modules if "sympy" in m)[:5]
c = Coeff.from_expr(3, "(h1 + 2)/(h2 + 1)**2")
print(c.text(), c.as_expr())
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("Coeff((2*h1)/(h1 + h2 + 1)) TaylorElement(N=2,\n[h1]\ne21 * [1] * e12\n)\n"
                           "(h1 + 2)/((h2 + 1)**2) (h1 + 2)/(h2 + 1)**2\n")


def test_sympy_is_imported_only_to_parse_and_print():
    # h_symbols, Coeff.from_expr and Coeff.as_expr are sympy's only entry
    # points into the package; every other module and function runs without it
    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(m == "sympy" or m.startswith("sympy.") for m in names):
                found.append((module, ".".join(scope)))
            visit(child, module, scope)

    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                visit(ast.parse(f.read()), name, ())
    assert sorted(found) == [("pbw.py", "Coeff.as_expr"), ("pbw.py", "Coeff.from_expr"),
                             ("pbw.py", "h_symbols")]
