"""Command-line interface: formats, determinism, exit codes, atomic output."""

import csv
import hashlib
import io
import json

import pytest

from extremal import cli


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


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_negative_trunc_is_refused(capsys, suite):
    # a negative bound would sweep nothing and report every check as passed
    code, out, err = run(capsys, "verify", "--suite", suite, "--trunc", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: truncation bound must be >= 0\n"


@pytest.mark.parametrize("suite", ["su2-projector", "su3-projector"])
def test_verify_projector_zero_trunc_is_refused(capsys, suite):
    # at N = 0 no residual is kept, so every check would pass unexamined
    code, out, err = run(capsys, "verify", "--suite", suite, "--trunc", "0")
    assert code == 2
    assert out == ""
    assert err == "error: truncation bound must be >= 1 for %s\n" % suite


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


def test_verify_failure_exit_code(monkeypatch, capsys):
    # the exit-code contract for a failing check, via an injected suite
    monkeypatch.setitem(cli.SUITES, "no-go", lambda trunc: [("forced", False)])
    code, out, _ = run(capsys, "verify", "--suite", "no-go", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["records"][0]["ok"] is False


@pytest.mark.parametrize("exc", [
    RuntimeError("decomposition incomplete: 8 of 9"),
    RecursionError("maximum recursion depth exceeded"),
    ArithmeticError("vanishing denominator\nat weight (0, -1)"),
])
def test_internal_failure_exit_code(monkeypatch, capsys, exc):
    # self-checks, poles and the recursion limit exit 4 with one stderr line;
    # the sixj table function is replaced by one that raises
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "records_sixj", fail)
    code, out, err = run(capsys, "sixj", "--j1", "1", "--j2", "1", "--j3", "1",
                         "--j4", "1", "--j5", "1", "--j6", "1")
    assert code == 4
    assert out == ""
    assert err.startswith("error: %s: " % type(exc).__name__)
    assert err.count("\n") == 1


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
    ("cgc-su3 --lam1 1 --mu1 1 --lam2 1 --mu2 1 --format csv",
     "00e89808760d035663a84d424ce7ca39e3381712fb9c61e2f3897643eb8574de"),
    ("cgc-su3 --lam1 0 --mu1 2 --lam2 2 --mu2 0",
     "285f69f6dd33db70746658775dbbee1c92c1be659bf23389466abadce26f00a5"),
    ("cgc-su3 --lam1 1 --mu1 0 --lam2 1 --mu2 0 --lam3 0 --mu3 1 --format json",
     "0e4723c9f4d5d7a56f28622ea323c56816d787706667b807718da41ee8b91c91"),
]


@pytest.mark.parametrize(
    "command, digest", STDOUT_DIGESTS, ids=[c for c, _ in STDOUT_DIGESTS]
)
def test_stdout_bytes_unchanged(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
