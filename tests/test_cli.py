import dataclasses
import json
import math
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from mnhd.cli import main, reproduce_tables
from mnhd.designs import catalog
from mnhd.errors import GraphInputError
from mnhd.graphs import all_builtin_names, builtin_graph, read_edge_list
from mnhd.quadratic import QuadValue
from mnhd.reference import catalog_spectrum_comparison

# The whole text of `reproduce_tables()` as `scripts/reproduce_tables.py`
# prints it.  Regenerate (only when a change to the tables is intended):
#     PYTHONPATH=src python scripts/reproduce_tables.py > tests/data/reproduce_tables.txt
REPRODUCED = Path(__file__).parent / "data" / "reproduce_tables.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_builtin_names_resolve():
    names = all_builtin_names()
    assert len(names) == 20
    for name in names:
        g = builtin_graph(name)
        assert 2 <= g.n <= 30
    assert builtin_graph("crown-5").n == 10
    assert builtin_graph("cycle-11").n == 11
    with pytest.raises(GraphInputError):
        builtin_graph("petersen")
    with pytest.raises(GraphInputError):
        builtin_graph("crown-x")
    # a size below the family's bound names the bound, not "unknown builtin"
    with pytest.raises(GraphInputError, match="crown needs v >= 3"):
        builtin_graph("crown-2")
    with pytest.raises(GraphInputError, match="cycle needs n >= 3"):
        builtin_graph("cycle-2")


def test_builtin_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "heawood.g"
    code, _, _ = run(capsys, "builtin", "fano", "--out", str(out))
    assert code == 0
    with out.open() as fh:
        assert read_edge_list(fh) == builtin_graph("fano")
    lines = out.read_text().splitlines()
    assert lines[0] == "14 21"
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("name", ["fano", "design-742", "cayley-s3", "wheel-6",
                                  "crown-7", "cycle-6"])
def test_builtin_round_trip(tmp_path, capsys, name):
    out = tmp_path / "g.txt"
    assert run(capsys, "builtin", name, "--out", str(out))[0] == 0
    with out.open() as fh:
        assert read_edge_list(fh).edges == builtin_graph(name).edges


def test_analyze_json_fano(tmp_path, capsys):
    out = tmp_path / "heawood.g"
    run(capsys, "builtin", "fano", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    values = sorted(e["value"] for e in payload["spectrum"])
    expected = [0.0, 3 - math.sqrt(2), 3 + math.sqrt(2), 6.0]
    assert all(abs(a - b) < 1e-9 for a, b in zip(values, expected))
    assert payload["certificate"]["verdict"] == "ProvenMNHD"
    assert payload["vanDamCase"] == "II"


def test_analyze_text_format(tmp_path, capsys):
    out = tmp_path / "g.txt"
    run(capsys, "builtin", "cayley-s3", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out))
    assert code == 0
    assert "ProvenMNHD" in stdout and "classification case: I" in stdout


def test_analyze_strict_exit_codes(tmp_path, capsys):
    proven = tmp_path / "crown.g"
    run(capsys, "builtin", "crown-5", "--out", str(proven))
    assert run(capsys, "analyze", str(proven), "--strict")[0] == 0
    unproven = tmp_path / "c7.g"
    run(capsys, "builtin", "cycle-7", "--out", str(unproven))
    assert run(capsys, "analyze", str(unproven))[0] == 0
    assert run(capsys, "analyze", str(unproven), "--strict")[0] == 1


def test_check_command(tmp_path, capsys):
    out = tmp_path / "g.txt"
    run(capsys, "builtin", "design-742", "--out", str(out))
    code, stdout, _ = run(capsys, "check", str(out), "--strict")
    assert code == 0
    assert "PassesAtTolerance" in stdout
    # rounding noise in the converged ratios is a tie, not a violation
    run(capsys, "builtin", "crown-5", "--out", str(out))
    assert run(capsys, "check", str(out), "--tol", "0", "--strict")[0] == 0
    # the path P4 violates MNHD: --strict exits 1
    out.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, stdout, _ = run(capsys, "check", str(out), "--strict")
    assert code == 1
    assert stdout.startswith("ViolatedAt")


def test_curve_command(tmp_path, capsys):
    gpath = tmp_path / "heawood.g"
    run(capsys, "builtin", "fano", "--out", str(gpath))
    cpath = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "curve", str(gpath), "-u", "0", "-v", "1",
                     "--points", "60", "--out", str(cpath))
    assert code == 0
    lines = cpath.read_text().splitlines()
    assert lines[0] == "t,r" and len(lines) == 62
    rs = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert rs[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))
    assert abs(rs[-1] - 1.0) < 1e-9


def test_curve_rejects_vertices_out_of_range(tmp_path, capsys):
    gpath = tmp_path / "p3.g"
    gpath.write_text("3 2\n0 1\n1 2\n")
    for u, v in (("0", "5"), ("-1", "0")):
        code, stdout, stderr = run(capsys, "curve", str(gpath), "-u", u, "-v", v)
        assert code == 2 and stdout == "", (u, v)
        assert stderr.startswith("error:") and "Traceback" not in stderr, (u, v)


def test_curve_and_check_reject_bad_numbers(tmp_path, capsys):
    gpath = tmp_path / "p3.g"
    gpath.write_text("3 2\n0 1\n1 2\n")
    for argv in (("curve", str(gpath), "-u", "0", "-v", "1", "--points", "-1"),
                 ("curve", str(gpath), "-u", "0", "-v", "1", "--points", "0"),
                 ("check", str(gpath), "--tol", "-1"),
                 ("check", str(gpath), "--tol", "nan"),
                 ("check", str(gpath), "--tol", "inf", "--strict")):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2 and stdout == "", argv
        assert stderr.startswith("error:") and "Traceback" not in stderr, argv


def test_edgeless_graph_analyze_and_check(tmp_path, capsys):
    gpath = tmp_path / "e2.g"
    gpath.write_text("2 0\n")
    code, stdout, _ = run(capsys, "analyze", str(gpath), "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["certificate"]["verdict"] == "NotApplicable"
    assert payload["numeric"]["verdict"] == "PassesAtTolerance"
    assert payload["numeric"]["minDiff"] == 0.0
    code, stdout, _ = run(capsys, "check", str(gpath), "--strict")
    assert code == 0 and stdout.startswith("PassesAtTolerance")


def test_design_validate(tmp_path, capsys):
    dpath = tmp_path / "d.txt"
    dpath.write_text("7 7 base=1\n" + "\n".join(
        "1 2 3 4\n1 2 5 6\n1 4 6 7\n1 3 5 7\n2 3 6 7\n2 4 5 7\n3 4 5 6".splitlines()))
    code, stdout, _ = run(capsys, "design-validate", str(dpath))
    assert code == 0
    assert "symmetric" in stdout and "lambda=2" in stdout


def test_non_utf8_files_are_format_errors(tmp_path, capsys):
    # exit 2 with an error line, not a traceback and exit 1, which --strict
    # uses for "not proven"
    path = tmp_path / "latin1.txt"
    path.write_bytes("3 1\n0 1 # caf\u00e9\n".encode("latin-1"))
    for command in ("analyze", "design-validate"):
        code, stdout, stderr = run(capsys, command, str(path))
        assert code == 2 and not stdout
        assert stderr.startswith("error: not a UTF-8 text file"), stderr


def test_design_incidence(tmp_path, capsys):
    dpath = tmp_path / "fano.txt"
    dpath.write_text("7 7\n0 1 3\n1 2 4\n2 3 5\n3 4 6\n4 5 0\n5 6 1\n6 0 2\n")
    gpath = tmp_path / "fano.g"
    code, _, _ = run(capsys, "design-incidence", str(dpath), "--out", str(gpath))
    assert code == 0
    with gpath.open() as fh:
        assert read_edge_list(fh) == builtin_graph("fano")


def test_catalog_command(capsys):
    code, stdout, _ = run(capsys, "catalog")
    assert code == 0
    body = [ln for ln in stdout.splitlines()[1:] if ln.strip()]
    assert len(body) == 19
    assert "(7, 3, 1)" in stdout and "sqrt(2)" in stdout


def test_catalog_reproduce(capsys):
    code, stdout, _ = run(capsys, "catalog", "--reproduce")
    assert code == 0
    assert stdout.count("match") >= 13
    assert stdout.count("needs design file") == 6
    assert "MISMATCH vs reference at rim pair, adjacent d23" in stdout
    assert "S3 Cayley graph delta table" in stdout
    assert "all entries match the reference table" in stdout  # the S3 table


def test_reproduce_tables_function():
    text = reproduce_tables()
    assert "6-wheel delta table" in text
    assert "d1=1/3, d2=1/2, d3=1/6, d12=-1/36, d13=-1/12, d23=-1/9" in text


def test_reproduce_tables_text_is_pinned():
    pinned = REPRODUCED.read_bytes()
    assert (reproduce_tables() + "\n").encode() == pinned
    # what the pin holds: the exact catalog comparison matches all 13
    # constructible rows, and the wheel-6 d23 reference entry is a misprint
    text = pinned.decode()
    assert text.count(": match\n") == 13
    assert text.count(": needs design file\n") == 6
    assert text.count("MISMATCH") == 1
    assert ("MISMATCH vs reference at rim pair, adjacent d23: derived "
            "-1/60-1/300*sqrt(5), reference -1/2-1/10*sqrt(5)") in text


def test_catalog_comparison_is_exact(monkeypatch):
    # crown-5's catalog spectrum with lam2 moved by 2^-60, which no float
    # comparison at 1e-9 would see
    row = catalog()[0]
    assert row.builder == "crown-5"
    lam0, lam1, lam2, lam3 = row.spectrum
    moved = dataclasses.replace(row, spectrum=(
        lam0, lam1, lam2 + QuadValue(Fraction(1, 2 ** 60)), lam3))
    monkeypatch.setattr("mnhd.reference.catalog", lambda: (row, moved))
    first, second = catalog_spectrum_comparison()
    assert (first.match, first.status) == (True, "match")
    assert (second.match, second.status) == (False, "MISMATCH")


def test_input_error_exit_code(tmp_path, capsys):
    code, _, stderr = run(capsys, "analyze", str(tmp_path / "missing.g"))
    assert code == 2 and "error:" in stderr
    bad = tmp_path / "bad.g"
    bad.write_text("2 1\n0 0\n")
    code, _, stderr = run(capsys, "analyze", str(bad))
    assert code == 2 and "self-loop" in stderr


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_survey_counts_the_rules_that_decided_each_class(capsys):
    # scripts/survey_builtins.py reads each class row's route: wheel-6's four
    # template classes take both rules, and routes that record no rule read -
    runpy.run_path(str(Path(__file__).parents[1] / "scripts"
                       / "survey_builtins.py"), run_name="__main__")
    lines = {line.split()[0]: line for line in
             capsys.readouterr().out.splitlines()[1:]}
    assert len(lines) == len(all_builtin_names())
    assert lines["wheel-6"].endswith(
        "transform-budget 2, nonnegative-coefficients 2")
    assert lines["cayley-s3"].endswith(
        "nonnegative-coefficients 2, transform-budget 1")
    for name in ("crown-5", "cycle-5", "cycle-7"):
        assert lines[name].endswith("  -"), name
