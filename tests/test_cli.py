import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from delpezzo import InternalError, acm, format_divisor, parse_divisor, surface_from_name
from delpezzo.cli import main
from delpezzo.goldens import write_golden_dir

SCHEMA = json.loads((Path(__file__).parent.parent / "schemas" / "acm-output.schema.json").read_text())
GOLDEN_DIR = str(Path(__file__).parent.parent / "golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    # emit -> parse -> emit reproduces the exact bytes
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out
    return code, payload


# --- lines ------------------------------------------------------------------------


def test_lines_x6(capsys):
    code, payload = run_json(capsys, "lines", "X6")
    assert code == 0
    assert payload["count"] == 27
    assert len(payload["lines"]) == 27


def test_lines_quadric(capsys):
    code, payload = run_json(capsys, "lines", "Q")
    assert code == 0
    assert payload["count"] == 0


def test_lines_bad_surface(capsys):
    code, out, err = run(capsys, "lines", "X9")
    assert code == 2
    assert "X9" in err


# --- classify ----------------------------------------------------------------------


def test_classify_cubic_pair_member(capsys):
    code, payload = run_json(capsys, "classify", "X3", "3l-2e1-e2")
    assert code == 0
    report = payload["report"]
    assert report["acm_initialized"] is True
    assert report["degree"] == 6
    assert report["zero_regular"] is True


def test_classify_quadric_non_acm(capsys):
    code, payload = run_json(capsys, "classify", "Q", "2h+2m")
    assert code == 0
    assert payload["report"]["acm_initialized"] is False
    assert payload["report"]["very_ample"] is None


def test_classify_zero(capsys):
    code, payload = run_json(capsys, "classify", "X1", "0")
    assert code == 0
    assert payload["report"]["acm_initialized"] is True
    assert payload["report"]["degree"] == 0
    assert payload["report"]["smooth_member"] is None


def test_classify_parse_error(capsys):
    code, out, err = run(capsys, "classify", "X3", "3l-2e1-x2")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("classify", "X3", "²l"), "position 0"),
        (("classify", "X3", "3l-٣e1"), "position 3"),
        (("lines", "X²"), "'X²'"),
        (("table", "X٣"), "'X٣'"),
    ],
)
def test_non_ascii_digits_are_usage_errors(argv, named, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("acm: error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "surface, text", [("X3", "-l+e1"), ("X3", "-2e1"), ("X3", "-e1+2l"), ("Q", "-h+3m")]
)
def test_classify_divisor_with_leading_minus(surface, text, capsys):
    code, out, err = run(capsys, "classify", surface, text)
    assert code == 0, err
    assert (code, out, err) == run(capsys, "classify", surface, "--", text)
    expected = run(capsys, "classify", surface, "--format", "json", "--", text)
    assert run(capsys, "classify", surface, "--format", "json", text) == expected
    code, payload = run_json(capsys, "classify", surface, text)  # --format after the divisor
    assert (code, payload) == (0, json.loads(expected[1]))
    assert payload["divisor"] == format_divisor(parse_divisor(surface_from_name(surface), text))


def test_classify_help_still_prints(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-h"])
    assert exc.value.code == 0
    assert "usage: acm classify" in capsys.readouterr().out


def test_classify_na_fields_in_text(capsys):
    code, out, err = run(capsys, "classify", "P2", "l")
    assert code == 0
    assert "very_ample: n/a" in out


def test_classify_text_report_in_order(capsys):
    assert run(capsys, "classify", "X3", "3l-2e1-e2") == (
        0,
        "surface: X3\n"
        "divisor: 3l-2e1-e2\n"
        "degree: 6\n"
        "self_intersection: 4\n"
        "arithmetic_genus: 0\n"
        "euler_characteristic: 6\n"
        "effective: true\n"
        "very_ample: false\n"
        "smooth_member: true\n"
        "acm_initialized: true\n"
        "zero_regular: true\n",
        "",
    )


# --- bounded input: huge coefficients ------------------------------------------------


def text_report(out):
    return dict(line.split(": ", 1) for line in out.splitlines())


@pytest.mark.parametrize("surface", ["X2", "X3", "X6"])
def test_classify_huge_non_effective_class(surface, capsys):
    # a*l - (a+1)*e1 meets the conic l - e1 in -1; nef reduction took a steps
    a = 10**100
    text = f"{a}l-{a + 1}e1"
    code, out, err = run(capsys, "classify", surface, text)
    assert (code, err) == (0, "")
    assert text_report(out) == {
        "surface": surface,
        "divisor": text,
        "degree": str(2 * a - 1),
        "self_intersection": str(-2 * a - 1),
        "arithmetic_genus": str(1 - 2 * a),
        "euler_characteristic": "0",
        "effective": "false",
        "very_ample": "false",
        "smooth_member": "n/a",
        "acm_initialized": "false",
        "zero_regular": "n/a",
    }


def test_classify_huge_multiple_of_h(capsys):
    m = 10**100
    text = f"{3 * m}l" + "".join(f"-{m}e{i}" for i in range(1, 7))
    code, out, err = run(capsys, "classify", "X6", text)
    assert (code, err) == (0, "")
    assert text_report(out) == {
        "surface": "X6",
        "divisor": text,
        "degree": str(3 * m),
        "self_intersection": str(3 * m * m),
        "arithmetic_genus": str((3 * m * m - 3 * m) // 2 + 1),
        "euler_characteristic": str((3 * m * m + 3 * m) // 2 + 1),
        "effective": "true",
        "very_ample": "true",
        "smooth_member": "true",
        "acm_initialized": "false",
        "zero_regular": "n/a",
    }


def test_classify_without_an_int_to_str_limit(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 lack the function and have no limit to cap
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    code, out, err = run(capsys, "classify", "X3", "3l-2e1-e2")
    assert (code, err) == (0, "")
    assert parse_divisor(surface_from_name("X3"), "9" * 3000 + "l").coeffs == (10**3000 - 1, 0, 0, 0)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_coefficient_too_long_to_print(fmt, capsys):
    # D^2 of a (2m+1)-digit coefficient would exceed the int-to-str limit
    m = (sys.get_int_max_str_digits() - 1) // 2
    nines = "9" * m
    for text in ("9" + nines + "l", "9" * (m + 11) + "l", f"{nines}l+{nines}l"):
        code, out, err = run(capsys, "classify", "X6", text, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("acm: error: ") and err.count("\n") == 1
    # the longest accepted coefficients still give a whole report
    text = f"{nines}l" + "".join(f"-{nines}e{i}" for i in range(1, 7))
    if fmt == "json":
        code, payload = run_json(capsys, "classify", "X6", text)
        assert payload["report"]["self_intersection"] == (10**m - 1) ** 2 * -5
    else:
        code, out, err = run(capsys, "classify", "X6", text)
        assert text_report(out)["self_intersection"] == str((10**m - 1) ** 2 * -5)
    assert code == 0


# --- table -------------------------------------------------------------------------


def test_table_all_totals_row(capsys):
    code, out, err = run(capsys, "table", "all")
    assert code == 0
    totals = out.strip().splitlines()[-1].split()
    assert totals == ["Tot", "3", "7", "15", "29", "51", "83", "127", "8"]


def test_table_all_blank_cells(capsys):
    code, payload = run_json(capsys, "table", "all")
    assert code == 0
    rows = {row["degree"]: row["counts"] for row in payload["rows"]}
    assert "X6" not in rows[4]  # blank: 4 > deg X6
    assert rows[3]["X6"] == 72
    assert rows[4]["X5"] == 40


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_table_all_takes_surrounding_spaces_like_a_surface_name(fmt, capsys):
    padded = run(capsys, "table", " all ", "--format", fmt)
    assert padded[0] == 0
    assert padded == run(capsys, "table", "all", "--format", fmt)


def test_table_single_surface(capsys):
    code, payload = run_json(capsys, "table", "X5")
    assert code == 0
    assert payload["counts"]["4"] == 40
    assert payload["total"] == 83


def test_table_p2(capsys):
    code, payload = run_json(capsys, "table", "P2")
    assert code == 0
    assert payload["counts"] == {"0": 1, "3": 1, "6": 1}


# --- wild --------------------------------------------------------------------------


def test_wild_x6_rank_6(capsys):
    code, payload = run_json(capsys, "wild", "X6", "--rank", "6")
    assert code == 0
    assert payload["param_dim"] == 7
    assert payload["relations"] == {"CE": 3, "DF": 3, "CD": 2, "EF": 2, "DE": 0, "CF": 0}
    assert payload["slope"] == 3


def test_wild_x3_rank_2(capsys):
    code, payload = run_json(capsys, "wild", "X3", "--rank", "2")
    assert code == 0
    assert payload["param_dim"] == 2


def test_wild_out_of_scope(capsys):
    code, out, err = run(capsys, "wild", "X2", "--rank", "2")
    assert code == 3
    assert "degree" in err


def test_wild_bad_rank(capsys):
    code, out, err = run(capsys, "wild", "X3", "--rank", "1")
    assert code == 2


# --- verify ------------------------------------------------------------------------


def test_verify_pristine_goldens(capsys):
    code, payload = run_json(capsys, "verify", "--golden", GOLDEN_DIR)
    assert code == 0
    assert payload["ok"] is True


def test_verify_perturbed_golden(tmp_path, capsys):
    write_golden_dir(tmp_path)
    target = tmp_path / "X5.tsv"
    lines = target.read_text().splitlines()
    bad = lines[10].split("\t")
    bad[2] = str(int(bad[2]) + 1)  # perturb one orbit count
    lines[10] = "\t".join(bad)
    target.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", "--golden", str(tmp_path))
    assert code == 1
    assert "X5" in out and f"d={bad[0]}" in out


def test_verify_empty_dir(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--golden", str(tmp_path))
    assert code == 2
    assert "missing" in err


def test_verify_missing_dir(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--golden", str(tmp_path / "nope"))
    assert code == 2


def test_module_entry_point_runs_the_cli(tmp_path):
    # -m puts the working directory on sys.path, so the package is found in src/
    src = Path(__file__).parent.parent / "src"
    argv = [sys.executable, "-m", "delpezzo.cli", "verify", "--golden", str(tmp_path / "nope")]
    result = subprocess.run(argv, cwd=src, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "does not exist" in result.stderr


def test_cli_import_loads_no_dataclasses_or_typing():
    # -S: the interpreter's site module may import typing on its own
    src = str(Path(__file__).parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, delpezzo.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "delpezzo.cli" in result.stdout.split()
    assert {"dataclasses", "inspect", "typing"}.isdisjoint(result.stdout.split())


# --- text output, byte for byte ------------------------------------------------------

# (argv, exit code, stdout, stderr), recorded before the text views were
# rendered from the JSON payloads; verify pins its last two stdout lines only
# and MISSING stands for a directory that does not exist
TEXT_PINS = [
    (
        ("lines", "X2"),
        0,
        "E1\te1\n"
        "E2\te2\n"
        "F12\tl-e1-e2\n"
        "3 lines on X2\n",
        "",
    ),
    (("lines", "Q"), 0, "0 lines on Q\n", ""),
    (
        ("table", "X5"),
        0,
        "  d  count\n"
        "  0      1\n"
        "  1     16\n"
        "  2     10\n"
        "  3     16\n"
        "  4     40\n"
        "Tot     83\n",
        "",
    ),
    (
        ("table", "all"),
        0,
        "  d   X0   X1   X2   X3   X4   X5   X6    Q\n"
        "  0    1    1    1    1    1    1    1    1\n"
        "  1    0    1    3    6   10   16   27    0\n"
        "  2    0    1    2    3    5   10   27    2\n"
        "  3    1    1    1    2    5   16   72    0\n"
        "  4    0    0    1    3   10   40         1\n"
        "  5    0    1    2    6   20              0\n"
        "  6    1    1    3    8                   2\n"
        "  7    0    1    2                        0\n"
        "  8    0    0                             2\n"
        "  9    0                                   \n"
        "Tot    3    7   15   29   51   83  127    8\n",
        "",
    ),
    (
        ("wild", "X6", "--rank", "7"),
        0,
        "surface: X6 (degree 3)\n"
        "rank: 7 (odd, m=3)\n"
        "pair:\n"
        "  C = l\n"
        "  D = 4l-2e1-2e2-2e3-e4-e5-e6\n"
        "  E = 5l-2e1-2e2-2e3-2e4-2e5-2e6\n"
        "  F = 2l-e4-e5-e6\n"
        "relations (1 + X.Y - d): CE=3  DF=3  CD=2  EF=2  DE=0  CF=0\n"
        "schedule:\n"
        "  1. 0 -> O(l) -> ? -> O(4l-2e1-2e2-2e3-e4-e5-e6) -> 0   dim Ext1 = 2 x3\n"
        "  2. 0 -> E1 + E2 + E3 -> ? -> O(5l-2e1-2e2-2e3-2e4-2e5-2e6) -> 0   dim Ext1 = 9\n"
        "param_dim: 6\n"
        "slope: 3\n",
        "",
    ),
    (
        ("wild", "X3", "--rank", "2"),
        0,
        "surface: X3 (degree 6)\n"
        "rank: 2 (rank2)\n"
        "pair:\n"
        "  C = 3l-2e1-e2\n"
        "  D = 3l-e1-2e3\n"
        "  E = 3l-e2-2e3\n"
        "  F = 3l-e1-2e2\n"
        "relations (1 + X.Y - d): CE=3  DF=3  CD=2  EF=2  DE=0  CF=0\n"
        "schedule:\n"
        "  1. 0 -> O(3l-e2-2e3) -> ? -> O(3l-2e1-e2) -> 0   dim Ext1 = 3\n"
        "param_dim: 2\n"
        "slope: 6\n",
        "",
    ),
    (("verify", "--golden", GOLDEN_DIR), 0, "Q: 8 classes verified\nok\n", ""),
    (("wild", "X0", "--rank", "1"), 2, "", "acm: error: rank must be at least 2, got 1\n"),
    (
        ("wild", "Q", "--rank", "2", "--format", "json"),
        3,
        "",
        "acm: error: the family construction needs degree <= 6, Q has degree 8\n",
    ),
    (
        ("verify", "--golden", "MISSING", "--format", "json"),
        2,
        "",
        "acm: error: golden directory 'MISSING' does not exist\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, out, err",
    TEXT_PINS,
    ids=["_".join(a if a != GOLDEN_DIR else "golden" for a in argv) for argv, *_ in TEXT_PINS],
)
def test_text_output_pinned(argv, code, out, err, tmp_path, capsys):
    missing = str(tmp_path / "nope")
    got_code, got_out, got_err = run(capsys, *(missing if a == "MISSING" else a for a in argv))
    if argv[0] == "verify" and code == 0:
        got_out = "".join(got_out.splitlines(keepends=True)[-2:])
    assert (got_code, got_out, got_err) == (code, out, err.replace("MISSING", missing))


# --- determinism --------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("lines", "X6"),
        ("classify", "X3", "3l-2e1-e2"),
        ("table", "all"),
        ("wild", "X6", "--rank", "7"),
    ],
)
def test_byte_identical_reruns(argv, capsys):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    _, jfirst, _ = run(capsys, *argv, "--format", "json")
    _, jsecond, _ = run(capsys, *argv, "--format", "json")
    assert jfirst == jsecond


# --- internal errors -------------------------------------------------------------


@pytest.mark.parametrize("error", [InternalError("duplicate classes enumerated"), KeyError("boom")])
def test_internal_error_exit_code(error, capsys, monkeypatch):
    def broken(surface, c):
        raise error

    monkeypatch.setattr(acm, "classes_of_degree", broken)
    code, out, err = run(capsys, "table", "X6")
    assert code == 4
    assert out == ""
    assert err.startswith("acm: internal error: ") and err.count("\n") == 1
    assert type(error).__name__ in err
    assert "Traceback" not in err
