import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from delpezzo import (
    SURFACE_NAMES,
    InternalError,
    PreconditionViolated,
    UnsupportedSurface,
    acm,
    cli,
    format_divisor,
    geometry,
    goldens,
    parse_divisor,
    surface_from_name,
    wild,
)
from delpezzo.cli import _classify_report, main

from paper_values import has_smooth_nonline_member
from test_geometry import positivity_box

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schemas" / "acm-output.schema.json").read_text(encoding="utf-8")
)
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


@pytest.mark.parametrize("fmt", [(), ("--format", "json"), ("--form", "json")], ids=["text", "json", "abbrev"])
def test_classify_dash_led_text_is_divisor_text_only_after_the_surface(fmt, capsys):
    code, out, err = run(capsys, "classify", *fmt, "X3", "-e1")
    assert (code, err) == (0, "")
    assert "-e1" in out
    code, out, err = run(capsys, "classify", *fmt, "-e1", "X3")
    assert (code, out) == (2, "")
    assert "the following arguments are required: divisor" in err
    assert run(capsys, "classify", *fmt, "l", "X3")[:2] == (2, "")  # bare text before the surface fails too


def test_classify_names_the_surplus_token_whatever_the_divisor_starts_with(capsys):
    for argv, surplus in [
        (("X3", "l", "extra"), "extra"),
        (("X3", "-e1", "extra"), "extra"),
        (("X3", "-x", "l"), "l"),
        (("X3", "l", "-e2", "--format", "json"), "-e2"),
    ]:
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {surplus}\n"), (argv, err)


def test_classify_h_on_the_quadric_is_help_unless_behind_double_dash(capsys):
    code, out, err = run(capsys, "classify", "Q", "-h")
    assert (code, err) == (0, "")
    assert "usage: acm classify" in out
    code, out, err = run(capsys, "classify", "Q", "--format", "json", "--", "-h")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["divisor"], payload["report"]["degree"]) == ("-h", -2)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [("X6", "--", "--"), ("--", "X6", "--")], ids=["X6_dd_dd", "dd_X6_dd"])
def test_classify_with_nothing_after_a_second_double_dash_is_a_usage_error(argv, fmt, capsys):
    # older argparse (3.13.0 and before) drops the second '--' and hands classify an empty list for the
    # divisor; newer (3.13.13) hands it the text '--', which parse_divisor rejects: both are exit 2
    code, out, err = run(capsys, "classify", "--format", fmt, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("acm: error: ") and err.count("\n") == 1


def test_classify_help_still_prints(capsys):
    code, out, err = run(capsys, "classify", "-h")
    assert code == 0
    assert "usage: acm classify" in out


HELP_TEXTS = {  # argv before --help -> what the help shows, as substrings with runs of whitespace collapsed
    (): [
        "usage: acm",
        "{lines,classify,table,wild,verify,list}",
        "lines enumerate the (-1)-lines of a surface",
        "classify numerical report for a divisor class",
        "table per-degree counts of ACM classes",
        "wild wild pair and rank-n family plan",
        "verify regression-check enumeration against golden files",
        "list every ACM class of a surface, with its orbit count",
    ],
    ("lines",): ["usage: acm lines [-h]", "--format {text,json}", "surface"],
    ("classify",): ["usage: acm classify [-h]", "--format {text,json}", "surface divisor"],
    ("table",): ["usage: acm table [-h]", "--format {text,json}", "surface a surface name or 'all'"],
    ("wild",): ["usage: acm wild [-h]", "--format {text,json}", "--rank RANK", "surface"],
    ("verify",): ["usage: acm verify [-h]", "--format {text,json}", "--golden GOLDEN directory of golden .tsv files"],
    ("list",): ["usage: acm list [-h]", "--format {text,json}", "surface"],
}


@pytest.mark.parametrize("argv", HELP_TEXTS, ids=lambda argv: " ".join(("acm",) + argv))
def test_help_lists_every_command_and_option(argv, capsys):
    """Substrings only: the section headings of argparse differ between Python 3.10 and 3.11+."""
    code, out, err = run(capsys, *argv, "--help")
    assert code == 0
    out = " ".join(out.split())
    missing = [text for text in HELP_TEXTS[argv] if text not in out]
    assert missing == [], out


def test_build_parser_gives_arguments_to_its_command_alone():
    parser = cli.build_parser("wild")
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert {name: p.prog for name, p in sub.choices.items()} == {name: f"acm {name}" for name in sub.choices}
    options = {name: [action.option_strings for action in p._actions] for name, p in sub.choices.items()}
    assert options.pop("wild") == [["-h", "--help"], [], ["--rank"], ["--format"]]
    assert options == {name: [] for name in ("lines", "classify", "table", "verify", "list")}  # not even -h


@pytest.mark.parametrize(
    "argv, same_as",
    [(("--", "lines", "X6"), ("lines", "X6")), (("-h", "lines"), ("--help",)), (("-", "lines", "X6"), None)],
    ids=lambda argv: " ".join(("acm",) + argv) if argv else "invalid choice",
)
def test_a_dash_led_token_before_the_command(argv, same_as, capsys):
    """``main`` drops a leading '--' before a bare token, on every argparse release, and builds the arguments
    of the first token not led by '-'.  Where argparse reads its command from an earlier token, that token
    starts with '-', which no command name does: an invalid choice."""
    code, out, err = run(capsys, *argv)
    if same_as is None:
        assert (code, out) == (2, "") and f"invalid choice: '{argv[0]}'" in err
    else:
        assert (code, out, err) == run(capsys, *same_as)


def test_classify_na_fields_in_text(capsys):
    code, out, err = run(capsys, "classify", "P2", "l")
    assert code == 0
    assert "very_ample: n/a" in out


@pytest.mark.parametrize("text, effective, smooth", [("2l-3e1", False, None), ("l+2e1", True, False)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_runs_one_zariski_round(text, effective, smooth, fmt, capsys, monkeypatch):
    """A class that is not effective, and one with a fixed part: one moving_part call gives both fields."""
    calls = []
    moving_part = geometry.moving_part
    monkeypatch.setattr(geometry, "moving_part", lambda D: calls.append(D) or moving_part(D))
    code, out, err = run(capsys, "classify", "X2", text, "--format", fmt)
    assert (code, err) == (0, "")
    assert calls == [parse_divisor(surface_from_name("X2"), text)]
    report = json.loads(out)["report"] if fmt == "json" else text_report(out)
    expected = (effective, smooth) if fmt == "json" else (str(effective).lower(), "n/a" if smooth is None else "false")
    assert (report["effective"], report["smooth_member"]) == expected


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_classify_positivity_fields_agree_with_the_oracles(name):
    """effective is is_effective; smooth_member is has_smooth_nonline_member, and n/a (None) exactly
    where its precondition fails: the zero class and the classes that are not effective."""
    seen = set()
    for D in positivity_box(surface_from_name(name)):
        report = _classify_report(D)
        assert report["effective"] == geometry.is_effective(D)
        try:
            expected = has_smooth_nonline_member(D)
        except PreconditionViolated:
            expected = None
        assert report["smooth_member"] == expected, D
        seen.add(expected)
    assert seen == ({None, True} if name in ("X0", "Q") else {None, True, False})  # no lines, no fixed part


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
    # a*l - (a+1)*e1 meets the conic l - e1 in -1; the Zariski round removes each F1j once and leaves
    # a class that meets e2 negatively, a fixed number of dot products whatever a is
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


def test_classify_huge_fixed_part(capsys):
    # a*l + a*e1 meets e1 in -a: the round removes the fixed part a*e1 and leaves the nef class a*l
    a = 10**100
    text = f"{a}l+{a}e1"
    code, out, err = run(capsys, "classify", "X2", text)
    assert (code, err) == (0, "")
    assert text_report(out) == {
        "surface": "X2",
        "divisor": text,
        "degree": str(4 * a),
        "self_intersection": "0",
        "arithmetic_genus": str(1 - 2 * a),
        "euler_characteristic": str(2 * a + 1),
        "effective": "true",
        "very_ample": "false",
        "smooth_member": "false",
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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_wild_empty_pair_search_is_an_internal_error(fmt, capsys, monkeypatch):
    """family_plan rejects degree > 6 before it searches, so no pair on X3..X6 is a bug, not exit 3."""
    monkeypatch.setattr(wild, "wild_pairs", lambda surface: iter(()))
    code, out, err = run(capsys, "wild", "X6", "--rank", "3", "--format", fmt)
    assert (code, out) == (4, "")
    assert err.startswith("acm: internal error: NotFound: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "surface, text, field, shown",
    [
        ("X0", "l", "very_ample", "n/a"),
        ("Q", "h+m", "very_ample", "n/a"),
        ("X6", "3l-e1-e2-2e3", "zero_regular", "n/a"),
        ("X3", "3l-2e1-e2", "zero_regular", "true"),
    ],
)
def test_classify_reports_n_a_without_an_exception(surface, text, field, shown, capsys, monkeypatch):
    """Each n/a is the None its predicate returns: classify asks each predicate once and builds no
    UnsupportedSurface or PreconditionViolated, on the plane, the quadric or a class that is not ACM."""
    built, asked = [], []

    def recorded(self, *args):
        built.append(self)
        ValueError.__init__(self, *args)

    for error in (UnsupportedSurface, PreconditionViolated):
        monkeypatch.setattr(error, "__init__", recorded)
    for module, name in ((geometry, "is_very_ample"), (wild, "is_zero_regular_acm")):
        predicate = getattr(module, name)
        monkeypatch.setattr(module, name, lambda D, name=name, predicate=predicate: asked.append(name) or predicate(D))
    code, out, err = run(capsys, "classify", surface, text)
    assert (code, err) == (0, "")
    assert f"{field}: {shown}\n" in out
    assert (built, sorted(asked)) == ([], ["is_very_ample", "is_zero_regular_acm"])


def test_wild_evaluates_the_relation_block_once(capsys, monkeypatch):
    calls = []
    ext1_dimension = wild.ext1_dimension

    def counted(C, D):
        calls.append((C, D))
        return ext1_dimension(C, D)

    monkeypatch.setattr(wild, "ext1_dimension", counted)
    assert run(capsys, "wild", "X6", "--rank", "7")[0] == 0
    assert len(calls) == 6


def test_wild_bad_rank(capsys):
    code, out, err = run(capsys, "wild", "X3", "--rank", "1")
    assert code == 2


NOT_A_RANK = {  # id -> text the divisor grammar takes for no coefficient, though int() reads some of it
    "abc": "abc",
    "over-long": "+-" + "9" * 5000,
    "arabic-indic": "\u0663",
    "devanagari": "\u096f" * 10,
    "underscore": "1_0",
    "underscore-over-long": "1" + "_0" * 4300,
}


@pytest.mark.parametrize("rank", NOT_A_RANK.values(), ids=NOT_A_RANK)
def test_wild_rank_that_is_no_integer_is_an_argparse_error(rank, capsys):
    code, out, err = run(capsys, "wild", "X3", "--rank", rank)
    assert (code, out) == (2, "")
    assert err.endswith(f"acm wild: error: argument --rank: invalid int value: {rank!r}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "lowered-limit"])
def test_wild_rank_too_long_to_print(limit, fmt, capsys):
    # the plan's Ext^1 dimensions, about 1.5 times the rank, may have a digit more than it
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit or default)
    try:
        int_limit = sys.get_int_max_str_digits()
        cap = (int_limit - 1) // 2
        # past int_limit digits int() refuses the text, so the rank is capped by its digit count before int()
        over_long = ("9" * (int_limit + 1), " +" + "9" * (int_limit + 1), "-" + "9" * (cap + 1))
        for rank in ("9" * int_limit, "1" + "0" * cap, *over_long):
            code, out, err = run(capsys, "wild", "X6", "--rank", rank, "--format", fmt)
            assert (code, out, err) == (2, "", f"acm: error: rank has more than {cap} digits\n")
        for rank in ("9" * cap, " +" + "9" * cap):  # the longest rank; its sign is no digit
            code, out, err = run(capsys, "wild", "X6", "--rank", rank, "--format", fmt)
            assert (code, err) == (0, "")
            assert f"param_dim: {10**cap - 2}" in out if fmt == "text" else json.loads(out)["param_dim"] == 10**cap - 2
    finally:
        sys.set_int_max_str_digits(default)


# --- verify ------------------------------------------------------------------------


def test_verify_pristine_goldens(capsys):
    code, payload = run_json(capsys, "verify", "--golden", GOLDEN_DIR)
    assert code == 0
    assert payload["ok"] is True


def test_verify_perturbed_golden(tmp_path, capsys):
    shutil.copytree(GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    target = tmp_path / "X5.tsv"
    lines = target.read_text(encoding="utf-8").splitlines()
    bad = lines[10].split("\t")
    bad[2] = str(int(bad[2]) + 1)  # perturb one orbit count
    lines[10] = "\t".join(bad)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
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


def test_verify_golden_path_that_is_a_file(tmp_path, capsys):
    target = tmp_path / "golden.tsv"
    target.write_text("", encoding="utf-8")
    err = f"acm: error: golden directory {str(target)!r} is not a directory\n"
    assert run(capsys, "verify", "--golden", str(target)) == (2, "", err)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_unreadable_golden_file_is_an_io_error(fmt, capsys, monkeypatch):
    def denied(path, *args, **kwargs):
        if os.path.basename(path) == "X3.tsv":
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(goldens, "open", denied, raising=False)  # the reader goldens calls, shadowing the builtin
    code, out, err = run(capsys, "verify", "--golden", GOLDEN_DIR, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("acm: error: ") and err.count("\n") == 1
    assert "X3.tsv" in err and "internal error" not in err


def test_module_entry_point_runs_the_cli(tmp_path):
    # -m puts the working directory on sys.path, so the package is found in src/
    src = Path(__file__).parent.parent / "src"
    argv = [sys.executable, "-m", "delpezzo.cli", "verify", "--golden", str(tmp_path / "nope")]
    result = subprocess.run(argv, cwd=src, capture_output=True, encoding="utf-8", timeout=60)
    assert result.returncode == 2
    assert "does not exist" in result.stderr


def test_cli_import_loads_no_dataclasses_or_typing():
    # -S: the interpreter's site module may import typing on its own; every annotation in the engine is
    # evaluated at import, so no module needs __future__
    src = str(Path(__file__).parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, delpezzo.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "delpezzo.cli" in result.stdout.split()
    assert {"__future__", "dataclasses", "inspect", "json", "pathlib", "typing"}.isdisjoint(result.stdout.split())
    # the engine runs on the standard library alone
    allowed = {"delpezzo", "__main__", *sys.stdlib_module_names}
    assert [name for name in result.stdout.split() if name.partition(".")[0] not in allowed] == []


def test_warm_calls_keep_no_per_request_memory(capsys):
    """A process that serves request after request holds no more memory for it once the caches are warm."""
    # one class per surface: n/a very_ample on X0 and Q, n/a zero_regular (not ACM) on X2, X4, X5 and X6
    classes = ["X0 2l", "X1 l-e1", "X2 2l-3e1", "X3 3l-2e1-e2", "X4 l+2e1", "X5 -l", "X6 3l-e1-e2-2e3", "Q h+m"]
    argvs = [
        *(("classify", *words.split(), "--format", fmt) for words in classes for fmt in ("text", "json")),
        ("lines", "X6"),
        ("table", "all"),
        ("wild", "X6", "--rank", "7"),
    ]

    def serve(passes):
        for _ in range(passes):
            assert [main(list(argv)) for argv in argvs] == [0] * len(argvs)
            capsys.readouterr()

    def traced():
        # CPython's method cache keeps a reference to up to 4096 attribute names, here argparse's fresh dest strings
        (getattr(sys, "_clear_internal_caches", None) or sys._clear_type_cache)()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    serve(5)  # fills the per-surface caches
    tracemalloc.start()
    try:
        before = traced()
        serve(30)
        grown = traced() - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes kept over {30 * len(argvs)} calls"


# --- list --------------------------------------------------------------------------

LIST_CASES = [(name, name) for name in SURFACE_NAMES] + [("P2", "X0")]  # argv surface, golden file


@pytest.mark.parametrize("name, golden", LIST_CASES)
def test_list_prints_the_golden_file(name, golden, capsys):
    expected = (Path(GOLDEN_DIR) / f"{golden}.tsv").read_bytes().decode("utf-8")
    assert run(capsys, "list", name) == (0, expected, "")


@pytest.mark.parametrize("name, golden", LIST_CASES)
def test_list_payload_classifies_as_listed(name, golden, capsys):
    """Each listed class is an initialized ACM class of its listed degree under ``acm classify``, and
    ``count`` is the total of ``acm table``."""
    code, payload = run_json(capsys, "list", name)
    assert (code, payload["surface"]) == (0, golden)
    assert payload["count"] == len(payload["classes"]) == run_json(capsys, "table", name)[1]["total"]
    for row in payload["classes"]:
        code, out, _ = run(capsys, "classify", name, row["divisor"], "--format", "json")
        report = json.loads(out)["report"]
        assert (code, report["acm_initialized"], report["degree"]) == (0, True, row["degree"]), row


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


# --- the text views read their payloads alone ----------------------------------------

VIEW_ARGVS = [
    ("lines", "X6"),
    ("classify", "X3", "3l-2e1-e2"),
    ("classify", "X2", "2l-3e1"),
    ("table", "X5"),
    ("table", "all"),
    ("wild", "X6", "--rank", "7"),
    ("wild", "X3", "--rank", "2"),
    ("verify", "--golden", GOLDEN_DIR),
    ("list", "X3"),
]


@pytest.mark.parametrize("argv", VIEW_ARGVS, ids=["_".join(a for a in argv if a != GOLDEN_DIR) for argv in VIEW_ARGVS])
def test_text_view_renders_from_its_json_payload_alone(argv, capsys, monkeypatch):
    """The payload, parsed back from JSON, renders the text output with no surface to look up.  It is
    dumped in its own key order: ``--format json`` sorts the keys, and the views list some in payload order."""
    code, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, *argv, "--format", "json")
    args = cli.build_parser(argv[0]).parse_args(argv)
    payload = json.loads(json.dumps(args.func(args)))
    assert (code, payload) == (0, json.loads(out))

    def refuse(name):
        raise AssertionError(f"the text view looked up the surface {name!r}")

    monkeypatch.setattr(cli, "surface_from_name", refuse)
    assert "\n".join(args.view(payload)) + "\n" == text


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


@pytest.mark.parametrize("command", ["lines", "table"])
def test_a_view_that_fails_prints_nothing(command, capsys, monkeypatch):
    """The text view is rendered whole before it is printed."""

    def broken(payload):
        yield "first line"
        raise KeyError("boom")

    monkeypatch.setattr(cli, f"text_{command}", broken)
    assert run(capsys, command, "X6") == (4, "", "acm: internal error: KeyError: 'boom'\n")


@pytest.mark.parametrize("error", [InternalError("duplicate classes enumerated"), KeyError("boom")])
def test_internal_error_exit_code(error, capsys, monkeypatch):
    def broken(surface, c):
        raise error

    monkeypatch.setattr(acm, "orbits_of_degree", broken)  # the scan behind the degree table
    code, out, err = run(capsys, "table", "X6")
    assert code == 4
    assert out == ""
    assert err.startswith("acm: internal error: ") and err.count("\n") == 1
    assert type(error).__name__ in err
    assert "Traceback" not in err
