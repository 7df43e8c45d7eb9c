import itertools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import (
    SURFACE_NAMES,
    DivisorClass,
    degree,
    goldens,
    parse_divisor,
    surface_from_name,
)
from delpezzo.acm import AcmRecord, closed_form_catalog, degree_count_table, enumerate_acm, orbits_of_degree
from delpezzo.geometry import is_effective
from delpezzo.goldens import _check_invariants, golden_lines, run_verification

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

LINE_RE = re.compile(r"^\d\t[0-9A-Za-z+\-]+\t\d+$")


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_shipped_golden_matches_enumeration(name):
    recorded = (GOLDEN_DIR / f"{name}.tsv").read_text(encoding="utf-8").splitlines()
    assert recorded == golden_lines(surface_from_name(name))


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_golden_line_format(name):
    for line in (GOLDEN_DIR / f"{name}.tsv").read_text(encoding="utf-8").splitlines():
        assert LINE_RE.match(line), line


def test_full_verification_passes():
    ok, report = run_verification(GOLDEN_DIR)
    assert ok, report
    assert len(report) == len(SURFACE_NAMES)


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_orbit_column_counts_distinct_tail_permutations(name):
    surface = surface_from_name(name)
    for D, line in zip(enumerate_acm(surface), golden_lines(surface), strict=True):
        assert int(line.split("\t")[2]) == len(set(itertools.permutations(D.coeffs[1:])))


def test_golden_lines_build_no_class(monkeypatch):
    surfaces = [surface_from_name(name) for name in SURFACE_NAMES]  # a surface model builds its K and H
    built = []
    post_init = DivisorClass.__post_init__
    monkeypatch.setattr(DivisorClass, "__post_init__", lambda D: built.append(D) or post_init(D))
    lines = [golden_lines(surface) for surface in surfaces]
    assert built == []
    assert sum(map(len, lines)) == 323


def test_orbit_column_examples():
    counts = {
        (name, text): int(count)
        for name in ("X3", "X5", "X6")
        for _, text, count in (line.split("\t") for line in golden_lines(surface_from_name(name)))
    }
    assert counts["X6", "4l-2e1-2e2-2e3-e4-e5-e6"] == 20
    assert counts["X5", "e3"] == 5
    assert counts["X3", "0"] == 1


def test_a_golden_file_that_ends_early_or_late_fails(tmp_path):
    """The diff runs to the end of the longer of the file and the enumeration."""
    shutil.copytree(GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    target = tmp_path / "X3.tsv"
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 29 and lines[-1].startswith("6\t")
    for edited, failure in (
        (lines[:-1], f"X3 d=6: golden line 29 is None, enumeration gives {lines[-1]!r}"),
        (lines + lines[-1:], f"X3 d=6: golden line 30 is {lines[-1]!r}, enumeration gives None"),
    ):
        target.write_text("\n".join(edited) + "\n", encoding="utf-8")
        ok, report = run_verification(tmp_path)
        assert not ok and failure in report, report


def test_run_verification_rejects_a_bad_golden_dir(tmp_path):
    nope, plain, partial = tmp_path / "nope", tmp_path / "golden.tsv", tmp_path / "partial"
    plain.write_text("", encoding="utf-8")
    shutil.copytree(GOLDEN_DIR, partial)
    (partial / "X3.tsv").unlink()
    cases = [
        (nope, f"golden directory {str(nope)!r} does not exist"),
        (plain, f"golden directory {str(plain)!r} is not a directory"),
        (partial, f"missing golden files in {str(partial)!r}: X3.tsv"),
    ]
    for target, text in cases:
        for arg in (target, str(target)):
            with pytest.raises(ValueError) as info:
                run_verification(arg)
            assert str(info.value) == text


# --- the invariant checks behind verify, each failure message pinned ---------------


def check_with(monkeypatch, name, edit):
    """_check_invariants on surface ``name`` with its orbit records replaced by
    ``edit(records, record)``, record(text) making the record of divisor text
    on that surface.  The edited list is served as the records of degree 0 and
    no others, so the check reads it whole, whatever the records' degrees."""
    surface = surface_from_name(name)
    records = [rec for c in range(surface.degree + 1) for rec in orbits_of_degree(surface, c)]

    def record(text, orbit_count=1):
        D = parse_divisor(surface, text)
        return AcmRecord(D.coeffs, degree(D), orbit_count)

    edited = tuple(edit(records, record))
    monkeypatch.setattr(goldens, "orbits_of_degree", lambda s, c: edited if c == 0 else ())
    return _check_invariants(surface)


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_invariants_hold_on_the_enumeration(name):
    # the lines are in the list and meet themselves in -1, which is no failure
    assert _check_invariants(surface_from_name(name)) == []


def test_invariant_failures_name_each_offending_line(monkeypatch):
    bad = ("l-e1-e2-e3", "2e1+2e2", "3l", "-e1")
    failures = check_with(monkeypatch, "X3", lambda records, record: records + [record(t) for t in bad])
    assert failures == [
        "X3: closed-form catalog disagrees with enumeration",
        "X3 l-e1-e2-e3: not effective",
        "X3 l-e1-e2-e3: meets F12 in -1",
        "X3 l-e1-e2-e3: meets F13 in -1",
        "X3 l-e1-e2-e3: meets F23 in -1",
        "X3 2e1+2e2: genus is not 0",
        "X3 2e1+2e2: meets E1 in -2",
        "X3 2e1+2e2: meets E2 in -2",
        "X3 3l: genus is not 0",
        "X3 3l: degree out of range",
        "X3 -e1: genus is not 0",
        "X3 -e1: degree out of range",
        "X3 -e1: not effective",
        "X3 -e1: meets F12 in -1",
        "X3 -e1: meets F13 in -1",
    ]


def test_a_bad_orbit_is_reported_once_on_its_first_member(monkeypatch):
    # one record stands for the orbit of 2e1+2e2, 2e1+2e3 and 2e2+2e3; only its representative is checked
    failures = check_with(monkeypatch, "X3", lambda records, record: records + [record("2e1+2e3", 3)])
    assert failures == [
        "X3: closed-form catalog disagrees with enumeration",
        "X3 2e1+2e3: genus is not 0",
        "X3 2e1+2e3: meets E1 in -2",
        "X3 2e1+2e3: meets E3 in -2",
    ]


@pytest.mark.parametrize("name, records", zip(SURFACE_NAMES, (3, 7, 10, 12, 12, 12, 12, 8)))
def test_effectivity_is_checked_once_per_catalog_record(monkeypatch, name, records):
    calls = []
    monkeypatch.setattr(goldens, "is_effective", lambda D: calls.append(D) or is_effective(D))
    surface = surface_from_name(name)
    assert len(closed_form_catalog(surface)) == records
    assert _check_invariants(surface) == []
    assert len(calls) == records - 1  # the zero class is not tested


E6_EDITS = {  # what replaces the exceptional orbit's record (e6, degree 1, size 6)
    "missing": lambda rec, record: [],
    "orbit_count": lambda rec, record: [rec._replace(orbit_count=5)],
    "degree": lambda rec, record: [rec._replace(degree=2)],
    "representative": lambda rec, record: [record("e1", 6)],  # another member of the orbit
}


@pytest.mark.parametrize("edit", E6_EDITS.values(), ids=E6_EDITS)
def test_catalog_check_catches_a_missing_and_a_duplicated_class(monkeypatch, edit):
    """The record of e6 dropped, or with a wrong size, degree or representative:
    each disagrees with the catalog record for record, and no class check fails."""

    def edit_e6(records, record):
        e6 = record("e6", 6)
        assert e6 in records
        return [new for rec in records for new in (edit(rec, record) if rec == e6 else [rec])]

    assert check_with(monkeypatch, "X6", edit_e6) == ["X6: closed-form catalog disagrees with enumeration"]


def test_orbit_count_sums_are_checked_against_the_degree_table(monkeypatch):
    table = degree_count_table(surface_from_name("X6"))
    monkeypatch.setattr(goldens, "degree_count_table", lambda surface: {**table, 1: table[1] + 1})
    assert check_with(monkeypatch, "X6", lambda records, record: records) == [
        "X6: orbit-count sums disagree with the degree table"
    ]


def test_verify_and_regen_read_and_write_utf8_explicitly():
    """Under -X warn_default_encoding, an open without an encoding is an error.  ``acm list`` regenerates
    a golden file."""
    root = Path(__file__).parent.parent
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv, out in (
        (["-m", "delpezzo.cli", "verify", "--golden", str(GOLDEN_DIR)], None),
        (["-m", "delpezzo.cli", "list", "X6"], (GOLDEN_DIR / "X6.tsv").read_text(encoding="utf-8")),
    ):
        result = subprocess.run(strict + argv, env=env, capture_output=True, encoding="utf-8", timeout=60)
        assert (result.returncode, result.stderr) == (0, ""), argv
        assert out is None or result.stdout == out
