import itertools
import re
from pathlib import Path

import pytest

from delpezzo import SURFACE_NAMES, surface_from_name
from delpezzo.acm import enumerate_acm
from delpezzo.goldens import golden_lines, run_verification, write_golden_dir

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

LINE_RE = re.compile(r"^\d\t[0-9A-Za-z+\-]+\t\d+$")


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_shipped_golden_matches_enumeration(name):
    recorded = (GOLDEN_DIR / f"{name}.tsv").read_text().splitlines()
    assert recorded == golden_lines(surface_from_name(name))


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_golden_line_format(name):
    for line in (GOLDEN_DIR / f"{name}.tsv").read_text().splitlines():
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


def test_orbit_column_examples():
    counts = {
        (name, text): int(count)
        for name in ("X3", "X5", "X6")
        for _, text, count in (line.split("\t") for line in golden_lines(surface_from_name(name)))
    }
    assert counts["X6", "4l-2e1-2e2-2e3-e4-e5-e6"] == 20
    assert counts["X5", "e3"] == 5
    assert counts["X3", "0"] == 1


def test_write_golden_dir_reproduces_shipped_goldens(tmp_path):
    write_golden_dir(tmp_path)
    shipped = sorted(GOLDEN_DIR.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == [path.name for path in shipped]
    for path in shipped:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_run_verification_rejects_a_bad_golden_dir(tmp_path):
    nope, plain, partial = tmp_path / "nope", tmp_path / "golden.tsv", tmp_path / "partial"
    plain.write_text("")
    write_golden_dir(partial)
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
