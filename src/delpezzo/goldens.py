"""Golden-file regression format and the verification suite behind `acm verify`.

One file per surface, named ``<surface>.tsv``, one line per enumerated class:
``degree<TAB>divisor-text<TAB>orbit-count`` in the canonical enumeration
order.  Verification re-enumerates each surface, diffs against the golden
file and the closed-form catalog, and re-checks the cheap per-class
invariants.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from .acm import (
    closed_form_catalog,
    closed_form_quadric,
    degree_count_table,
    enumerate_acm,
    expand_orbit,
    orbit_size,
    sort_key,
)
from .geometry import enumerate_lines, is_effective
from .picard import (
    BLOWUP,
    SURFACE_NAMES,
    SurfaceModel,
    arithmetic_genus,
    degree,
    format_divisor,
    intersect,
    surface_from_name,
)


def golden_lines(surface: SurfaceModel) -> list[str]:
    """One line per class.  The orbit count is the number of distinct
    permutations of the coefficients after the first: the classes obtained
    by permuting the exceptional divisors (1 on the quadric)."""
    lines = []
    for D in enumerate_acm(surface):
        t = D.coeffs[1:]
        lines.append(f"{degree(D)}\t{format_divisor(D)}\t{orbit_size(len(t), t)}")
    return lines


def write_golden_dir(directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in SURFACE_NAMES:
        surface = surface_from_name(name)
        path = directory / f"{name}.tsv"
        path.write_text("\n".join(golden_lines(surface)) + "\n")


def missing_golden_files(directory: str | Path) -> list[str]:
    directory = Path(directory)
    return [name for name in SURFACE_NAMES if not (directory / f"{name}.tsv").is_file()]


def _diff_golden(surface: SurfaceModel, recorded: list[str]) -> list[str]:
    current = golden_lines(surface)
    failures = []
    for k, (want, got) in enumerate(itertools.zip_longest(recorded, current)):
        if want != got:
            ref = want if want is not None else got
            deg = ref.split("\t", 1)[0]
            failures.append(
                f"{surface.name} d={deg}: golden line {k + 1} is {want!r}, enumeration gives {got!r}"
            )
    return failures


def _check_invariants(surface: SurfaceModel) -> list[str]:
    failures = []
    classes = enumerate_acm(surface)

    if surface.kind == BLOWUP:
        catalog = closed_form_catalog(surface)
        expanded = sorted((c for record in catalog for c in expand_orbit(record)), key=sort_key)
    else:
        catalog = []
        expanded = closed_form_quadric(surface)
    if expanded != classes:
        failures.append(f"{surface.name}: closed-form catalog disagrees with enumeration")

    lines = enumerate_lines(surface)
    for D in classes:
        if arithmetic_genus(D) != 0 and not D.is_zero:
            failures.append(f"{surface.name} {format_divisor(D)}: genus is not 0")
        if not 0 <= degree(D) <= surface.degree:
            failures.append(f"{surface.name} {format_divisor(D)}: degree out of range")
        if not D.is_zero and not is_effective(D):
            failures.append(f"{surface.name} {format_divisor(D)}: not effective")
        for L in lines:
            prod = intersect(D, L.divisor)
            if prod < -1 or (prod == -1 and D != L.divisor):
                failures.append(
                    f"{surface.name} {format_divisor(D)}: meets {L.label} in {prod}"
                )

    by_degree: dict[int, int] = {}
    for record in catalog:
        by_degree[record.degree] = by_degree.get(record.degree, 0) + record.orbit_count
    if surface.kind == BLOWUP and by_degree != degree_count_table(surface):
        failures.append(f"{surface.name}: orbit-count sums disagree with the degree table")
    return failures


def run_verification(golden_dir: str | Path) -> tuple[bool, list[str]]:
    """Diff every surface against its golden file and re-check invariants.

    Returns (ok, report lines).  Missing files must be handled by the caller
    beforehand (see :func:`missing_golden_files`).
    """
    golden_dir = Path(golden_dir)
    report = []
    ok = True
    for name in SURFACE_NAMES:
        surface = surface_from_name(name)
        recorded = (golden_dir / f"{name}.tsv").read_text().splitlines()
        failures = _diff_golden(surface, recorded) + _check_invariants(surface)
        if failures:
            ok = False
            report.extend(failures)
        else:
            report.append(f"{name}: {len(recorded)} classes verified")
    return ok, report
