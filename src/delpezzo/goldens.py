"""Golden-file regression format and the verification suite behind `acm verify`.

One file per surface, named ``<surface>.tsv``, one line per enumerated class:
``degree<TAB>divisor-text<TAB>orbit-count`` in the catalog order of ``acm``,
the count read off the scan's record of the class's S_r-orbit.
Verification re-enumerates each surface and diffs it against the golden file,
compares the scan's S_r-orbit records with the closed-form catalog record for
record, and re-checks genus, degree, effectivity and the line products on
each record's representative.
"""

import itertools
import os

from .acm import (
    closed_form_catalog,
    coefficients_of_degree,
    degree_count_table,
    orbits_of_degree,
)
from .geometry import enumerate_lines, is_effective, least_product
from .picard import (
    SURFACE_NAMES,
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    degree,
    format_coefficients,
    format_divisor,
    intersect,
    surface_from_name,
)


def golden_lines(surface: SurfaceModel) -> list[str]:
    """One line per class.  The orbit count, from the record the class was
    expanded from, is the number of distinct permutations of the coefficients
    after the first (1 on the quadric).  Formats coefficient tuples; builds no class."""
    records = [record for c in range(surface.degree + 1) for record in orbits_of_degree(surface, c)]
    coeffs = (v for c in range(surface.degree + 1) for v in coefficients_of_degree(surface, c))  # in record order
    return [f"{c}\t{format_coefficients(surface, v)}\t{n}" for _, c, n in records for v in itertools.islice(coeffs, n)]


def write_golden_dir(directory: str | os.PathLike) -> None:
    os.makedirs(directory, exist_ok=True)
    for name in SURFACE_NAMES:
        with open(os.path.join(directory, f"{name}.tsv"), "w", encoding="utf-8") as file:
            file.write("\n".join(golden_lines(surface_from_name(name))) + "\n")


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
    records = [record for c in range(surface.degree + 1) for record in orbits_of_degree(surface, c)]
    catalog = closed_form_catalog(surface)
    if records != catalog:
        failures.append(f"{surface.name}: closed-form catalog disagrees with enumeration")

    # genus, degree, effectivity and "meets a line L != D negatively" are constant on an S_r-orbit,
    # as permuting e_1..e_r preserves the pairing, H and the set of lines: check each record's
    # representative, so a bad orbit is reported once
    lines = enumerate_lines(surface)
    for record in records:
        D = DivisorClass(surface, record.canonical)
        if arithmetic_genus(D) != 0 and not D.is_zero:
            failures.append(f"{surface.name} {format_divisor(D)}: genus is not 0")
        if not 0 <= degree(D) <= surface.degree:
            failures.append(f"{surface.name} {format_divisor(D)}: degree out of range")
        if not D.is_zero and not is_effective(D):
            failures.append(f"{surface.name} {format_divisor(D)}: not effective")
        if least_product(D) < 0:  # otherwise every line, a generator, meets D nonnegatively
            for L in lines:
                prod = intersect(D, L.divisor)
                if prod < -1 or (prod == -1 and D != L.divisor):
                    failures.append(f"{surface.name} {format_divisor(D)}: meets {L.label} in {prod}")

    by_degree: dict[int, int] = {}
    for record in catalog:
        by_degree[record.degree] = by_degree.get(record.degree, 0) + record.orbit_count
    if by_degree != degree_count_table(surface):
        failures.append(f"{surface.name}: orbit-count sums disagree with the degree table")
    return failures


def run_verification(golden_dir: str | os.PathLike) -> tuple[bool, list[str]]:
    """Diff every surface against its golden file and re-check invariants.

    Returns (ok, report lines).  Raises ValueError when ``golden_dir`` is not
    an existing directory or lacks one of the ``<surface>.tsv`` files.
    """
    if not os.path.isdir(golden_dir):
        problem = "is not a directory" if os.path.exists(golden_dir) else "does not exist"
        raise ValueError(f"golden directory {str(golden_dir)!r} {problem}")
    missing = [name for name in SURFACE_NAMES if not os.path.isfile(os.path.join(golden_dir, f"{name}.tsv"))]
    if missing:
        raise ValueError(f"missing golden files in {str(golden_dir)!r}: " + ", ".join(f"{m}.tsv" for m in missing))
    report = []
    ok = True
    for name in SURFACE_NAMES:
        surface = surface_from_name(name)
        with open(os.path.join(golden_dir, f"{name}.tsv"), encoding="utf-8") as file:
            recorded = file.read().splitlines()
        failures = _diff_golden(surface, recorded) + _check_invariants(surface)
        if failures:
            ok = False
            report.extend(failures)
        else:
            report.append(f"{name}: {len(recorded)} classes verified")
    return ok, report
