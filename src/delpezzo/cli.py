"""Command-line front end: lines, classify, table, wild, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 request outside the supported surface range, 4 internal error (a bug,
reported on one line).  Divisor text may start with '-' (``acm classify X3
-l+e1``).  JSON output is emitted with sorted keys and a stable layout so
identical invocations are byte-identical; the schema ships at
schemas/acm-output.schema.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import acm, geometry, goldens, wild
from .errors import NotFound, PreconditionViolated, UnsupportedSurface
from .picard import (
    SURFACE_NAMES,
    DivisorClass,
    arithmetic_genus,
    degree,
    euler_characteristic,
    format_divisor,
    parse_divisor,
    self_intersection,
    surface_from_name,
)

OK, VERIFY_FAILED, USAGE_ERROR, OUT_OF_SCOPE, INTERNAL_ERROR = 0, 1, 2, 3, 4

# Everything importing the tool creates lives until the process exits.  Frozen,
# it is never rescanned by the cyclic collector; otherwise the first
# generation-1 collection, about 0.5 ms over those objects, lands inside
# whichever command runs first.
gc.freeze()


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fail(message: str, code: int) -> int:
    print(f"acm: error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# lines


def cmd_lines(args: argparse.Namespace) -> int:
    surface = surface_from_name(args.surface)
    lines = geometry.enumerate_lines(surface)
    if args.format == "json":
        _emit_json(
            {
                "command": "lines",
                "surface": surface.name,
                "count": len(lines),
                "lines": [
                    {"label": L.label, "divisor": format_divisor(L.divisor)} for L in lines
                ],
            }
        )
    else:
        for L in lines:
            print(f"{L.label}\t{format_divisor(L.divisor)}")
        print(f"{len(lines)} lines on {surface.name}")
    return OK


# ---------------------------------------------------------------------------
# classify


def _classify_report(D: DivisorClass) -> dict:
    """The classify fields, in the order the text report prints them."""
    report: dict[str, object] = {
        "degree": degree(D),
        "self_intersection": self_intersection(D),
        "arithmetic_genus": arithmetic_genus(D),
        "euler_characteristic": euler_characteristic(D),
        "effective": geometry.is_effective(D),
    }
    try:
        report["very_ample"] = geometry.is_very_ample(D)
    except UnsupportedSurface:
        report["very_ample"] = None
    try:
        report["smooth_member"] = geometry.has_smooth_nonline_member(D)
    except PreconditionViolated:
        report["smooth_member"] = None
    report["acm_initialized"] = acm.is_acm_initialized(D)
    try:
        report["zero_regular"] = wild.is_zero_regular_acm(D)
    except PreconditionViolated:
        report["zero_regular"] = None
    return report


def cmd_classify(args: argparse.Namespace) -> int:
    surface = surface_from_name(args.surface)
    D = parse_divisor(surface, args.divisor)
    report = _classify_report(D)
    if args.format == "json":
        _emit_json(
            {
                "command": "classify",
                "surface": surface.name,
                "divisor": format_divisor(D),
                "report": report,
            }
        )
    else:
        print(f"surface: {surface.name}")
        print(f"divisor: {format_divisor(D)}")
        for key, value in report.items():
            if value is None:
                text = "n/a"
            elif isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = str(value)
            print(f"{key}: {text}")
    return OK


# ---------------------------------------------------------------------------
# table


def _table_rows() -> tuple[list[dict], dict[str, int]]:
    rows = []
    totals: dict[str, int] = {}
    tables = {}
    for name in SURFACE_NAMES:
        surface = surface_from_name(name)
        tables[name] = acm.degree_count_table(surface)
        totals[name] = sum(tables[name].values())
    for d in range(10):
        counts = {}
        for name in SURFACE_NAMES:
            surface = surface_from_name(name)
            if d <= surface.degree:
                counts[name] = tables[name].get(d, 0)
        rows.append({"degree": d, "counts": counts})
    return rows, totals


def cmd_table(args: argparse.Namespace) -> int:
    spec = args.surface
    if spec.lower() == "all":
        rows, totals = _table_rows()
        if args.format == "json":
            _emit_json(
                {
                    "command": "table",
                    "surface": "all",
                    "surfaces": list(SURFACE_NAMES),
                    "rows": rows,
                    "totals": totals,
                }
            )
        else:
            width = 5
            header = "d".rjust(3) + "".join(name.rjust(width) for name in SURFACE_NAMES)
            print(header)
            for row in rows:
                cells = "".join(
                    str(row["counts"][name]).rjust(width) if name in row["counts"] else " " * width
                    for name in SURFACE_NAMES
                )
                print(str(row["degree"]).rjust(3) + cells)
            print("Tot".rjust(3) + "".join(str(totals[name]).rjust(width) for name in SURFACE_NAMES))
        return OK

    surface = surface_from_name(spec)
    counts = acm.degree_count_table(surface)
    total = sum(counts.values())
    if args.format == "json":
        _emit_json(
            {
                "command": "table",
                "surface": surface.name,
                "counts": {str(d): c for d, c in counts.items()},
                "total": total,
            }
        )
    else:
        print("d".rjust(3) + "count".rjust(7))
        for d, c in counts.items():
            print(str(d).rjust(3) + str(c).rjust(7))
        print("Tot".rjust(3) + str(total).rjust(7))
    return OK


# ---------------------------------------------------------------------------
# wild


def cmd_wild(args: argparse.Namespace) -> int:
    surface = surface_from_name(args.surface)
    if args.rank < 2:
        return _fail(f"rank must be at least 2, got {args.rank}", USAGE_ERROR)
    try:
        plan = wild.family_plan(surface, args.rank)
    except (UnsupportedSurface, NotFound) as exc:  # NotFound: degree <= 6 guarantees a pair
        return _fail(str(exc), OUT_OF_SCOPE)
    pair = plan.pair
    relations = dict(zip(("CE", "DF", "CD", "EF", "DE", "CF"), pair.relation_block()))
    slope = wild.family_slope(surface, plan)
    schedule = [
        {
            "sub": step.sub,
            "quotient": format_divisor(step.quotient),
            "ext1_dim": step.ext1_dim,
            "repeat": step.repeat,
        }
        for step in plan.schedule
    ]
    if args.format == "json":
        _emit_json(
            {
                "command": "wild",
                "surface": surface.name,
                "rank": plan.rank,
                "shape": plan.shape,
                "m": plan.m,
                "pair": {
                    "C": format_divisor(pair.C),
                    "D": format_divisor(pair.D),
                    "E": format_divisor(pair.E),
                    "F": format_divisor(pair.F),
                },
                "relations": relations,
                "schedule": schedule,
                "param_dim": plan.param_dim,
                "slope": slope,
            }
        )
    else:
        print(f"surface: {surface.name} (degree {surface.degree})")
        print(f"rank: {plan.rank} ({plan.shape}" + (f", m={plan.m})" if plan.m is not None else ")"))
        print("pair:")
        for label, cls in (("C", pair.C), ("D", pair.D), ("E", pair.E), ("F", pair.F)):
            print(f"  {label} = {format_divisor(cls)}")
        print("relations (1 + X.Y - d): " + "  ".join(f"{k}={v}" for k, v in relations.items()))
        print("schedule:")
        for k, step in enumerate(plan.schedule, 1):
            times = f" x{step.repeat}" if step.repeat > 1 else ""
            print(
                f"  {k}. 0 -> {step.sub} -> ? -> O({format_divisor(step.quotient)}) -> 0"
                f"   dim Ext1 = {step.ext1_dim}{times}"
            )
        print(f"param_dim: {plan.param_dim}")
        print(f"slope: {slope}")
    return OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    golden_dir = args.golden
    if not os.path.isdir(golden_dir):
        return _fail(f"golden directory {golden_dir!r} does not exist", USAGE_ERROR)
    missing = goldens.missing_golden_files(golden_dir)
    if missing:
        return _fail(
            f"missing golden files in {golden_dir!r}: " + ", ".join(f"{m}.tsv" for m in missing),
            USAGE_ERROR,
        )
    ok, report = goldens.run_verification(golden_dir)
    if args.format == "json":
        _emit_json({"command": "verify", "golden_dir": str(golden_dir), "ok": ok, "report": report})
    else:
        for line in report:
            print(line)
        print("ok" if ok else "FAILED")
    return OK if ok else VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acm",
        description="Classify and enumerate initialized ACM line bundles on strong del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_lines = sub.add_parser("lines", help="enumerate the (-1)-lines of a surface")
    p_lines.add_argument("surface")
    add_format(p_lines)
    p_lines.set_defaults(func=cmd_lines)

    p_classify = sub.add_parser("classify", help="numerical report for a divisor class")
    p_classify.add_argument("surface")
    p_classify.add_argument("divisor")
    add_format(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_table = sub.add_parser("table", help="per-degree counts of ACM classes")
    p_table.add_argument("surface", help="a surface name or 'all'")
    add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    p_wild = sub.add_parser("wild", help="wild pair and rank-n family plan")
    p_wild.add_argument("surface")
    p_wild.add_argument("--rank", type=int, required=True)
    add_format(p_wild)
    p_wild.set_defaults(func=cmd_wild)

    p_verify = sub.add_parser("verify", help="regression-check enumeration against golden files")
    p_verify.add_argument("--golden", default="golden", help="directory of golden .tsv files")
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _divisor_behind_dashes(argv: list[str]) -> list[str]:
    """Move classify divisor text that starts with '-' (``-l+e1``) behind ``--``.

    argparse would read such text as an option.  Only ``-h`` and the long
    options are options of ``classify``, so every other token starting with
    a single '-' is divisor text; putting it last keeps ``--format`` working
    on either side of it.
    """
    if argv[:1] != ["classify"] or "--" in argv:
        return argv
    texts = [t for t in argv[1:] if t.startswith("-") and not t.startswith("--") and t != "-h"]
    if not texts:
        return argv
    return [t for t in argv if t not in texts] + ["--", *texts]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_divisor_behind_dashes(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ValueError as exc:  # parse errors, bad surface names and similar input errors
        return _fail(str(exc), USAGE_ERROR)
    except Exception as exc:  # InternalError or any other escape is a bug: one line, no traceback
        print(f"acm: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
