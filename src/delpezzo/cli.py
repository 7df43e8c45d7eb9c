"""Command-line front end: lines, classify, table, wild, verify.

Each ``cmd_*`` function maps the parsed arguments to its JSON payload, the
dict that ``--format json`` emits, and never prints.  Each ``text_*``
function is the text view of one payload: it yields the text lines and reads
nothing but the payload, so both formats show the same fields.  ``main`` is
the only place that knows about formats and exit codes:

    0  success
    1  verification failure (the payload's ``ok`` is false)
    2  usage or parse error (``ValueError``)
    3  request outside the supported surface range (``UnsupportedSurface``,
       ``NotFound``)
    4  internal error: any other exception, a bug, reported on one line

Divisor text may start with '-' (``acm classify X3 -l+e1``).  JSON output is
emitted with sorted keys and a stable layout so identical invocations are
byte-identical; the schema ships at schemas/acm-output.schema.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Iterator

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


def _fail(message: str, code: int) -> int:
    print(f"acm: error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# lines


def cmd_lines(args: argparse.Namespace) -> dict:
    surface = surface_from_name(args.surface)
    lines = geometry.enumerate_lines(surface)
    return {
        "command": "lines",
        "surface": surface.name,
        "count": len(lines),
        "lines": [{"label": L.label, "divisor": format_divisor(L.divisor)} for L in lines],
    }


def text_lines(p: dict) -> Iterator[str]:
    for line in p["lines"]:
        yield f"{line['label']}\t{line['divisor']}"
    yield f"{p['count']} lines on {p['surface']}"


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


def cmd_classify(args: argparse.Namespace) -> dict:
    surface = surface_from_name(args.surface)
    D = parse_divisor(surface, args.divisor)
    return {
        "command": "classify",
        "surface": surface.name,
        "divisor": format_divisor(D),
        "report": _classify_report(D),
    }


def text_classify(p: dict) -> Iterator[str]:
    yield f"surface: {p['surface']}"
    yield f"divisor: {p['divisor']}"
    for key, value in p["report"].items():
        text = "n/a" if value is None else str(value).lower() if isinstance(value, bool) else value
        yield f"{key}: {text}"


# ---------------------------------------------------------------------------
# table


def cmd_table(args: argparse.Namespace) -> dict:
    if args.surface.strip().lower() == "all":
        surfaces = [surface_from_name(name) for name in SURFACE_NAMES]
        tables = [acm.degree_count_table(s) for s in surfaces]
        rows = [
            {
                "degree": d,
                "counts": {s.name: t.get(d, 0) for s, t in zip(surfaces, tables) if d <= s.degree},
            }
            for d in range(10)
        ]
        return {
            "command": "table",
            "surface": "all",
            "surfaces": list(SURFACE_NAMES),
            "rows": rows,
            "totals": {s.name: sum(t.values()) for s, t in zip(surfaces, tables)},
        }
    surface = surface_from_name(args.surface)
    counts = acm.degree_count_table(surface)
    return {
        "command": "table",
        "surface": surface.name,
        "counts": {str(d): c for d, c in counts.items()},
        "total": sum(counts.values()),
    }


def _row(first: object, cells: list, width: int) -> str:
    return str(first).rjust(3) + "".join(str(c).rjust(width) for c in cells)


def text_table(p: dict) -> Iterator[str]:
    if p["surface"] == "all":
        names = p["surfaces"]
        yield _row("d", names, 5)
        for row in p["rows"]:
            yield _row(row["degree"], [row["counts"].get(name, "") for name in names], 5)
        yield _row("Tot", [p["totals"][name] for name in names], 5)
        return
    yield _row("d", ["count"], 7)
    for d, c in p["counts"].items():
        yield _row(d, [c], 7)
    yield _row("Tot", [p["total"]], 7)


# ---------------------------------------------------------------------------
# wild


def cmd_wild(args: argparse.Namespace) -> dict:
    surface = surface_from_name(args.surface)
    if args.rank < 2:  # before family_plan, whose surface check would answer 3
        raise ValueError(f"rank must be at least 2, got {args.rank}")
    plan = wild.family_plan(surface, args.rank)  # NotFound: degree <= 6 guarantees a pair
    pair = plan.pair
    return {
        "command": "wild",
        "surface": surface.name,
        "rank": plan.rank,
        "shape": plan.shape,
        "m": plan.m,
        "pair": {label: format_divisor(getattr(pair, label)) for label in "CDEF"},
        "relations": dict(zip(("CE", "DF", "CD", "EF", "DE", "CF"), pair.relation_block())),
        "schedule": [
            {
                "sub": step.sub,
                "quotient": format_divisor(step.quotient),
                "ext1_dim": step.ext1_dim,
                "repeat": step.repeat,
            }
            for step in plan.schedule
        ],
        "param_dim": plan.param_dim,
        "slope": wild.family_slope(surface, plan),
    }


def text_wild(p: dict) -> Iterator[str]:
    # the degree is not a payload field: the schema admits no extra key
    yield f"surface: {p['surface']} (degree {surface_from_name(p['surface']).degree})"
    yield f"rank: {p['rank']} ({p['shape']}" + (f", m={p['m']})" if p["m"] is not None else ")")
    yield "pair:"
    for label, text in p["pair"].items():
        yield f"  {label} = {text}"
    yield "relations (1 + X.Y - d): " + "  ".join(f"{k}={v}" for k, v in p["relations"].items())
    yield "schedule:"
    for k, step in enumerate(p["schedule"], 1):
        times = f" x{step['repeat']}" if step["repeat"] > 1 else ""
        yield (
            f"  {k}. 0 -> {step['sub']} -> ? -> O({step['quotient']}) -> 0"
            f"   dim Ext1 = {step['ext1_dim']}{times}"
        )
    yield f"param_dim: {p['param_dim']}"
    yield f"slope: {p['slope']}"


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> dict:
    golden_dir = args.golden
    if not os.path.isdir(golden_dir):
        raise ValueError(f"golden directory {golden_dir!r} does not exist")
    missing = goldens.missing_golden_files(golden_dir)
    if missing:
        raise ValueError(f"missing golden files in {golden_dir!r}: " + ", ".join(f"{m}.tsv" for m in missing))
    ok, report = goldens.run_verification(golden_dir)
    return {"command": "verify", "golden_dir": golden_dir, "ok": ok, "report": report}


def text_verify(p: dict) -> Iterator[str]:
    yield from p["report"]
    yield "ok" if p["ok"] else "FAILED"


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
    p_lines.set_defaults(func=cmd_lines, view=text_lines)

    p_classify = sub.add_parser("classify", help="numerical report for a divisor class")
    p_classify.add_argument("surface")
    p_classify.add_argument("divisor")
    add_format(p_classify)
    p_classify.set_defaults(func=cmd_classify, view=text_classify)

    p_table = sub.add_parser("table", help="per-degree counts of ACM classes")
    p_table.add_argument("surface", help="a surface name or 'all'")
    add_format(p_table)
    p_table.set_defaults(func=cmd_table, view=text_table)

    p_wild = sub.add_parser("wild", help="wild pair and rank-n family plan")
    p_wild.add_argument("surface")
    p_wild.add_argument("--rank", type=int, required=True)
    add_format(p_wild)
    p_wild.set_defaults(func=cmd_wild, view=text_wild)

    p_verify = sub.add_parser("verify", help="regression-check enumeration against golden files")
    p_verify.add_argument("--golden", default="golden", help="directory of golden .tsv files")
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify, view=text_verify)

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
        payload = args.func(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in args.view(payload):
                print(line)
    except (UnsupportedSurface, NotFound) as exc:
        return _fail(str(exc), OUT_OF_SCOPE)
    except ValueError as exc:  # parse errors, bad surface names and similar input errors
        return _fail(str(exc), USAGE_ERROR)
    except Exception as exc:  # InternalError or any other escape is a bug: one line, no traceback
        print(f"acm: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    return OK if payload.get("ok", True) else VERIFY_FAILED


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
