"""Command-line front end: lines, classify, table, wild, verify, list.

Each ``cmd_*`` function maps the parsed arguments to its JSON payload, the
dict that ``--format json`` emits, and never prints.  Each ``text_*``
function is the text view of one payload: it yields the text lines and reads
nothing but the payload, so both formats show the same fields.  ``main`` is
the only place that knows about formats and exit codes:

    0  success, or argparse's ``--help``
    1  verification failure (the payload's ``ok`` is false)
    2  usage, parse or I/O error (argparse's usage errors, ``ValueError``, ``OSError``)
    3  request outside the supported surface range (``UnsupportedSurface``)
    4  internal error: any other exception, a bug, reported on one line; this
       includes a ``NotFound`` from an empty wild-pair search on X3..X6

Divisor text after the surface may start with '-' (``acm classify X3
-l+e1``).  JSON output is emitted with sorted keys and a stable layout so
identical invocations are byte-identical; the schema ships at
schemas/acm-output.schema.json.
"""

import argparse
import gc
import sys
from collections.abc import Iterator

from . import acm, geometry, goldens, wild
from .errors import UnsupportedSurface
from .picard import (
    SURFACE_NAMES,
    DivisorClass,
    arithmetic_genus,
    degree,
    euler_characteristic,
    format_divisor,
    intersect,
    max_digits,
    parse_divisor,
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
    """The classify fields, in the order the text report prints them.

    One Zariski round gives ``effective`` and ``smooth_member`` (see ``geometry.moving_part``); each
    predicate returns None, shown as n/a, where its criterion is not stated.
    """
    P = geometry.moving_part(D)
    return {
        "degree": degree(D),
        "self_intersection": intersect(D, D),
        "arithmetic_genus": arithmetic_genus(D),
        "euler_characteristic": euler_characteristic(D),
        "effective": P is not None,
        "very_ample": geometry.is_very_ample(D),
        "smooth_member": None if P is None or D.is_zero else P == D,
        "acm_initialized": acm.is_acm_initialized(D),
        "zero_regular": wild.is_zero_regular_acm(D),
    }


def cmd_classify(args: argparse.Namespace) -> dict:
    surface = surface_from_name(args.surface)
    # after a second '--', argparse 3.13.0 and older passes []; 3.13.13 passes '--', which parse_divisor rejects
    if not isinstance(args.divisor, str):
        raise ValueError("expected one divisor text, got none after '--'")
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
            for d in range(max(s.degree for s in surfaces) + 1)
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
    # family_plan rejects degree > 6 before its pair search, so a NotFound here is a bug (exit 4)
    plan = wild.family_plan(surface, args.rank)
    return {
        **plan._asdict(),
        "command": "wild",
        "surface": surface.name,
        "pair": {label: format_divisor(D) for label, D in plan.pair._asdict().items()},
        "relations": dict(wild.RELATIONS),
        "schedule": [{**step._asdict(), "quotient": format_divisor(step.quotient)} for step in plan.schedule],
        "slope": surface.degree,
    }


def text_wild(p: dict) -> Iterator[str]:
    yield f"surface: {p['surface']} (degree {p['slope']})"  # the slope of every plan is H^2
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
    ok, report = goldens.run_verification(args.golden)
    return {"command": "verify", "golden_dir": args.golden, "ok": ok, "report": report}


def text_verify(p: dict) -> Iterator[str]:
    yield from p["report"]
    yield "ok" if p["ok"] else "FAILED"


# ---------------------------------------------------------------------------
# list


def cmd_list(args: argparse.Namespace) -> dict:
    surface = surface_from_name(args.surface)
    classes = [{"degree": c, "divisor": text, "orbit_count": n} for c, text, n in goldens.catalog_rows(surface)]
    return {"command": "list", "surface": surface.name, "count": len(classes), "classes": classes}


def text_list(p: dict) -> Iterator[str]:
    for c in p["classes"]:  # the golden file's line
        yield f"{c['degree']}\t{c['divisor']}\t{c['orbit_count']}"


# ---------------------------------------------------------------------------
# parser


def _rank(text: str) -> int:
    """A rank written as surrounding whitespace, then one optional sign directly followed by ASCII digits
    ``0-9``.  A rank of more than ``max_digits()`` digits reads as ``10**max_digits()``,
    which ``wild.family_plan`` rejects by that cap: ``int`` itself refuses a rank past the int-to-str limit."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    cap = max_digits()
    return 10**cap if len(digits) > cap else int(text)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The ``acm`` parser, in which only ``command``'s subparser has arguments.

    All six commands keep their subparser and help line, which ``acm --help`` and the "invalid choice"
    error list.  argparse parses with the one subparser it dispatches to, and each ``add_argument`` builds a
    help formatter and calls gettext, so the other five subparsers carry only a name and a help line: no
    arguments and no ``-h``.  ``prog`` is passed to ``add_subparsers`` so that it does not format the
    top-level usage to derive the subparsers' prog prefix.
    """
    parser = argparse.ArgumentParser(
        prog="acm",
        description="Classify and enumerate initialized ACM line bundles on strong del Pezzo surfaces.",
    )
    # no positional comes before the command, so the prog prefix argparse would format from the usage is 'acm'
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    surface, rank = ("surface", {}), ("--rank", {"type": _rank, "required": True})
    surface_or_all = ("surface", {"help": "a surface name or 'all'"})
    golden = ("--golden", {"default": "golden", "help": "directory of golden .tsv files"})
    commands = (  # name, help, the arguments before --format, payload, text view
        ("lines", "enumerate the (-1)-lines of a surface", [surface], cmd_lines, text_lines),
        ("classify", "numerical report for a divisor class", [surface, ("divisor", {})], cmd_classify, text_classify),
        ("table", "per-degree counts of ACM classes", [surface_or_all], cmd_table, text_table),
        ("wild", "wild pair and rank-n family plan", [surface, rank], cmd_wild, text_wild),
        ("verify", "regression-check enumeration against golden files", [golden], cmd_verify, text_verify),
        ("list", "every ACM class of a surface, with its orbit count", [surface], cmd_list, text_list),
    )
    for name, help_text, arguments, func, view in commands:
        p = sub.add_parser(name, help=help_text, add_help=name == command)
        if name != command:
            continue
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func, view=view)
    return parser


def _divisor_behind_dashes(argv: list[str]) -> list[str]:
    """Move the classify positionals after the surface behind ``--``, in order.

    argparse would read divisor text that starts with '-' (``-l+e1``) as an
    option.  Only ``-h`` and the long options are options of ``classify``, so
    every other token after the surface (the first bare token that is not
    the value of ``--format``) is a positional.  Moving them all keeps
    ``--format`` working on either side of the divisor and keeps their order,
    so a surplus token is the one named as unrecognized, whether or not the
    divisor starts with '-'.  Tokens before the surface stay where they are,
    so ``classify -e1 X3`` is a usage error, as ``classify l X3`` is.  ``-h``
    is never moved: ``classify Q -h`` prints the help, and ``classify Q --
    -h`` classifies the class -h.
    """
    if argv[:1] != ["classify"] or "--" in argv:
        return argv
    # the value of --format, or of an abbreviation argparse accepts (--f .. --forma), is not the surface
    values = {i + 1 for i, t in enumerate(argv) if len(t) > 2 and "--format".startswith(t)}
    surface = next((i for i, t in enumerate(argv) if i and not t.startswith("-") and i not in values), len(argv))
    moved = [i for i, t in enumerate(argv) if i > surface and i not in values and not t.startswith("--") and t != "-h"]
    if not moved:
        return argv
    return [t for i, t in enumerate(argv) if i not in moved] + ["--", *(argv[i] for i in moved)]


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # argparse 3.13.0 and older takes a leading '--' as the command, later releases drop it; dropped here
        # first, 'acm -- lines X6' is 'acm lines X6' on every Python
        if len(argv) > 1 and argv[0] == "--" and not argv[1].startswith("-"):
            argv = argv[1:]
        argv = _divisor_behind_dashes(argv)
        # The top-level parser's one option, -h, takes no value, so the token argparse dispatches on is this
        # one or an earlier one.  An earlier one starts with '-' ('-', a dash-led token after '--', or on older
        # argparse '--' itself), and no command name does: an invalid choice, rejected before any subparser runs.
        command = next((token for token in argv if not token.startswith("-")), None)
        args = build_parser(command).parse_args(argv)
        payload = args.func(args)
        if args.format == "json":
            import json  # here alone, so a text command never loads it
        # rendered whole before printing, so a failure while rendering prints nothing
        print(json.dumps(payload, indent=2, sort_keys=True) if args.format == "json" else "\n".join(args.view(payload)))
    except SystemExit as exc:  # argparse has printed the help (0) or a usage error (2)
        return exc.code
    except UnsupportedSurface as exc:
        return _fail(str(exc), OUT_OF_SCOPE)
    except (ValueError, OSError) as exc:  # bad input, or a file the environment will not let us read
        return _fail(str(exc), USAGE_ERROR)
    except Exception as exc:  # InternalError or any other escape is a bug: one line, no traceback
        print(f"acm: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    return OK if payload.get("ok", True) else VERIFY_FAILED


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
