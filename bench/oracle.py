"""The benchmark's own model of the Picard lattices, and the output checks built on it.

Nothing here imports ``delpezzo``: every invariant the benchmark checks is
recomputed from raw coefficient vectors with this module's Gram matrices,
so a defect in ``delpezzo.picard`` cannot hide itself.

Coefficients follow the package's storage convention: ``a*l + sum(c_i*e_i)``
on the blow-up X_r of r points, ``a*h + b*m`` on the quadric Q.
"""

from __future__ import annotations

import itertools
import json
import re

SURFACES = ("X0", "X1", "X2", "X3", "X4", "X5", "X6", "Q")

#: Number of classes in each golden file, i.e. of initialized ACM classes.
GOLDEN_TOTALS = {"X0": 3, "X1": 7, "X2": 15, "X3": 29, "X4": 51, "X5": 83, "X6": 127, "Q": 8}

#: Parameter-space dimension of the rank-50 family on the cubic surface X6.
WILD_X6_RANK50_PARAM_DIM = 73

CLASSIFY_KEYS = (
    "degree",
    "self_intersection",
    "arithmetic_genus",
    "euler_characteristic",
    "effective",
    "very_ample",
    "smooth_member",
    "acm_initialized",
    "zero_regular",
)


def points(surface: str) -> int | None:
    """Blown-up point count r of X_r, None for the quadric."""
    return None if surface == "Q" else int(surface[1])


def symbols(surface: str) -> tuple[str, ...]:
    r = points(surface)
    if r is None:
        return ("h", "m")
    return ("l",) + tuple(f"e{i}" for i in range(1, r + 1))


def dot(surface: str, u, v) -> int:
    """Intersection pairing: l^2 = 1, e_i^2 = -1 on X_r; h.m = 1, h^2 = m^2 = 0 on Q."""
    if surface == "Q":
        return u[0] * v[1] + u[1] * v[0]
    return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))


def anticanonical(surface: str) -> tuple[int, ...]:
    """H = -K: 3l - e1 - ... - er on X_r, 2h + 2m on Q."""
    r = points(surface)
    return (2, 2) if r is None else (3,) + (-1,) * r


def degree(surface: str, v) -> int:
    return dot(surface, v, anticanonical(surface))


def surface_degree(surface: str) -> int:
    return 8 if surface == "Q" else 9 - points(surface)


def _unit(rank: int, i: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign if k == i else 0 for k in range(rank))


def add(u, v) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(u, v))


def scale(n: int, v) -> tuple[int, ...]:
    return tuple(n * x for x in v)


def lines(surface: str) -> dict[str, tuple[int, ...]]:
    """The (-1)-lines by label: E_i = e_i, F_ij = l - e_i - e_j, G (r = 5), G_j (r = 6)."""
    r = points(surface)
    if not r:
        return {}
    rank = r + 1
    out = {f"E{i}": _unit(rank, i) for i in range(1, r + 1)}
    for i, j in itertools.combinations(range(1, r + 1), 2):
        out[f"F{i}{j}"] = (1,) + tuple(-1 if k in (i, j) else 0 for k in range(1, r + 1))
    if r == 5:
        out["G"] = (2,) + (-1,) * 5
    if r == 6:
        for j in range(1, 7):
            out[f"G{j}"] = (2,) + tuple(0 if k == j else -1 for k in range(1, 7))
    return out


def cone_generators(surface: str) -> dict[str, tuple[int, ...]]:
    """Generators of the effective monoid: l on X0, e1 and f = l - e1 on X1, h and m on Q,
    the (-1)-lines on X2..X6."""
    if surface == "Q":
        return {"h": (1, 0), "m": (0, 1)}
    if surface == "X0":
        return {"l": (1,)}
    if surface == "X1":
        return {"e1": (0, 1), "f": (1, -1)}
    return lines(surface)


def nef_witnesses(surface: str) -> dict[str, tuple[int, ...]]:
    """Nef classes N; D.N < 0 proves that D is not effective.

    l (a net of lines), l - e_i (the pencil of lines through p_i), the conic
    pencils 2l - e_i - e_j - e_k - e_m, and H (ample); h and m on Q.
    """
    if surface == "Q":
        return {"h": (1, 0), "m": (0, 1), "H": anticanonical(surface)}
    r = points(surface)
    rank = r + 1
    out = {"l": _unit(rank, 0)}
    for i in range(1, r + 1):
        out[f"l-e{i}"] = add(_unit(rank, 0), _unit(rank, i, -1))
    for quad in itertools.combinations(range(1, r + 1), 4):
        out["2l-" + "-".join(f"e{i}" for i in quad)] = (2,) + tuple(
            -1 if k in quad else 0 for k in range(1, r + 1)
        )
    out["H"] = anticanonical(surface)
    return out


def invariants(surface: str, v) -> dict[str, int | bool]:
    """degree, D^2, p_a = (D^2 - deg)/2 + 1, chi = (D^2 + deg)/2 + 1 and the ACM flag."""
    d = degree(surface, v)
    s = dot(surface, v, v)
    zero = not any(v)
    return {
        "degree": d,
        "self_intersection": s,
        "arithmetic_genus": (s - d) // 2 + 1,
        "euler_characteristic": (s + d) // 2 + 1,
        "acm_initialized": zero or (s == d - 2 and 0 < d <= surface_degree(surface)),
    }


# ---------------------------------------------------------------------------
# certificates


def certificate_problem(surface: str, v, effective: bool, cert) -> str | None:
    """None when ``cert`` proves the verdict, else the reason it does not.

    An effective certificate maps generator labels to nonnegative counts that
    sum to v; a non-effective one names a nef witness N with v.N < 0.
    """
    if effective:
        gens = cone_generators(surface)
        total = (0,) * len(v)
        for label, n in cert.items():
            if n < 0 or label not in gens:
                return f"bad generator term {n}*{label}"
            total = add(total, scale(n, gens[label]))
        return None if total == tuple(v) else f"generators sum to {total}, not {tuple(v)}"
    witness = nef_witnesses(surface).get(cert)
    if witness is None:
        return f"unknown nef witness {cert!r}"
    return None if dot(surface, v, witness) < 0 else f"D.{cert} >= 0"


# ---------------------------------------------------------------------------
# divisor text


def divisor_text(surface: str, v, rng=None) -> str:
    """Divisor text: with no ``rng`` the documented canonical writing (basis order,
    unit coefficients elided, ``0`` for zero), else the terms in a seeded random
    order, e.g. ``-e2+3l-2e1``."""
    terms = [
        f"{'-' if c < 0 else '+'}{'' if abs(c) == 1 else abs(c)}{sym}"
        for c, sym in zip(v, symbols(surface))
        if c
    ]
    if rng is not None:
        rng.shuffle(terms)
    return "".join(terms).removeprefix("+") if terms else "0"


_TERM = re.compile(r"([+-]?)(\d*)(e\d+|l|h|m)")


def parse_canonical(surface: str, text: str) -> tuple[int, ...] | None:
    """Coefficients of canonical divisor text, or None if it is not of that form."""
    syms = symbols(surface)
    v = [0] * len(syms)
    if text == "0":
        return tuple(v)
    pos = 0
    for m in _TERM.finditer(text):
        if m.start() != pos or m.group(3) not in syms:
            return None
        v[syms.index(m.group(3))] += (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
        pos = m.end()
    return tuple(v) if pos == len(text) else None


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right


def _text_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _as_text(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def check_classify(surface: str, v, effective: bool, fmt: str, code: int, out: str) -> list[str]:
    """Check one ``classify`` answer against invariants recomputed here and the certificate."""
    if code != 0:
        return [f"exit code {code}"]
    want = dict(invariants(surface, v), effective=effective)
    if fmt == "json":
        try:
            payload = json.loads(out)
            got, echo, where = payload["report"], payload["divisor"], payload["surface"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable JSON output: {exc}"]
        if set(got) != set(CLASSIFY_KEYS):
            return [f"report keys {sorted(got)}"]
        wrong = [k for k, w in want.items() if type(got[k]) is not type(w) or got[k] != w]
    else:
        fields = _text_fields(out)
        echo, where = fields.get("divisor"), fields.get("surface")
        got = {k: fields.get(k) for k in CLASSIFY_KEYS}
        wrong = [k for k, w in want.items() if got[k] != _as_text(w)]
    problems = [f"{k} is {got[k]!r}, expected {_as_text(want[k])}" for k in wrong]
    if where != surface:
        problems.append(f"surface echoed as {where!r}")
    if echo != divisor_text(surface, v):
        problems.append(f"divisor echoed as {echo!r}, expected {divisor_text(surface, v)!r}")
    return problems


def check_lines_x6(code: int, out: str) -> list[str]:
    """``lines X6`` in text: the 27 distinct lines, each with D^2 = -1 and degree 1."""
    if code != 0:
        return [f"exit code {code}"]
    rows = out.splitlines()
    if not rows or rows[-1] != "27 lines on X6":
        return [f"summary line {rows[-1] if rows else None!r}"]
    classes = set()
    for row in rows[:-1]:
        _, _, text = row.partition("\t")
        v = parse_canonical("X6", text)
        if v is None or dot("X6", v, v) != -1 or degree("X6", v) != 1:
            return [f"{row!r} is not a (-1)-line"]
        classes.add(v)
    return [] if len(classes) == 27 else [f"{len(classes)} distinct lines"]


def check_table_all(code: int, out: str) -> list[str]:
    """``table all`` in JSON: per-surface totals equal the golden class counts."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(out)
        totals = payload["totals"]
        column_sums = {
            name: sum(row["counts"].get(name, 0) for row in payload["rows"]) for name in SURFACES
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable JSON output: {exc}"]
    problems = []
    if totals != GOLDEN_TOTALS:
        problems.append(f"totals {totals}")
    if column_sums != GOLDEN_TOTALS:
        problems.append(f"rows sum to {column_sums}")
    return problems


def check_wild_x6_rank50(code: int, out: str) -> list[str]:
    """``wild X6 --rank 50`` in JSON: rank 50 with parameter-space dimension 73."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(out)
        got = (payload["surface"], payload["rank"], payload["param_dim"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON output: {exc}"]
    want = ("X6", 50, WILD_X6_RANK50_PARAM_DIM)
    return [] if got == want else [f"(surface, rank, param_dim) = {got}, expected {want}"]


def check_verify(code: int, out: str) -> list[str]:
    """``verify`` in text: exit code 0 and a final ``ok``."""
    rows = out.splitlines()
    if code != 0:
        return [f"exit code {code}"]
    return [] if rows and rows[-1] == "ok" else [f"last line {rows[-1] if rows else None!r}"]
