"""Seeded workload inputs. Every classify input carries a certificate of its effectivity.

An effective class is built as a nonnegative sum of effective-monoid
generators and carries the counts; a non-effective one carries a nef witness
N with D.N < 0 (see ``oracle``). The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle

#: classify-small: all eight surfaces, |coeff| <= 5, degree 0..9.
SMALL_MAX_COEFF = 5
SMALL_MAX_DEGREE = 9

#: effectivity-deep, per surface: top k of the ladder k*H = 3k*l - k*(e1+..+er), top a of
#: the non-effective ladder a*l - (a+1)*e1 (degree 2a - 1), and the degrees of the seeded
#: random sums of lines. Sized so one pass takes about a second on an uncontended 2-CPU host. The
#: ladders carry the deep searches; random sums on X6 stop at degree 5 because above it
#: their cost spreads over 10^4x between seeds, which would swamp run-to-run comparisons.
_SUM_DEGREES = (3, 3, 6, 6, 9, 9, 12, 12, 15, 15, 18, 18, 21, 21)
DEEP_SIZES = {
    "X2": (10, 14, _SUM_DEGREES),
    "X3": (10, 14, _SUM_DEGREES),
    "X4": (8, 12, _SUM_DEGREES),
    "X5": (8, 8, _SUM_DEGREES),
    "X6": (6, 5, (3, 3, 4, 4, 5, 5)),
}

#: -K = H as a sum of (-1)-lines, the certificate behind the k*H ladder.
H_AS_LINES = {
    "X2": {"F12": 3, "E1": 2, "E2": 2},
    "X3": {"F12": 1, "F13": 1, "F23": 1, "E1": 1, "E2": 1, "E3": 1},
    "X4": {"F12": 2, "F34": 1, "E1": 1, "E2": 1},
    "X5": {"G": 1, "F12": 1, "E1": 1, "E2": 1},
    "X6": {"G1": 1, "F12": 1, "E2": 1},
}


@dataclass(frozen=True)
class Request:
    """One ``classify`` request with the answer it must get."""

    surface: str
    coeffs: tuple[int, ...]
    effective: bool
    cert: object  # generator label -> count when effective, else a nef witness name
    fmt: str
    text: str

    def argv(self) -> list[str]:
        # Divisor text goes after "--": argparse takes text such as "-l+e1" for an option.
        return ["classify", self.surface, "--format", self.fmt, "--", self.text]

    def check(self, code: int, out: str) -> list[str]:
        return oracle.check_classify(self.surface, self.coeffs, self.effective, self.fmt, code, out)


@dataclass(frozen=True)
class Command:
    """One catalog command and the check its output must pass."""

    args: tuple[str, ...]
    checker: Callable[[int, str], list[str]]

    def argv(self) -> list[str]:
        return list(self.args)

    def check(self, code: int, out: str) -> list[str]:
        return self.checker(code, out)


#: catalog-cold commands by name.
CATALOG = {
    "lines": Command(("lines", "X6"), oracle.check_lines_x6),
    "table": Command(("table", "all", "--format", "json"), oracle.check_table_all),
    "wild": Command(("wild", "X6", "--rank", "50", "--format", "json"), oracle.check_wild_x6_rank50),
    "verify": Command(("verify", "--golden", "golden"), oracle.check_verify),
}


def _request(surface, v, effective, cert, fmt, rng) -> Request:
    problem = oracle.certificate_problem(surface, v, effective, cert)
    if problem is not None:
        raise ValueError(f"generated an uncertified input {v} on {surface}: {problem}")
    return Request(surface, tuple(v), effective, cert, fmt, oracle.divisor_text(surface, v, rng))


def _sum_of(surface: str, counts: Counter) -> tuple[int, ...]:
    gens = oracle.cone_generators(surface)
    v = (0,) * len(oracle.symbols(surface))
    for label, n in counts.items():
        v = oracle.add(v, oracle.scale(n, gens[label]))
    return v


def _small_effective(surface: str, rng: random.Random) -> tuple[tuple[int, ...], dict]:
    """Add random generators while the degree stays within a random target."""
    target = rng.randint(0, SMALL_MAX_DEGREE)
    gens = sorted(oracle.cone_generators(surface).items())
    counts: Counter = Counter()
    v = (0,) * len(oracle.symbols(surface))
    while True:
        fits = [
            (label, w)
            for label, g in gens
            if oracle.degree(surface, w := oracle.add(v, g)) <= target
            and max(map(abs, w)) <= SMALL_MAX_COEFF
        ]
        if not fits:
            return v, dict(counts)
        label, v = rng.choice(fits)
        counts[label] += 1


def _small_non_effective(surface: str, rng: random.Random) -> tuple[tuple[int, ...], str]:
    """Rejection-sample a class of degree 0..9 that some nef witness pairs negatively."""
    rank = len(oracle.symbols(surface))
    witnesses = sorted(oracle.nef_witnesses(surface).items())
    while True:
        v = tuple(rng.randint(-SMALL_MAX_COEFF, SMALL_MAX_COEFF) for _ in range(rank))
        if 0 <= oracle.degree(surface, v) <= SMALL_MAX_DEGREE:
            for name, n in witnesses:
                if oracle.dot(surface, v, n) < 0:
                    return v, name


def classify_small(seed: int) -> Iterator[Request]:
    """An endless stream of small classes, alternately text and JSON, in blocks of 16 that
    hold one effective and one non-effective class per surface in a seeded order, so the
    mix is the same in every stretch of the stream. X0 gets two effective classes: a
    class a*l of degree 3a >= 0 is effective."""
    rng = random.Random(f"classify-small/{seed}")
    formats = itertools.cycle(("text", "json"))
    while True:
        block = [(surface, effective) for surface in oracle.SURFACES for effective in (True, False)]
        rng.shuffle(block)
        for surface, effective in block:
            if effective or surface == "X0":
                v, counts = _small_effective(surface, rng)
                yield _request(surface, v, True, counts, next(formats), rng)
            else:
                v, witness = _small_non_effective(surface, rng)
                yield _request(surface, v, False, witness, next(formats), rng)


def effectivity_deep(seed: int, sizes: dict = DEEP_SIZES) -> list[Request]:
    """Classes on X2..X6 at rising degree: the k*H ladder, the non-effective ladder
    a*l - (a+1)*e1 and seeded random sums of lines, ordered by degree."""
    rng = random.Random(f"effectivity-deep/{seed}")
    cases = []
    for surface, (top_k, top_a, sum_degrees) in sizes.items():
        r = oracle.points(surface)
        line_labels = sorted(oracle.lines(surface))
        for k in range(1, top_k + 1):
            counts = Counter({label: k * n for label, n in H_AS_LINES[surface].items()})
            cases.append((surface, _sum_of(surface, counts), True, dict(counts)))
        for a in range(1, top_a + 1):
            cases.append((surface, (a, -(a + 1)) + (0,) * (r - 1), False, "l-e1"))
        for d in sum_degrees:
            counts = Counter(rng.choice(line_labels) for _ in range(d))
            cases.append((surface, _sum_of(surface, counts), True, dict(counts)))
    cases.sort(key=lambda case: oracle.degree(case[0], case[1]))
    return [
        _request(surface, v, effective, cert, ("text", "json")[i % 2], rng)
        for i, (surface, v, effective, cert) in enumerate(cases)
    ]


def catalog_cycle(rng: random.Random) -> list[str]:
    """The four catalog commands in a seeded order."""
    return rng.sample(sorted(CATALOG), len(CATALOG))
