"""Acceptance suite: one test per criterion, exact integer equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.
"""

import functools
import itertools
import random

from delpezzo import (
    DivisorClass,
    arithmetic_genus,
    blow_up,
    degree,
    intersect,
    parse_divisor,
    quadric,
    self_intersection,
)
from delpezzo.acm import (
    closed_form_catalog,
    degree_count_table,
    enumerate_acm,
    orbit_size,
)
from delpezzo.geometry import enumerate_lines, is_effective
from delpezzo.wild import (
    ext1_dimension,
    family_plan,
    find_wild_pair,
    find_wild_pairs,
)

from paper_values import (
    EXPECTED_COUNTS,
    LINE_COUNTS,
    TOTALS,
    WILD_TABLE,
    RuledCoords,
    decompose,
    ext1_dimension_vs_rank2,
    from_ruled,
    to_ruled,
)
from test_acm import expand_orbit

BLOWUPS = [blow_up(r) for r in range(7)]
ALL_SURFACES = BLOWUPS + [quadric()]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({description}): FAIL")
                raise
            print(f"criterion {number:2d} ({description}): PASS")

        return wrapper

    return decorate


@criterion(1, "line counts")
def test_line_counts():
    for surface in ALL_SURFACES:
        assert len(enumerate_lines(surface)) == LINE_COUNTS[surface.name]


@criterion(2, "classification totals")
def test_classification_totals():
    for surface in ALL_SURFACES:
        assert len(enumerate_acm(surface)) == TOTALS[surface.name]


@criterion(3, "full per-degree table")
def test_full_per_degree_table():
    for surface in ALL_SURFACES:
        table = degree_count_table(surface)
        for d in range(surface.degree + 1):
            assert table.get(d, 0) == EXPECTED_COUNTS[surface.name][d], (surface.name, d)
        assert not any(d > surface.degree for d in table)


@criterion(4, "oracle equivalence: catalog vs enumeration")
def test_oracle_equivalence():
    for surface in ALL_SURFACES:
        expanded = {
            cls for record in closed_form_catalog(surface) for cls in expand_orbit(surface, record)
        }
        assert expanded == set(enumerate_acm(surface))


@criterion(5, "orbit counts")
def test_orbit_counts():
    X6 = blow_up(6)
    by_text = {str(DivisorClass(X6, rec.canonical)): rec.orbit_count for rec in closed_form_catalog(X6)}
    assert by_text["4l-2e1-2e2-2e3-e4-e5-e6"] == 20
    assert by_text["3l-2e1-e2-e3-e4-e5"] == 30  # r * C(r-1, 4) at r = 6
    for surface in BLOWUPS:
        for record in closed_form_catalog(surface):
            b = tuple(-c for c in record.canonical[1:])
            # independent oracle: count distinct permutations directly
            assert record.orbit_count == len(set(itertools.permutations(b)))
            assert record.orbit_count == orbit_size(b)


@criterion(6, "wild pairs and relation block")
def test_wild_pairs():
    expected_products = {"X3": 7, "X4": 6, "X5": 5, "X6": 4}
    for r in (3, 4, 5, 6):
        surface = blow_up(r)
        pair = find_wild_pair(surface)  # must succeed
        assert intersect(pair.C, pair.D) == 1 + surface.degree
        c_text, d_text, product = WILD_TABLE[surface.name]
        C = parse_divisor(surface, c_text)
        D = parse_divisor(surface, d_text)
        assert intersect(C, D) == product == expected_products[surface.name]
        hits = find_wild_pairs(surface)
        assert any(p.C == C and p.D == D for p in hits)
        for p in hits:
            assert p.relation_block() == (3, 3, 2, 2, 0, 0)


@criterion(7, "family dimensions for ranks 2..50")
def test_family_dimensions():
    for r in (3, 4, 5, 6):
        surface = blow_up(r)
        pair = find_wild_pair(surface)
        assert [degree(X) for X in pair] == [surface.degree] * 4  # every plan has slope H^2
        for n in range(2, 51):
            plan = family_plan(surface, n)
            assert plan.param_dim >= n - 1
            if n == 2:
                assert plan.param_dim == 2
                assert plan.schedule[0].ext1_dim == ext1_dimension(pair.C, pair.E)
            elif n % 2 == 1:
                m = (n - 1) // 2
                assert plan.param_dim == 2 * m
            else:
                m = (n - 2) // 2
                assert plan.param_dim == 3 * m + 1
        # Ext^1 across a rank-2 block equals the sum of the two line-bundle values
        for R in (pair.E, pair.F):
            assert ext1_dimension_vs_rank2(R, pair.C, pair.D) == ext1_dimension(
                R, pair.C
            ) + ext1_dimension(R, pair.D)


@criterion(8, "intersection bound saturation")
def test_bound_saturation():
    for surface in ALL_SURFACES:
        n = surface.degree
        maximal = [D for D in enumerate_acm(surface) if degree(D) == n]
        two_h = 2 * surface.hyperplane
        for C in maximal:
            for D in maximal:
                c, d = n, n
                value = intersect(C, D)
                assert min(c, d) - 2 <= value <= n + 2
                assert (value == n + 2) == (C + D == two_h)
                assert (value == min(c, d) - 2) == (C == D)


@criterion(9, "property suite")
def test_property_suite():
    rng = random.Random(20100614)

    # pairing bilinearity and symmetry on 1000 random vectors
    for _ in range(125):
        for surface in ALL_SURFACES:
            rank = surface.rank
            u = DivisorClass(surface, [rng.randint(-10, 10) for _ in range(rank)])
            v = DivisorClass(surface, [rng.randint(-10, 10) for _ in range(rank)])
            w = DivisorClass(surface, [rng.randint(-10, 10) for _ in range(rank)])
            k = rng.randint(-5, 5)
            assert intersect(u, v) == intersect(v, u)
            assert intersect(u + v, w) == intersect(u, w) + intersect(v, w)
            assert intersect(k * u, v) == k * intersect(u, v)

    # genus-0 identity for all nonzero ACM classes
    for surface in ALL_SURFACES:
        for D in enumerate_acm(surface):
            if not D.is_zero:
                assert arithmetic_genus(D) == 0

    # decompose reconstruction on 1000 random divisors
    for r in (2, 3, 4, 5, 6):
        surface = blow_up(r)
        for _ in range(200):
            D = DivisorClass(surface, [rng.randint(-10, 10) for _ in range(surface.rank)])
            assert decompose(D).reconstruct() == D

    # effectivity consistency: every class of the numerical criterion is effective
    for surface in ALL_SURFACES:
        for D in enumerate_acm(surface):
            if not D.is_zero:
                assert is_effective(D)
    # and the uncapped form over the enumeration box (degree may exceed H^2)
    for r in (2, 3, 4, 5, 6):
        surface = blow_up(r)
        for a in range(0, 6):
            for b in itertools.combinations_with_replacement(range(3, -2, -1), r):
                D = DivisorClass(surface, (a, *(-x for x in b)))
                if self_intersection(D) == degree(D) - 2 and degree(D) > 0:
                    assert is_effective(D)

    # ruled round trip over the full coefficient box
    for c0 in range(-10, 11):
        for f in range(-10, 11):
            coords = RuledCoords(c0, f)
            assert to_ruled(from_ruled(coords)) == coords
    X1 = blow_up(1)
    for a in range(-10, 11):
        for c1 in range(-10, 11):
            D = DivisorClass(X1, (a, c1))
            assert from_ruled(to_ruled(D)) == D


@criterion(10, "widened enumeration box is clean")
def test_widened_box_guard():
    # box membership is invariant under permuting the multiplicities, so the
    # scan ranges over non-increasing vectors and covers every class
    for surface in BLOWUPS:
        r = surface.r
        for a in range(-1, 7):
            for b in itertools.combinations_with_replacement(range(4, -3, -1), r):
                s1, s2 = sum(b), sum(x * x for x in b)
                d_h = 3 * a - s1
                if a * a - s2 == d_h - 2 and 0 < d_h <= surface.degree:
                    assert 0 <= a <= 5 and all(-1 <= x <= 3 for x in b), (surface.name, a, b)
    for a in range(-1, 6):
        for b in range(-1, 6):
            if 2 * a * b == 2 * a + 2 * b - 2 and 0 < 2 * a + 2 * b <= 8:
                assert 0 <= a <= 4 and 0 <= b <= 4
