import itertools

import pytest
from hypothesis import given, strategies as st

from delpezzo import (
    PreconditionViolated,
    arithmetic_genus,
    blow_up,
    degree,
    divisor,
    hyperplane,
    intersect,
    parse_divisor,
    quadric,
    zero_class,
)
from delpezzo import acm
from delpezzo.acm import (
    ambient_dimension,
    closed_form_catalog,
    closed_form_quadric,
    degree_count_table,
    enumerate_acm,
    expand_orbit,
    h0_hyperplane_residual,
    is_acm_initialized,
    orbit_size,
    sort_key,
)
from delpezzo.geometry import enumerate_lines, h1_initialized_twist, is_effective

from paper_values import EXPECTED_COUNTS, TOTALS

X0, X1, X2, X3, X6 = (blow_up(r) for r in (0, 1, 2, 3, 6))
Q = quadric()
ALL_SURFACES = [blow_up(r) for r in range(7)] + [Q]


# --- criterion -------------------------------------------------------------------


def test_criterion_examples():
    assert is_acm_initialized(zero_class(X2))
    D = parse_divisor(X1, "3l-2e1")
    assert is_acm_initialized(D) and degree(D) == 7
    for surface in ALL_SURFACES:
        assert not is_acm_initialized(hyperplane(surface))
    assert not is_acm_initialized(parse_divisor(X3, "l-e1-e2-e3"))


def quadric_closed_form(a, b):
    """The quadric criterion solved: a*h + b*m is ACM iff it is 0 or (a-1)(b-1) = 0, 0 < 2a+2b <= 8."""
    if a == 0 and b == 0:
        return True
    return (a - 1) * (b - 1) == 0 and 0 < 2 * a + 2 * b <= 8


def test_quadric_criterion_examples():
    D = parse_divisor(Q, "h+3m")
    assert is_acm_initialized(D) and degree(D) == 8
    assert not is_acm_initialized(parse_divisor(Q, "2h+2m"))
    h = parse_divisor(Q, "h")
    assert is_acm_initialized(h) and degree(h) == 2
    assert not quadric_closed_form(2, 2) and quadric_closed_form(1, 3)


@given(a=st.integers(-10, 10), b=st.integers(-10, 10))
def test_quadric_criterion_agrees_with_general(a, b):
    assert quadric_closed_form(a, b) == is_acm_initialized(divisor(Q, a, b))


# --- enumeration ------------------------------------------------------------------


def test_enumeration_smallest_surface():
    assert [str(D) for D in enumerate_acm(X0)] == ["0", "l", "2l"]


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_enumeration_totals(surface):
    assert len(enumerate_acm(surface)) == TOTALS[surface.name]


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_degree_count_table(surface):
    table = degree_count_table(surface)
    expected = EXPECTED_COUNTS[surface.name]
    for d in range(surface.degree + 1):
        assert table.get(d, 0) == expected[d], f"{surface.name} d={d}"
    assert sum(table.values()) == TOTALS[surface.name]


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_classes_of_degree_concatenate_to_the_enumeration(surface):
    by_degree = [acm.classes_of_degree(surface, c) for c in range(surface.degree + 1)]
    assert [D for classes in by_degree for D in classes] == enumerate_acm(surface)
    assert all(degree(D) == c for c, classes in enumerate(by_degree) for D in classes)
    assert {c: len(classes) for c, classes in enumerate(by_degree) if classes} == degree_count_table(surface)


def test_classes_of_degree_outside_the_range_are_not_scanned(monkeypatch):
    # the Hodge box grows with |c|: a degree outside 0..H^2 must not reach it
    def no_scan(*args):
        raise AssertionError("scanned a degree outside 0..H^2")

    monkeypatch.setattr(acm, "_coefficient_range", no_scan)
    for surface in ALL_SURFACES:
        for c in (-1, -(10**6), surface.degree + 1, 10**6):
            assert acm.classes_of_degree(surface, c) == ()


def test_enumeration_is_sorted_and_duplicate_free():
    for surface in ALL_SURFACES:
        classes = enumerate_acm(surface)
        assert classes == sorted(classes, key=sort_key)
        assert len(set(classes)) == len(classes)


def test_coefficient_range_bounds_every_solution():
    # brute force over a box much wider than the bound; permuting the tail
    # preserves both equations, so sorted tails cover every class
    solutions = 0
    for surface in ALL_SURFACES:
        for a in range(-3, 10):
            for t in itertools.combinations_with_replacement(range(-5, 6), surface.rank - 1):
                coeffs = (a,) + t
                D = divisor(surface, *coeffs)
                c = degree(D)
                if 0 <= c <= surface.degree and intersect(D, D) == c - 2:
                    solutions += 1
                    for k, x in enumerate(coeffs):
                        assert x in acm._coefficient_range(surface, c, k), (surface.name, coeffs, k)
    assert solutions == 85


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_enumerated_class_invariants(surface):
    lines = enumerate_lines(surface)
    for D in enumerate_acm(surface):
        assert 0 <= degree(D) <= surface.degree
        if not D.is_zero:
            assert arithmetic_genus(D) == 0
            assert is_effective(D)
        for L in lines:
            value = intersect(D, L.divisor)
            assert value >= -1
            if value == -1:
                assert D == L.divisor


# --- orbit sizes --------------------------------------------------------------------


def test_orbit_size_is_multinomial():
    assert orbit_size(6, (2, 2, 2, 1, 1, 1)) == 20
    assert orbit_size(6, (2, 1, 1, 1, 1, 0)) == 30
    assert orbit_size(5, (-1, 0, 0, 0, 0)) == 5
    assert orbit_size(0, ()) == 1


@given(data=st.data())
def test_orbit_size_counts_distinct_permutations(data):
    r = data.draw(st.integers(1, 5))
    b = tuple(data.draw(st.tuples(*([st.integers(-1, 2)] * r))))
    assert orbit_size(r, b) == len(set(itertools.permutations(b)))


# --- closed-form catalog (the independent oracle) -------------------------------------


@pytest.mark.parametrize("r", range(7))
def test_catalog_equals_enumeration(r):
    surface = blow_up(r)
    expanded = sorted(
        (cls for record in closed_form_catalog(surface) for cls in expand_orbit(record)),
        key=sort_key,
    )
    assert expanded == enumerate_acm(surface)


def test_quadric_closed_form_equals_enumeration():
    assert closed_form_quadric(Q) == enumerate_acm(Q)


def test_catalog_rows_spot_checks():
    x3_rows = {str(rec.canonical): rec for rec in closed_form_catalog(X3)}
    assert x3_rows["4l-2e1-2e2-2e3"].degree == 6
    x6_rows = {str(rec.canonical): rec for rec in closed_form_catalog(X6)}
    assert x6_rows["5l-2e1-2e2-2e3-2e4-2e5-2e6"].degree == 3
    x0 = [str(rec.canonical) for rec in closed_form_catalog(X0)]
    assert x0 == ["0", "l", "2l"]


@pytest.mark.parametrize("r", range(7))
def test_orbit_counts_sum_to_degree_table(r):
    surface = blow_up(r)
    sums: dict[int, int] = {}
    for rec in closed_form_catalog(surface):
        sums[rec.degree] = sums.get(rec.degree, 0) + rec.orbit_count
    assert sums == degree_count_table(surface)


def test_expand_orbit_length_matches_count():
    for rec in closed_form_catalog(X6):
        assert len(expand_orbit(rec)) == rec.orbit_count


# --- cohomological bookkeeping ----------------------------------------------------------


def test_h1_twist_vanishes_on_acm_classes():
    for surface in (X2, X3, Q):
        for D in enumerate_acm(surface):
            if not D.is_zero:
                assert h1_initialized_twist(D) == 0


def test_h1_twist_examples():
    assert h1_initialized_twist(parse_divisor(X1, "2l-e1")) == 0
    assert h1_initialized_twist(parse_divisor(X2, "2l-2e1-2e2")) == 2
    assert h1_initialized_twist(parse_divisor(X2, "2l-2e1")) == 1
    with pytest.raises(PreconditionViolated):
        h1_initialized_twist(parse_divisor(X0, "3l"))  # equals H, not initialized
    with pytest.raises(PreconditionViolated):
        h1_initialized_twist(zero_class(X3))


def test_ambient_dimension_examples():
    D = parse_divisor(X2, "2l-e1-e2")
    assert ambient_dimension(D) == 4
    assert h0_hyperplane_residual(D) == 3
    assert ambient_dimension(parse_divisor(X3, "e1")) == 1
    top = parse_divisor(X3, "3l-2e1-e2")  # degree 6 = H^2
    assert h0_hyperplane_residual(top) == 0
    with pytest.raises(PreconditionViolated):
        ambient_dimension(hyperplane(X3))
    with pytest.raises(PreconditionViolated):
        ambient_dimension(zero_class(X3))
