import itertools
from operator import mul

import pytest
from hypothesis import example, given, strategies as st

from delpezzo import (
    DivisorClass,
    InternalError,
    SurfaceModel,
    arithmetic_genus,
    degree,
    intersect,
    parse_divisor,
)
from delpezzo import acm
from delpezzo.acm import (
    closed_form_catalog,
    degree_count_table,
    enumerate_acm,
    is_acm_initialized,
    orbit_size,
)
from delpezzo.geometry import cohomology, enumerate_lines, is_effective

from paper_values import (
    EXPECTED_COUNTS,
    TOTALS,
    ambient_dimension,
    classes_of_degree,
    h0_hyperplane_residual,
    h1_initialized_twist,
    h2_twist_minus_2,
)

X0, X1, X2, X3, X6 = (SurfaceModel(r) for r in (0, 1, 2, 3, 6))
Q = SurfaceModel(None)
ALL_SURFACES = [SurfaceModel(r) for r in range(7)] + [Q]


def sort_key(D):
    """The catalog order as an oracle: degree, then the coefficient tuple."""
    return (degree(D), D.coeffs)


# --- criterion -------------------------------------------------------------------


def test_criterion_examples():
    assert is_acm_initialized(DivisorClass(X2, (0, 0, 0)))
    D = parse_divisor(X1, "3l-2e1")
    assert is_acm_initialized(D) and degree(D) == 7
    for surface in ALL_SURFACES:
        assert not is_acm_initialized(surface.hyperplane)
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
    assert quadric_closed_form(a, b) == is_acm_initialized(DivisorClass(Q, (a, b)))


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
    by_degree = [classes_of_degree(surface, c) for c in range(surface.degree + 1)]
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
            assert acm.orbits_of_degree(surface, c) == ()
            assert acm.coefficients_of_degree(surface, c) == []


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_orbit_records_are_the_expansion_of_the_scan(surface):
    """Per degree 0..H^2: the records' sizes sum to the class count, each
    representative is the first class its expansion emits, and each size is
    the number of distinct permutations of the representative's tail."""
    for c in range(surface.degree + 1):
        records, coeffs = acm.orbits_of_degree(surface, c), acm.coefficients_of_degree(surface, c)
        assert sum(rec.orbit_count for rec in records) == len(coeffs), c
        start = 0
        for rec in records:
            assert rec.degree == c
            assert rec.canonical == coeffs[start]
            assert rec.orbit_count == len(set(itertools.permutations(rec.canonical[1:])))
            start += rec.orbit_count


def expansion_error(monkeypatch, serve):
    """The InternalError of expanding X3's degree-1 records as ``serve`` rearranges them."""
    records = acm.orbits_of_degree(X3, 1)
    acm.orbits_of_degree.cache_clear()
    monkeypatch.setattr(acm, "orbits_of_degree", lambda s, c: serve(records))
    try:
        with pytest.raises(InternalError) as info:
            acm.coefficients_of_degree(X3, 1)
        return str(info.value)
    finally:
        monkeypatch.undo()
        acm.orbits_of_degree.cache_clear()


def test_a_class_enumerated_twice_is_an_internal_error(monkeypatch):
    """The expansion's order guard: a record served twice repeats its orbit."""
    message = expansion_error(monkeypatch, lambda records: records + records[:1])
    assert message == "classes of degree 1 on X3 repeat or leave the catalog order"


def test_records_served_out_of_order_are_an_internal_error(monkeypatch):
    """The expansion's order guard: the records of e3 and l-e1-e2 served in reverse."""
    message = expansion_error(monkeypatch, lambda records: records[::-1])
    assert message == "classes of degree 1 on X3 repeat or leave the catalog order"


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_both_producers_write_representatives_as_coefficient_tuples(surface):
    scanned = [rec for c in range(surface.degree + 1) for rec in acm.orbits_of_degree(surface, c)]
    for rec in scanned + closed_form_catalog(surface):
        assert type(rec.canonical) is tuple and len(rec.canonical) == surface.rank, rec


def test_degree_count_table_builds_no_class(monkeypatch):
    """Only the surface models build classes, their K and H, once per surface: a repeat
    ``SurfaceModel(r)`` builds none, and neither does the table."""
    built = []
    post_init = DivisorClass.__post_init__
    monkeypatch.setattr(DivisorClass, "__post_init__", lambda D: built.append(D) or post_init(D))
    surfaces = [SurfaceModel(r) for r in (*range(7), None)]
    assert surfaces == ALL_SURFACES and built == []
    acm.orbits_of_degree.cache_clear()
    tables = [degree_count_table(s) for s in surfaces]
    assert built == []
    assert [sum(t.values()) for t in tables] == [TOTALS[s.name] for s in surfaces]


def former_classes_of_degree(surface, c):
    """The former expansion, kept as the oracle: every distinct permutation of
    each criterion hit's tail, then one sort of all the classes."""
    if not 0 <= c <= surface.degree:
        return ()
    n = surface.rank - 1
    classes = []
    for a in acm._coefficient_range(surface, c, 0):
        for t in itertools.combinations_with_replacement(acm._coefficient_range(surface, c, n), n):
            D = DivisorClass(surface, (a,) + t)
            if degree(D) == c and is_acm_initialized(D):
                classes.extend(DivisorClass(surface, (a,) + perm) for perm in set(itertools.permutations(t)))
    classes.sort(key=sort_key)
    return tuple(classes)


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_classes_of_degree_equal_the_former_expansion(surface):
    for c in range(surface.degree + 1):
        assert classes_of_degree(surface, c) == former_classes_of_degree(surface, c), c


@given(t=st.lists(st.integers(-2, 2), max_size=6))
@example(t=[])  # the tail on X0
@example(t=[1, 1, 1, 1, 1, 1])
def test_distinct_permutations_are_sorted_and_complete(t):
    t = tuple(sorted(t))
    assert list(acm._distinct_permutations(t)) == sorted(set(itertools.permutations(t)))


# --- Weyl-group orbits: a third oracle for the catalog -----------------------------


def simple_roots(surface):
    """e_i - e_{i+1} for i < r, and l - e1 - e2 - e3 when r >= 3: each of square -2."""
    r = surface.r
    roots = [tuple(int(k == i) - int(k == i + 1) for k in range(r + 1)) for i in range(1, r)]
    if r >= 3:
        roots.append((1, -1, -1, -1) + (0,) * (r - 3))
    return roots


def reflect(surface, coeffs, alpha):
    """s_alpha(D) = D + (D.alpha) alpha."""
    k = surface.pair(coeffs, alpha)
    return tuple(x + k * a for x, a in zip(coeffs, alpha))


# (degree, size) of each W-orbit of the catalog, sorted
WEYL_ORBITS = {
    "X2": [(0, 1), (1, 1), (1, 2), (2, 2), (3, 1), (4, 1), (5, 2), (6, 1), (6, 2), (7, 2)],
    "X3": [(0, 1), (1, 6), (2, 3), (3, 2), (4, 3), (5, 6), (6, 2), (6, 6)],
    "X4": [(0, 1), (1, 10), (2, 5), (3, 5), (4, 10), (5, 20)],
    "X5": [(0, 1), (1, 16), (2, 10), (3, 16), (4, 40)],
    "X6": [(0, 1), (1, 27), (2, 27), (3, 72)],
}


@pytest.mark.parametrize("r", range(2, 7))
def test_catalog_is_a_union_of_weyl_orbits(r):
    """The criterion is invariant under the Weyl group W(E_r), generated by the
    simple reflections, which fix K and hence H: the catalog is closed under
    them and splits into 10, 8, 6, 5 and 4 W-orbits on X2..X6 (X6: the zero
    class, the 27 lines, 27 conic classes and 72 twisted cubics)."""
    surface = SurfaceModel(r)
    roots = simple_roots(surface)
    assert all(surface.pair(alpha, alpha) == -2 for alpha in roots)
    catalog = {D.coeffs for D in enumerate_acm(surface)}
    left, orbits = set(catalog), []
    while left:
        orbit, todo = set(), [min(left)]
        while todo:
            D = todo.pop()
            if D not in orbit:
                orbit.add(D)
                todo.extend(reflect(surface, D, alpha) for alpha in roots)
        assert orbit <= catalog
        assert len({sum(map(mul, D, surface.degree_vector)) for D in orbit}) == 1
        orbits.append((sum(map(mul, min(orbit), surface.degree_vector)), len(orbit)))
        left -= orbit
    assert sorted(orbits) == WEYL_ORBITS[surface.name]


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
                D = DivisorClass(surface, coeffs)
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
    assert orbit_size((2, 2, 2, 1, 1, 1)) == 20
    assert orbit_size((2, 1, 1, 1, 1, 0)) == 30
    assert orbit_size((-1, 0, 0, 0, 0)) == 5
    assert orbit_size(()) == 1


@given(b=st.lists(st.integers(-1, 2), max_size=5).map(tuple))
def test_orbit_size_counts_distinct_permutations(b):
    assert orbit_size(b) == len(set(itertools.permutations(b)))


# --- closed-form catalog (the independent oracle) -------------------------------------


def expand_orbit(surface, record):
    """The record's orbit written out: every distinct class obtained by
    permuting the exceptional divisors of its representative."""
    a, *tail = record.canonical
    return [DivisorClass(surface, (a,) + perm) for perm in set(itertools.permutations(tail))]


@pytest.mark.parametrize("r", [*range(7), "Q"])
def test_catalog_equals_enumeration(r):
    surface = Q if r == "Q" else SurfaceModel(r)
    expanded = sorted(
        (cls for record in closed_form_catalog(surface) for cls in expand_orbit(surface, record)),
        key=sort_key,
    )
    assert expanded == enumerate_acm(surface)


def test_catalog_rows_spot_checks():
    x3_rows = {str(DivisorClass(X3, rec.canonical)): rec for rec in closed_form_catalog(X3)}
    assert x3_rows["4l-2e1-2e2-2e3"].degree == 6
    x6_rows = {str(DivisorClass(X6, rec.canonical)): rec for rec in closed_form_catalog(X6)}
    assert x6_rows["5l-2e1-2e2-2e3-2e4-2e5-2e6"].degree == 3
    assert x6_rows["e6"] == ((0, 0, 0, 0, 0, 0, 1), 1, 6)  # the exceptional row is its orbit's first member
    x0 = [str(DivisorClass(X0, rec.canonical)) for rec in closed_form_catalog(X0)]
    assert x0 == ["0", "l", "2l"]


@pytest.mark.parametrize("r", [*range(7), "Q"])
def test_orbit_counts_sum_to_degree_table(r):
    surface = Q if r == "Q" else SurfaceModel(r)
    sums: dict[int, int] = {}
    for rec in closed_form_catalog(surface):
        sums[rec.degree] = sums.get(rec.degree, 0) + rec.orbit_count
    assert sums == degree_count_table(surface)


def test_expand_orbit_length_matches_count():
    for rec in closed_form_catalog(X6):
        assert len(expand_orbit(X6, rec)) == rec.orbit_count


# --- cohomology against the paper's closed forms ---------------------------------------


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_catalog_classes_are_initialized_acm_by_cohomology(surface):
    """Every catalog class D has h^0(D - H) = 0 and h^1(D + tH) = 0; the
    nonzero ones have h^0(D) = D.H and h^0(H - D) = H^2 - D.H; and
    h^2(D - 2H) is the closed form."""
    H = surface.hyperplane
    for D in enumerate_acm(surface):
        assert cohomology(D - H)[0] == 0
        assert all(cohomology(D + t * H)[1] == 0 for t in range(-6, 7))
        assert cohomology(D - 2 * H)[2] == h2_twist_minus_2(D)
        if not D.is_zero:
            assert cohomology(D)[0] == ambient_dimension(D)
            assert cohomology(H - D)[0] == h0_hyperplane_residual(D)


def test_h1_twist_vanishes_on_acm_classes():
    for surface in (X2, X3, Q):
        for D in enumerate_acm(surface):
            if not D.is_zero:
                assert cohomology(D - surface.hyperplane)[1] == h1_initialized_twist(D) == 0


def test_h1_twist_examples():
    """h^1(D - H) = -p_a(D) on initialized effective classes, ACM or not."""
    for surface, text, h1 in ((X1, "2l-e1", 0), (X2, "2l-2e1-2e2", 2), (X2, "2l-2e1", 1)):
        D = parse_divisor(surface, text)
        assert cohomology(D)[0] > 0 == cohomology(D - surface.hyperplane)[0]
        assert cohomology(D - surface.hyperplane)[1] == h1_initialized_twist(D) == h1


def test_ambient_dimension_examples():
    D = parse_divisor(X2, "2l-e1-e2")
    assert cohomology(D) == (ambient_dimension(D), 0, 0) == (4, 0, 0)
    assert cohomology(X2.hyperplane - D)[0] == h0_hyperplane_residual(D) == 3
    E = parse_divisor(X3, "e1")
    assert cohomology(E) == (ambient_dimension(E), 0, 0) == (1, 0, 0)
    top = parse_divisor(X3, "3l-2e1-e2")  # degree 6 = H^2
    assert cohomology(X3.hyperplane - top)[0] == h0_hyperplane_residual(top) == 0
