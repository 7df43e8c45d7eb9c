import pytest

from delpezzo import (
    NotApplicable,
    NotFound,
    PreconditionViolated,
    SurfaceMismatch,
    UnsupportedSurface,
    blow_up,
    degree,
    hyperplane,
    intersect,
    parse_divisor,
    quadric,
    zero_class,
)
from delpezzo.acm import enumerate_acm, is_acm_initialized
from delpezzo.wild import (
    ExtDimensions,
    ext1_dimension,
    ext1_dimension_vs_rank2,
    ext_dimensions,
    family_plan,
    family_slope,
    find_wild_pair,
    find_wild_pairs,
    h2_twist_minus_2,
    intersection_lower_bound,
    intersection_upper_bound,
    is_zero_regular_acm,
)

from paper_values import WILD_TABLE

X0, X1, X2, X3, X4, X5, X6 = (blow_up(r) for r in range(7))
Q = quadric()
ALL_SURFACES = [blow_up(r) for r in range(7)] + [Q]
WILD_SURFACES = (X3, X4, X5, X6)


def ceil_div(a, b):
    return -(-a // b)


# --- intersection bounds ------------------------------------------------------------


def test_upper_bound_closed_forms():
    n = 6
    assert intersection_upper_bound(n, n, 2, n) == n + 2
    assert intersection_upper_bound(2, 3, 1, n) == 2
    assert intersection_upper_bound(3, 3, 2, 3) == 5


def test_upper_bound_window_violations():
    with pytest.raises(PreconditionViolated):
        intersection_upper_bound(6, 6, 1, 6)  # c + d > mn
    with pytest.raises(PreconditionViolated):
        intersection_upper_bound(1, 1, 2, 6)  # c + d <= (m-1)n
    with pytest.raises(PreconditionViolated):
        intersection_upper_bound(0, 3, 1, 6)


def test_lower_bound():
    assert intersection_lower_bound(6, 6) == 4
    assert intersection_lower_bound(1, 6) == -1
    with pytest.raises(PreconditionViolated):
        intersection_lower_bound(0, 1)


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_bounds_hold_for_every_acm_pair(surface):
    n = surface.degree
    nonzero = [D for D in enumerate_acm(surface) if not D.is_zero]
    for C in nonzero:
        for D in nonzero:
            c, d = degree(C), degree(D)
            m = ceil_div(c + d, n)
            value = intersect(C, D)
            assert intersection_lower_bound(c, d) <= value
            assert value <= intersection_upper_bound(c, d, m, n)
            if value == intersection_lower_bound(c, d):
                assert C == D


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_upper_bound_saturation_iff_pair_sums_to_2h(surface):
    n = surface.degree
    maximal = [D for D in enumerate_acm(surface) if degree(D) == n]
    two_h = 2 * hyperplane(surface)
    for C in maximal:
        for D in maximal:
            saturated = intersect(C, D) == n + 2
            assert saturated == (C + D == two_h)


# --- Ext dimensions -----------------------------------------------------------------


def test_ext_values_on_the_cubic_pair():
    C = parse_divisor(X3, "3l-2e1-e2")
    D = parse_divisor(X3, "3l-2e2-e3")
    E = 2 * hyperplane(X3) - C
    F = 2 * hyperplane(X3) - D
    assert ext_dimensions(C, D) == ExtDimensions(0, 2, 0)
    assert ext1_dimension(E, F) == 2
    assert ext1_dimension(C, E) == 3
    assert ext1_dimension(D, F) == 3
    assert ext1_dimension(D, E) == 0
    assert ext1_dimension(C, F) == 0


def test_ext_rejects_bad_input():
    C = parse_divisor(X3, "3l-2e1-e2")
    with pytest.raises(NotApplicable):
        ext1_dimension(C, C)
    with pytest.raises(PreconditionViolated):
        ext1_dimension(C, parse_divisor(X3, "l"))  # degree 3 < 6
    with pytest.raises(PreconditionViolated):
        ext1_dimension(C, hyperplane(X3))  # not ACM at all


def test_ext_vs_rank2_values():
    pair = find_wild_pair(X3)
    assert ext1_dimension_vs_rank2(pair.E, pair.C, pair.D) == 3
    assert ext1_dimension_vs_rank2(pair.F, pair.C, pair.D) == 3
    with pytest.raises(NotApplicable):
        ext1_dimension_vs_rank2(pair.C, pair.C, pair.D)


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_ext_vs_rank2_additivity(surface):
    pair = find_wild_pair(surface)
    for R in (pair.E, pair.F):
        assert ext1_dimension_vs_rank2(R, pair.C, pair.D) == ext1_dimension(
            R, pair.C
        ) + ext1_dimension(R, pair.D)


# --- wild pairs -----------------------------------------------------------------------


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_paper_pairs_are_found(surface):
    c_text, d_text, product = WILD_TABLE[surface.name]
    C = parse_divisor(surface, c_text)
    D = parse_divisor(surface, d_text)
    assert intersect(C, D) == product == 1 + surface.degree
    hits = find_wild_pairs(surface)
    assert any(p.C == C and p.D == D for p in hits)
    assert find_wild_pair(surface) == hits[0]


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_every_pair_satisfies_the_relation_block(surface):
    hits = find_wild_pairs(surface)
    assert hits
    for pair in hits:
        assert pair.relation_block() == (3, 3, 2, 2, 0, 0)
        assert len({pair.C, pair.D, pair.E, pair.F}) == 4
        for member in (pair.C, pair.D, pair.E, pair.F):
            assert is_acm_initialized(member)
            assert degree(member) == surface.degree


@pytest.mark.parametrize("surface", (X0, X1, X2, Q), ids=str)
def test_no_pairs_on_large_degree_surfaces(surface):
    with pytest.raises(NotFound):
        find_wild_pair(surface)
    assert find_wild_pairs(surface) == []


# --- family plans ----------------------------------------------------------------------


def test_family_plan_shapes():
    plan = family_plan(X3, 2)
    assert (plan.shape, plan.param_dim) == ("rank2", 2)
    plan = family_plan(X3, 5)
    assert (plan.shape, plan.m, plan.param_dim) == ("odd", 2, 4)
    plan = family_plan(X6, 6)
    assert (plan.shape, plan.m, plan.param_dim) == ("even", 2, 7)
    assert plan.schedule[-1].ext1_dim == 2 + 3 * plan.m


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_family_dimensions_up_to_rank_50(surface):
    for n in range(2, 51):
        plan = family_plan(surface, n)
        assert plan.rank == n
        assert plan.param_dim >= n - 1
        if n == 2:
            assert plan.param_dim == 2
        elif n % 2 == 1:
            m = (n - 1) // 2
            assert plan.param_dim == 2 * m
        else:
            m = (n - 2) // 2
            assert plan.param_dim == 3 * m + 1
        assert family_slope(surface, plan) == surface.degree


def test_family_plan_errors():
    with pytest.raises(UnsupportedSurface):
        family_plan(X2, 2)
    with pytest.raises(UnsupportedSurface):
        family_plan(Q, 2)
    with pytest.raises(PreconditionViolated):
        family_plan(X3, 1)


def test_family_slope_examples():
    assert family_slope(X3, family_plan(X3, 2)) == 6
    assert family_slope(X6, family_plan(X6, 7)) == 3
    assert family_slope(X4, family_plan(X4, 9)) == 5


def test_family_slope_rejects_another_surface():
    # the X6 plan has slope 3 whatever surface is passed beside it
    with pytest.raises(SurfaceMismatch):
        family_slope(X3, family_plan(X6, 2))
    with pytest.raises(SurfaceMismatch):
        family_slope(X2, family_plan(X5, 3))


# --- 0-regularity -----------------------------------------------------------------------


def test_zero_regularity():
    assert is_zero_regular_acm(parse_divisor(X3, "3l-2e1-e2"))
    assert not is_zero_regular_acm(zero_class(X3))
    assert h2_twist_minus_2(zero_class(X3)) == 7
    e1 = parse_divisor(X1, "e1")
    assert not is_zero_regular_acm(e1)
    assert h2_twist_minus_2(e1) == 7
    with pytest.raises(PreconditionViolated):
        is_zero_regular_acm(hyperplane(X3))


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_zero_regular_iff_maximal_degree(surface):
    for D in enumerate_acm(surface):
        assert is_zero_regular_acm(D) == (degree(D) == surface.degree and not D.is_zero)
