import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import (
    DivisorClass,
    InternalError,
    NotFound,
    PreconditionViolated,
    SurfaceModel,
    UnsupportedSurface,
    degree,
    euler_characteristic,
    intersect,
    parse_divisor,
)
from delpezzo import cli, wild
from delpezzo.acm import enumerate_acm, is_acm_initialized
from delpezzo.geometry import cohomology
from delpezzo.wild import (
    ext1_dimension,
    family_plan,
    find_wild_pair,
    is_zero_regular_acm,
    wild_pairs,
)

from paper_values import (
    WILD_TABLE,
    ext1_closed_form,
    ext1_dimension_vs_rank2,
    h2_twist_minus_2,
    intersection_lower_bound,
    intersection_upper_bound,
)

X0, X1, X2, X3, X4, X5, X6 = (SurfaceModel(r) for r in range(7))
Q = SurfaceModel(None)
ALL_SURFACES = [SurfaceModel(r) for r in range(7)] + [Q]
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
    two_h = 2 * surface.hyperplane
    for C in maximal:
        for D in maximal:
            saturated = intersect(C, D) == n + 2
            assert saturated == (C + D == two_h)


# --- Ext dimensions -----------------------------------------------------------------


def test_ext_values_on_the_cubic_pair():
    C = parse_divisor(X3, "3l-2e1-e2")
    D = parse_divisor(X3, "3l-2e2-e3")
    E = 2 * X3.hyperplane - C
    F = 2 * X3.hyperplane - D
    assert cohomology(D - C) == (0, 2, 0)  # (Hom, Ext^1, Ext^2) from O(C) to O(D)
    assert ext1_dimension(E, F) == 2
    assert ext1_dimension(C, E) == 3
    assert ext1_dimension(D, F) == 3
    assert ext1_dimension(D, E) == 0
    assert ext1_dimension(C, F) == 0


def test_ext1_rejects_a_disagreeing_cohomology(monkeypatch):
    C, D = (parse_divisor(X3, text) for text in WILD_TABLE["X3"][:2])
    monkeypatch.setattr(wild, "cohomology", lambda E: (1, 2, 0))  # Ext^1 right, Hom not 0
    with pytest.raises(InternalError, match="disagree with 1 \\+ C.D - d"):
        ext1_dimension(C, D)


def test_ext_rejects_bad_input():
    C = parse_divisor(X3, "3l-2e1-e2")
    with pytest.raises(PreconditionViolated):
        ext1_dimension(C, C)
    with pytest.raises(PreconditionViolated):
        ext1_dimension(C, parse_divisor(X3, "l"))  # degree 3 < 6
    with pytest.raises(PreconditionViolated):
        ext1_dimension(C, X3.hyperplane)  # not ACM at all


def ext1_into_rank2(R, C, D):
    """dim Ext^1 from O(R) into a rank-2 extension of O(D) by O(C): additive over the extension."""
    return ext1_dimension(C, R) + ext1_dimension(D, R)


def test_ext_vs_rank2_values():
    pair = find_wild_pair(X3)
    assert ext1_into_rank2(pair.E, pair.C, pair.D) == ext1_dimension_vs_rank2(pair.E, pair.C, pair.D) == 3
    assert ext1_into_rank2(pair.F, pair.C, pair.D) == ext1_dimension_vs_rank2(pair.F, pair.C, pair.D) == 3
    with pytest.raises(PreconditionViolated):
        ext1_into_rank2(pair.C, pair.C, pair.D)
    with pytest.raises(PreconditionViolated):
        ext1_into_rank2(X3.hyperplane, pair.C, pair.D)  # not ACM
    with pytest.raises(PreconditionViolated):
        ext1_into_rank2(pair.E, parse_divisor(X3, "l"), pair.D)  # degree 3 < 6


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_ext_vs_rank2_additivity(surface):
    pair = find_wild_pair(surface)
    for R in (pair.E, pair.F):
        assert ext1_dimension_vs_rank2(R, pair.C, pair.D) == ext1_into_rank2(R, pair.C, pair.D)
        assert ext1_into_rank2(R, pair.C, pair.D) == ext1_dimension(R, pair.C) + ext1_dimension(R, pair.D)


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_ext_closed_forms_on_every_wild_pair(surface):
    """Over every ordered pair of members, the six relation pairs among them:
    Ext^1 is 1 + X.Y - d, and the cohomology of Y - X proves Hom = Ext^2 = 0."""
    d = surface.degree
    pairs = list(wild_pairs(surface))
    assert len(pairs) == {"X3": 12, "X4": 120, "X5": 480, "X6": 1440}[surface.name]
    for pair in pairs:
        C, D, E, F = pair
        for X, Y in itertools.permutations(pair, 2):
            ext1 = ext1_closed_form(X, Y)
            assert ext1_dimension(X, Y) == ext1 == -euler_characteristic(Y - X)
            assert cohomology(Y - X) == (0, ext1, 0)
        for R in (E, F):
            assert ext1_into_rank2(R, C, D) == 2 - 2 * d + intersect(C, R) + intersect(D, R)


# --- wild pairs -----------------------------------------------------------------------


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_paper_pairs_are_found(surface):
    c_text, d_text, product = WILD_TABLE[surface.name]
    C = parse_divisor(surface, c_text)
    D = parse_divisor(surface, d_text)
    assert intersect(C, D) == product == 1 + surface.degree
    hits = list(wild_pairs(surface))
    assert any(p.C == C and p.D == D for p in hits)
    assert find_wild_pair(surface) == hits[0]


@pytest.mark.parametrize("surface", WILD_SURFACES, ids=str)
def test_every_pair_satisfies_the_relation_block(surface):
    hits = list(wild_pairs(surface))
    assert hits
    position = {D: k for k, D in enumerate(D for D in enumerate_acm(surface) if degree(D) == surface.degree)}
    keys = [(position[pair.C], position[pair.D]) for pair in hits]
    assert keys == sorted(set(keys))  # distinct, in the catalog order of (C, D)
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
    assert list(wild_pairs(surface)) == []


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
    """The closed forms of every plan of rank 2..50: param_dim >= n - 1, the shape, m, and each
    extension step's sub, quotient, dim Ext^1 and repeat count, on the first wild pair."""
    pair = find_wild_pair(surface)
    C, D, E, F = pair
    for n in range(2, 51):
        plan = family_plan(surface, n)
        assert (plan.rank, plan.pair) == (n, pair)
        assert plan.param_dim >= n - 1
        steps = [tuple(step) for step in plan.schedule]
        if n == 2:
            assert (plan.shape, plan.m, plan.param_dim) == ("rank2", None, 2)
            assert steps == [(f"O({E})", C, 3, 1)]
            continue
        m = (n - 1) // 2
        blocks = {1: "E1", 2: "E1 + E2", 3: "E1 + E2 + E3"}.get(m, f"E1 + ... + E{m}")
        odd = [(f"O({C})", D, 2, m), (blocks, E, 3 * m, 1)]
        if n % 2 == 1:
            assert (plan.shape, plan.m, plan.param_dim) == ("odd", m, 2 * m)
            assert steps == odd
        else:
            assert (plan.shape, plan.m, plan.param_dim) == ("even", m, 3 * m + 1)
            assert steps == odd + [(f"H (rank {2 * m + 1})", F, 3 * m + 2, 1)]


def test_family_plan_errors():
    with pytest.raises(UnsupportedSurface):
        family_plan(X2, 2)
    with pytest.raises(UnsupportedSurface):
        family_plan(Q, 2)
    with pytest.raises(PreconditionViolated):
        family_plan(X3, 1)
    for surface, n in ((X2, 1), (Q, 0)):  # the rank is checked before the surface
        with pytest.raises(PreconditionViolated, match="rank must be at least 2"):
            family_plan(surface, n)


def test_family_plan_rank_digit_cap(monkeypatch):
    # the Ext^1 dimensions of a rank-n plan, about 1.5 n, may have a digit more than n
    cap = (sys.get_int_max_str_digits() - 1) // 2
    plan = family_plan(X6, 10**cap - 1)
    assert (plan.shape, plan.param_dim) == ("odd", 10**cap - 2)
    for surface, n in ((X6, 10**cap), (X6, 10**5000), (X2, 10**cap)):  # the rank is checked before the surface
        with pytest.raises(PreconditionViolated) as info:
            family_plan(surface, n)
        assert str(info.value) == f"rank has more than {cap} digits"
    monkeypatch.delattr(sys, "get_int_max_str_digits")  # Python 3.10.0-3.10.6: no limit to cap
    assert family_plan(X6, 10**3000).param_dim == 3 * (10**3000 - 2) // 2 + 1


def test_every_plan_has_slope_h_squared(capsys):
    """Each bundle of a plan is an iterated extension of O(C), O(D), O(E), O(F), all of degree H^2,
    so its slope is H^2: the ``slope`` of the ``acm wild`` payload."""
    for surface in WILD_SURFACES:
        for n in range(2, 13):
            plan = family_plan(surface, n)
            assert [degree(X) for X in plan.pair] == [surface.degree] * 4
            assert {step.quotient for step in plan.schedule} <= set(plan.pair)
            assert cli.main(["wild", surface.name, "--rank", str(n), "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["slope"] == surface.degree


FAMILY_REPORT_TO_RANK_6 = """\
X3 (degree 6): 12 ordered pairs with C.D = 7
  first pair: C = 3l-2e1-e2, D = 3l-e1-2e3
  rank:dim  2:2  3:2  4:4  5:4  6:7   (slope 6 throughout)
X4 (degree 5): 120 ordered pairs with C.D = 6
  first pair: C = 2l-e1, D = 3l-2e2-e3-e4
  rank:dim  2:2  3:2  4:4  5:4  6:7   (slope 5 throughout)
X5 (degree 4): 480 ordered pairs with C.D = 5
  first pair: C = 2l-e1-e2, D = 3l-e1-2e3-e4-e5
  rank:dim  2:2  3:2  4:4  5:4  6:7   (slope 4 throughout)
X6 (degree 3): 1440 ordered pairs with C.D = 4
  first pair: C = l, D = 4l-2e1-2e2-2e3-e4-e5-e6
  rank:dim  2:2  3:2  4:4  5:4  6:7   (slope 3 throughout)
"""


def test_family_report_prints_the_first_pairs_and_dimensions():
    """scripts/family_report.py byte for byte: its first pairs are the first in the catalog order."""
    root = Path(__file__).parent.parent
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    result = subprocess.run(
        strict + [str(root / "scripts" / "family_report.py"), "--max-rank", "6"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == FAMILY_REPORT_TO_RANK_6


# --- 0-regularity -----------------------------------------------------------------------


def test_zero_regularity():
    assert is_zero_regular_acm(parse_divisor(X3, "3l-2e1-e2"))
    assert not is_zero_regular_acm(DivisorClass(X3, (0, 0, 0, 0)))
    assert cohomology(-2 * X3.hyperplane) == (0, 0, h2_twist_minus_2(DivisorClass(X3, (0, 0, 0, 0)))) == (0, 0, 7)
    e1 = parse_divisor(X1, "e1")
    assert not is_zero_regular_acm(e1)
    assert cohomology(e1 - 2 * X1.hyperplane) == (0, 0, h2_twist_minus_2(e1)) == (0, 0, 7)
    # 0-regularity is stated for initialized ACM classes only: None for any other class
    assert is_zero_regular_acm(X3.hyperplane) is None
    assert is_zero_regular_acm(parse_divisor(X6, "3l-e1-e2-2e3")) is None


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_zero_regular_iff_maximal_degree(surface):
    """On every catalog class, and exactly when O(D) is Ulrich: every h^i(D - H) and h^i(D - 2H) vanishes."""
    H = surface.hyperplane
    for D in enumerate_acm(surface):
        ulrich = cohomology(D - H) == cohomology(D - 2 * H) == (0, 0, 0)
        assert is_zero_regular_acm(D) == (degree(D) == surface.degree and not D.is_zero) == ulrich
