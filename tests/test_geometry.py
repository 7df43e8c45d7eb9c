import functools
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo import (
    DivisorClass,
    InternalError,
    PreconditionViolated,
    SurfaceModel,
    UnsupportedSurface,
    arithmetic_genus,
    degree,
    euler_characteristic,
    intersect,
    parse_divisor,
)
from delpezzo import geometry
from delpezzo.acm import enumerate_acm
from delpezzo.geometry import cohomology, enumerate_lines, is_effective, is_very_ample, least_product

from paper_values import (
    LINE_COUNTS,
    alternative_base,
    classes_of_degree,
    decompose,
    has_smooth_nonline_member,
    units,
)

X0, X1, X2, X3, X5, X6 = (SurfaceModel(r) for r in (0, 1, 2, 3, 5, 6))
Q = SurfaceModel(None)
ALL_SURFACES = [SurfaceModel(r) for r in range(7)] + [Q]


def comb(n, k):
    import math

    return math.comb(n, k)


# --- line enumeration ---------------------------------------------------------


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_line_counts(surface):
    lines = enumerate_lines(surface)
    assert len(lines) == LINE_COUNTS[surface.name]
    if surface.r is not None:
        r = surface.r
        assert len(lines) == r + comb(r, 2) + comb(r, 5)


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_line_invariants(surface):
    lines = enumerate_lines(surface)
    assert len({L.divisor for L in lines}) == len(lines)
    for L in lines:
        assert intersect(L.divisor, L.divisor) == -1
        assert degree(L.divisor) == 1
        assert arithmetic_genus(L.divisor) == 0


def test_lines_on_two_point_blowup():
    got = {str(L.divisor) for L in enumerate_lines(X2)}
    assert got == {"e1", "e2", "l-e1-e2"}


def formula_lines(surface):
    """The lines written out, in the order E1..Er < F12 < F13 < ... < G/G1..G6:
    e_i, l - e_i - e_j, 2l - e1 - ... - e5 on X5 and 2l minus five of e1..e6 on X6."""
    if surface.r in (None, 0):
        return []
    l, *e = units(surface)
    r = surface.r
    lines = [(f"E{i + 1}", e[i]) for i in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        lines.append((f"F{i + 1}{j + 1}", l - e[i] - e[j]))
    zero = DivisorClass(surface, (0,) * surface.rank)
    if r == 5:
        lines.append(("G", 2 * l - sum(e, zero)))
    if r == 6:
        for j in range(6):
            lines.append((f"G{j + 1}", 2 * l - sum((e[i] for i in range(6) if i != j), zero)))
    return lines


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_lines_match_the_formulas(surface):
    assert [(L.label, L.divisor) for L in enumerate_lines(surface)] == formula_lines(surface)


def test_line_order_is_label_lexicographic():
    labels = [L.label for L in enumerate_lines(X6)]
    assert labels[:6] == ["E1", "E2", "E3", "E4", "E5", "E6"]
    assert labels[6:9] == ["F12", "F13", "F14"]
    assert labels[-6:] == ["G1", "G2", "G3", "G4", "G5", "G6"]


# --- effectivity ----------------------------------------------------------------


def test_effectivity_on_x1_examples():
    assert is_effective(parse_divisor(X1, "f"))
    assert not is_effective(parse_divisor(X1, "-C0+f"))


def test_effectivity_x1_closed_form():
    f = parse_divisor(X1, "f")
    l = parse_divisor(X1, "l")
    for a in range(-10, 11):
        for c1 in range(-10, 11):
            D = DivisorClass(X1, (a, c1))
            assert is_effective(D) == (intersect(D, f) >= 0 and intersect(D, l) >= 0)


def test_effectivity_quadric_closed_form():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert is_effective(DivisorClass(Q, (a, b))) == (a >= 0 and b >= 0)


def test_effectivity_monoid_cases():
    assert is_effective(X6.hyperplane)
    assert is_effective(DivisorClass(X6, (0, 0, 0, 0, 0, 0, 0)))
    assert not is_effective(-1 * parse_divisor(X2, "e1"))
    assert not is_effective(parse_divisor(X2, "e1-e2"))  # degree 0, nonzero
    assert not is_effective(parse_divisor(X3, "l-e1-e2-e3"))
    assert is_effective(parse_divisor(X6, "5l+e1+e2+e3+e4+e5+e6"))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@given(data=st.data())
def test_effectivity_lemma_consistency(r, data):
    # D^2 = D.H - 2 and D.H > 0 give chi(D) = D.H > 0 and h^2(D) = h^0(K - D) = 0, so D is effective
    surface = SurfaceModel(r)
    a = data.draw(st.integers(0, 5))
    b = data.draw(st.tuples(*([st.integers(-1, 3)] * r)))
    D = DivisorClass(surface, (a, *(-x for x in b)))
    if intersect(D, D) == degree(D) - 2 and degree(D) > 0:
        assert is_effective(D)


# --- effectivity oracle: closed forms and the line-monoid search ------------------


def line_monoid_member(D):
    """Whether D is a nonnegative integer sum of (-1)-lines (r >= 2), by exhaustive search.

    Lines with positive l-coefficient are branched on; the rest of the
    combination is then forced.  Exact, but it grows roughly as deg^7, so it
    serves as an oracle for small degrees only.
    """
    if degree(D) < 0:
        return False
    if D.is_zero:
        return True
    consuming = sorted(
        (L.divisor.coeffs for L in enumerate_lines(D.surface) if L.divisor.coeffs[0] > 0),
        key=lambda v: -v[0],
    )
    failed = set()

    def search(idx, rest):
        a = rest[0]
        if a < 0:
            return False
        if idx == len(consuming):
            return a == 0 and all(c >= 0 for c in rest[1:])
        if (idx, rest) in failed:
            return False
        vec = consuming[idx]
        for n in range(a // vec[0], -1, -1):
            if search(idx + 1, tuple(x - n * v for x, v in zip(rest, vec))):
                return True
        failed.add((idx, rest))
        return False

    return search(0, D.coeffs)


def effective_by_oracle(D):
    """Closed forms on the quadric, the plane and X1; the line-monoid search for r >= 2."""
    surface = D.surface
    if surface.r is None:
        return D.coeffs[0] >= 0 and D.coeffs[1] >= 0
    if surface.r == 0:
        return D.coeffs[0] >= 0
    if surface.r == 1:
        a, c1 = D.coeffs
        return a >= 0 and a + c1 >= 0  # D.l >= 0 and D.f >= 0
    return line_monoid_member(D)


def oracle_sample(surface):
    """Small classes: all of [-5, 5]^2 on the quadric; on X_r, sorted multiplicity
    vectors in [-2, 3] with l-coefficient in [-2, 8 - r] and degree in [-3, 9]
    (the search's cost grows fast with the l-coefficient on X5 and X6)."""
    if surface.r is None:
        return [DivisorClass(surface, (a, b)) for a in range(-5, 6) for b in range(-5, 6)]
    r = surface.r
    sample = (
        DivisorClass(surface, (a, *(-x for x in b)))
        for a in range(-2, 9 - r)
        for b in itertools.combinations_with_replacement(range(3, -3, -1), r)
    )
    return [D for D in sample if -3 <= degree(D) <= 9]


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_effectivity_agrees_with_oracle(surface):
    sample = oracle_sample(surface)
    verdicts = [is_effective(D) for D in sample]
    assert verdicts == [effective_by_oracle(D) for D in sample]
    assert any(verdicts) and not all(verdicts)


def test_effectivity_beyond_the_search():
    k = 3000
    assert is_effective(DivisorClass(X6, (3 * k,) + (-k,) * 6))  # k*H
    a = 1000
    for surface in (X2, X3, X6):
        D = DivisorClass(surface, (a, -a - 1) + (0,) * (surface.r - 1))
        nef = parse_divisor(surface, "l-e1")
        assert all(intersect(nef, L.divisor) >= 0 for L in enumerate_lines(surface))
        assert intersect(D, nef) == -1  # certificate: D meets a nef class negatively
        assert not is_effective(D)


# --- the former rules on the boundary band, beyond the line-monoid search -------------


def former_cone_generators(surface):
    """l on X0, e1 and l-e1 on X1, h and m on the quadric, the (-1)-lines for r >= 2."""
    if surface.r in (None, 0):
        return units(surface)
    if surface.r == 1:
        l, e1 = units(surface)
        return (e1, l - e1)
    return tuple(L.divisor for L in enumerate_lines(surface))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_effectivity_and_very_ampleness_agree_with_the_former_rules(r):
    """The former dual-cone rule (D.N >= 0 for the conics and twisted cubics, which generate the nef cone) and
    the very-ample rule (D.G > 0 for every generator G of the effective cone), on sorted multiplicity vectors
    in [-4, 5] with l-coefficient in [-3, 15] and degree in [-3, 9]: the band along the boundary of the
    effective cone, beyond the l-coefficient 8 - r that the line-monoid search reaches."""
    surface = SurfaceModel(r)
    sample = [
        DivisorClass(surface, (a, *(-x for x in b)))
        for a in range(-3, 16)
        for b in itertools.combinations_with_replacement(range(5, -5, -1), r)
        if -3 <= 3 * a - sum(b) <= 9
    ]
    verdicts = [is_effective(D) for D in sample]
    assert verdicts == [all(p >= 0 for p in former_products(D, (2, 3))) for D in sample]
    assert any(verdicts) and not all(verdicts)
    generators = former_cone_generators(surface)  # e1 and l-e1 on X1, the lines for r >= 2
    ample = [is_very_ample(D) for D in sample]
    assert ample == [all(intersect(D, G) > 0 for G in generators) for D in sample]
    assert any(ample)


def test_low_degree_acm_classes():
    """Lines are the ACM classes of degree 1; the conics and twisted cubics
    (degrees 2 and 3), which generate the nef cone, are nef."""
    counts = {"X0": 1, "X1": 2, "X2": 3, "X3": 5, "X4": 10, "X5": 26, "X6": 99, "Q": 2}
    for surface in ALL_SURFACES:
        catalog = enumerate_acm(surface)
        lines = {L.divisor for L in enumerate_lines(surface)}
        assert {N for N in catalog if degree(N) == 1} == lines
        nef_rays = [N for N in catalog if degree(N) in (2, 3)]
        assert len(nef_rays) == counts[surface.name]
        assert all(intersect(N, L) >= 0 for N in nef_rays for L in lines)


# --- positivity by the chamber walk, against the former test on every row ----------


@functools.lru_cache(maxsize=None)
def former_pairing_rows(surface, degrees):
    """(N.u for u in the basis) for every ACM class N of the given degrees:
    the rows the positivity tests read before they read one row per S_r-orbit, then the chamber walk."""
    return [tuple(intersect(N, u) for u in units(surface)) for c in degrees for N in classes_of_degree(surface, c)]


def former_products(D, degrees):
    """D.N for every ACM class N of the given degrees, one dot product per row, as they are read."""
    return (sum(map(mul, D.coeffs, row)) for row in former_pairing_rows(D.surface, degrees))


def positivity_box(surface):
    """Seeded classes with coefficients in [-6, 6], their negatives, multiples
    of H, and 10^100 times classes of the box plus a small perturbation."""
    rng = random.Random(f"positivity {surface.name}")
    small = [DivisorClass(surface, [rng.randint(-6, 6) for _ in range(surface.rank)]) for _ in range(300)]
    nudge = [DivisorClass(surface, [rng.randint(-2, 2) for _ in range(surface.rank)]) for _ in range(100)]
    huge = [10**100 * D + E for D, E in zip(small, nudge)]
    multiples = [k * surface.hyperplane for k in (0, 1, 2, 10**100)]
    return small + [-D for D in small] + multiples + huge + [-D for D in huge]


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_positivity_agrees_with_the_former_full_rows(surface):
    """least_product is the least product over every class of the generators' degrees: the lines for r >= 2,
    the lines and conics on X1, the conics on Q; on X0 it is D.H/3, the product with l."""
    sample = positivity_box(surface)
    if surface.name == "X0":
        assert [3 * least_product(D) for D in sample] == [degree(D) for D in sample]
    else:
        degrees = {"X1": (1, 2), "Q": (2,)}.get(surface.name, (1,))
        assert [least_product(D) for D in sample] == [min(former_products(D, degrees)) for D in sample]
    effective = [is_effective(D) for D in sample]
    assert effective == [all(p >= 0 for p in former_products(D, (2, 3))) for D in sample]
    assert any(effective) and not all(effective)
    if surface.r not in (None, 0):
        ample = [is_very_ample(D) for D in sample]
        assert ample == [all(p > 0 for p in former_products(D, (1, 2))) for D in sample]
        assert any(ample) and not all(ample)
    for D, eff in zip(sample, effective):
        if eff and not D.is_zero:
            assert has_smooth_nonline_member(D) == all(p >= 0 for p in former_products(D, (1,)))
        else:
            with pytest.raises(PreconditionViolated):
                has_smooth_nonline_member(D)


def simple_root_coefficients(v):
    """(n_0, n_1, ..., n_{r-1}) with v = n_0 (l-e1-e2-e3) + sum n_i (e_i - e_{i+1}), by a triangular solve:
    the l-coefficient gives n_0, then the e_k-coefficient c_k = n_k - [k > 1] n_{k-1} - [k <= 3] n_0 gives n_k."""
    a, *c = v
    n = [a]
    for k in range(1, len(c) + 1):
        n.append(c[k - 1] + (n[k - 1] if k > 1 else 0) + (a if k <= 3 else 0))
    assert n.pop() == 0, v  # the e_r-coefficient closes the system: there is no root e_r - e_{r+1}
    return n


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_every_line_minus_e_r_is_a_nonnegative_sum_of_simple_roots(r):
    """Step 3 of least_product's argument: on a dominant class every line meets it at least as much as e_r."""
    surface = SurfaceModel(r)
    roots = [parse_divisor(surface, "l-e1-e2-e3")] + [parse_divisor(surface, f"e{i}-e{i + 1}") for i in range(1, r)]
    e_r = parse_divisor(surface, f"e{r}")
    for L in enumerate_lines(surface):
        n = simple_root_coefficients((L.divisor - e_r).coeffs)
        assert sum((k * alpha for k, alpha in zip(n, roots)), e_r) == L.divisor
        assert min(n) >= 0, L.label


@given(data=st.data())
def test_least_product_is_invariant_under_the_simple_reflections(data):
    surface = data.draw(st.sampled_from([SurfaceModel(r) for r in range(3, 7)]), label="surface")
    scale = data.draw(st.sampled_from([1, 10**100]), label="scale")
    a, *tail = (scale * x for x in data.draw(st.tuples(*[st.integers(-9, 9)] * surface.rank)))
    D = DivisorClass(surface, (a, *tail))
    alpha = parse_divisor(surface, "l-e1-e2-e3")
    permuted = DivisorClass(surface, (a, *data.draw(st.permutations(tail), label="tail")))
    assert least_product(D) == least_product(permuted) == least_product(D + intersect(D, alpha) * alpha)


def expected_fixed_part(D):
    """sum (-D.L) L over the lines L with D.L < 0, and those lines."""
    negative = [L.divisor for L in enumerate_lines(D.surface) if intersect(D, L.divisor) < 0]
    zero = DivisorClass(D.surface, (0,) * D.surface.rank)
    return sum((-intersect(D, L) * L for L in negative), zero), negative


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_moving_part_is_the_zariski_decomposition_on_the_box(surface):
    """For every effective D: P is nef (it meets the former cone generators, every line among them,
    nonnegatively), D - P is the round's fixed part, orthogonal to P, h^0(D) = chi(P), and D has a smooth
    member without line components exactly when it has no fixed part.  Otherwise h^0(D) = 0."""
    generators = former_cone_generators(surface)
    effective = with_fixed_part = 0
    for D in positivity_box(surface):
        P = geometry.moving_part(D)
        assert (P is not None) == is_effective(D)
        if P is None:
            assert cohomology(D)[0] == 0
            continue
        effective += 1
        with_fixed_part += P != D
        assert all(intersect(P, G) >= 0 for G in generators)
        fixed, negative = expected_fixed_part(D)
        assert D - P == fixed
        assert all(intersect(P, L) == 0 for L in negative)
        assert cohomology(D)[0] == euler_characteristic(P)
        if not D.is_zero:
            assert has_smooth_nonline_member(D) == (P == D)
    assert effective > 0
    assert (with_fixed_part > 0) == (surface.r not in (None, 0))  # X0 and Q have no lines


@given(data=st.data())
def test_permuting_the_tail_changes_no_verdict(data):
    surface = data.draw(st.sampled_from([SurfaceModel(r) for r in range(1, 7)]), label="surface")
    scale = data.draw(st.sampled_from([1, 10**100]), label="scale")
    coeffs = [scale * x for x in data.draw(st.tuples(st.integers(-2, 12), *[st.integers(-4, 3)] * surface.r))]
    tail = data.draw(st.permutations(coeffs[1:]), label="tail")

    def verdicts(D):
        effective = is_effective(D)
        smooth = has_smooth_nonline_member(D) if effective and not D.is_zero else None
        return effective, is_very_ample(D), smooth

    assert verdicts(DivisorClass(surface, coeffs)) == verdicts(DivisorClass(surface, (coeffs[0], *tail)))


# --- very ample / smooth members -------------------------------------------------


def test_very_ample_examples():
    assert is_very_ample(X6.hyperplane)
    assert not is_very_ample(parse_divisor(X1, "f"))
    assert not is_very_ample(parse_divisor(X2, "l-e1-e2"))
    for r in range(1, 7):
        assert is_very_ample(SurfaceModel(r).hyperplane)


def test_very_ample_out_of_scope():
    """The criterion is stated for blow-ups of 1..6 points only: None on the plane and the quadric."""
    for surface, text in ((X0, "l"), (Q, "h+m")):
        assert {is_very_ample(D) for D in [parse_divisor(surface, text), *positivity_box(surface)]} == {None}


def test_smooth_member_examples():
    assert has_smooth_nonline_member(parse_divisor(X1, "f"))
    assert not has_smooth_nonline_member(parse_divisor(X1, "e1"))
    for surface in ALL_SURFACES:
        assert has_smooth_nonline_member(surface.hyperplane)


def test_smooth_member_preconditions():
    with pytest.raises(PreconditionViolated):
        has_smooth_nonline_member(DivisorClass(X3, (0, 0, 0, 0)))
    with pytest.raises(PreconditionViolated):
        has_smooth_nonline_member(parse_divisor(X3, "-l"))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@given(data=st.data())
def test_very_ample_implies_smooth_member(r, data):
    surface = SurfaceModel(r)
    D = DivisorClass(surface, data.draw(st.tuples(*([st.integers(-6, 6)] * surface.rank))))
    if is_very_ample(D):
        assert has_smooth_nonline_member(D)


def test_very_ample_implies_smooth_member_spot_checks():
    for D in (X3.hyperplane, 2 * X3.hyperplane, parse_divisor(X3, "3l-e1-e2-e3")):
        assert is_very_ample(D)
        assert has_smooth_nonline_member(D)


# --- cohomology ---------------------------------------------------------------------

PRIME = 2**31 - 1


def rank_mod_p(rows, ncols):
    """Rank of an integer matrix modulo PRIME, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], PRIME - 2, PRIME)
        top = rows[rank] = [x * inverse % PRIME for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % PRIME for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def interpolation_h0(D, points):
    """h^0 of a*l + sum c_i e_i on the blow-up of the plane at the points: the
    plane curves of degree a, in the chart z = 1, that vanish to order
    max(-c_i, 0) at point i, counted as monomials less the rank of the
    vanishing conditions modulo PRIME.  Random points mod PRIME are general
    with high probability."""
    a, *tail = D.coeffs
    if a < 0:
        return 0
    monomials = [(i, j) for i in range(a + 1) for j in range(a + 1 - i)]
    rows = [
        [comb(i, s) * comb(j, t) * pow(u, i - s, PRIME) * pow(v, j - t, PRIME) % PRIME if i >= s and j >= t else 0
         for i, j in monomials]
        for (u, v), c in zip(points, tail)
        for s in range(-c)
        for t in range(-c - s)
    ]
    return len(monomials) - rank_mod_p(rows, len(monomials))


def test_h0_agrees_with_plane_interpolation():
    """Classes of degree 0..8: sorted tails in [-3, 1] with l-coefficient in
    [-1, 4] on X1..X6, against interpolation at seeded random points;
    C(a+2, 2) on X0 and (a+1)(b+1) on Q."""
    rng = random.Random(2010)
    checked = 0
    for r in range(1, 7):
        surface = SurfaceModel(r)
        points = [(rng.randrange(PRIME), rng.randrange(PRIME)) for _ in range(r)]
        for a in range(-1, 5):
            for tail in itertools.combinations_with_replacement(range(-3, 2), r):
                D = DivisorClass(surface, (a, *tail))
                if 0 <= degree(D) <= 8:
                    assert cohomology(D)[0] == interpolation_h0(D, points), D
                    checked += 1
    for a in range(-3, 3):
        assert cohomology(DivisorClass(X0, (a,)))[0] == (comb(a + 2, 2) if a >= 0 else 0)
        checked += 1
    for a, b in itertools.product(range(-2, 5), repeat=2):
        if a + b <= 4:
            assert cohomology(DivisorClass(Q, (a, b)))[0] == ((a + 1) * (b + 1) if min(a, b) >= 0 else 0)
            checked += 1
    assert checked >= 250


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
@settings(max_examples=200)
@given(data=st.data())
def test_cohomology_properties_on_the_box(surface, data):
    """Serre symmetry, h^0 - h^1 + h^2 = chi, h^0 = 0 in negative degree,
    and h^0 monotone under adding a line, for coefficients in [-6, 6]."""
    D = DivisorClass(surface, data.draw(st.tuples(*[st.integers(-6, 6)] * surface.rank), label="coeffs"))
    h0, h1, h2 = cohomology(D)
    assert cohomology(surface.canonical - D) == (h2, h1, h0)
    assert h0 - h1 + h2 == euler_characteristic(D)
    if degree(D) < 0:
        assert h0 == 0
    assert all(cohomology(D + L.divisor)[0] >= h0 for L in enumerate_lines(surface))


def test_cohomology_examples():
    assert cohomology(DivisorClass(X6, (0, 0, 0, 0, 0, 0, 0))) == (1, 0, 0)
    assert cohomology(X6.canonical) == (0, 0, 1)
    assert cohomology(parse_divisor(X2, "2l-2e1-2e2")) == (1, 1, 0)  # a double line: O_L(-2) has h^1 = 1
    assert cohomology(parse_divisor(X2, "e1-e2")) == (0, 0, 0)  # degree 0, not effective
    assert cohomology(parse_divisor(Q, "2h-2m")) == (0, 3, 0)  # Kunneth: h^0(O(2)) h^1(O(-2)) on P1 x P1


def test_a_moving_part_that_meets_a_line_is_an_internal_error(monkeypatch):
    """Were every class its own moving part, l-3e1 (degree 0, not effective) would get h^0 = h^2 = chi = -3,
    and Riemann-Roch h^1 = -3: the guard that remains is cohomology's negative h^1."""
    monkeypatch.setattr(geometry, "moving_part", lambda D: D)
    with pytest.raises(InternalError, match="negative h\\^1 for l-3e1"):
        cohomology(parse_divisor(X2, "l-3e1"))


# --- alternative base and decomposition ------------------------------------------


def _det(matrix):
    # fraction-free Gaussian elimination (Bareiss); exact for integer input
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((k for k in range(col, n) if a[k][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for k in range(col + 1, n):
            factor = a[k][col] / a[col][col]
            for j in range(col, n):
                a[k][j] -= factor * a[col][j]
    return det


def test_alternative_base_x2():
    base = alternative_base(X2)
    assert [str(D) for D in base] == ["l", "l-e1", "2l-e1-e2"]


def test_alternative_base_last_entry_is_h_on_x6():
    assert alternative_base(X6)[-1] == X6.hyperplane


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_alternative_base_change_is_unimodular(r):
    base = alternative_base(SurfaceModel(r))
    assert abs(_det([D.coeffs for D in base])) == 1


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_alternative_base_effective_and_nef(r):
    for D in alternative_base(SurfaceModel(r)):
        assert is_effective(D)
        assert has_smooth_nonline_member(D)  # base-point free, in particular


def test_alternative_base_out_of_scope():
    with pytest.raises(UnsupportedSurface):
        alternative_base(X1)
    with pytest.raises(UnsupportedSurface):
        alternative_base(Q)


def test_decompose_simple_cases():
    dec = decompose(parse_divisor(X2, "l"))
    assert dec.alphas == (1, 0, 0)
    assert dec.permutation == (1, 2)
    # H = D0 + D3 on the cubic: alpha_0 = H.F12 = 1
    dec = decompose(X3.hyperplane)
    assert dec.alphas == (1, 0, 0, 1)
    assert dec.reconstruct() == X3.hyperplane


def test_decompose_uses_minimising_lines_for_r5():
    D = parse_divisor(X5, "3l-2e1-e2-e3-e4-e5")
    dec = decompose(D)
    assert dec.reconstruct() == D
    assert dec.alphas[0] >= 0
    assert dec.permutation is None  # the frame mixes in F-lines


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@given(data=st.data())
def test_decompose_reconstruction(r, data):
    surface = SurfaceModel(r)
    D = DivisorClass(surface, data.draw(st.tuples(*([st.integers(-10, 10)] * surface.rank))))
    dec = decompose(D)
    assert dec.reconstruct() == D
    assert 3 * dec.line_class == sum(dec.exceptional, surface.hyperplane)
    assert all(alpha >= 0 for alpha in dec.alphas[1:-1])
    assert dec.alphas[-1] == intersect(D, dec.exceptional[-1])
    if r >= 5:
        assert dec.alphas[0] >= 0
    else:  # the standard frame, sorted by non-increasing multiplicity D.e_i, ties in index order
        assert dec.line_class == units(surface)[0]
        assert dec.permutation == tuple(sorted(range(1, r + 1), key=lambda i: (-intersect(D, units(surface)[i]), i)))


def test_decompose_out_of_scope():
    with pytest.raises(UnsupportedSurface):
        decompose(parse_divisor(X1, "l"))


# --- frames read off the twisted cubics ------------------------------------------

CUBIC_COUNTS = {2: 1, 3: 2, 4: 5, 5: 16, 6: 72}


def former_complete_disjoint(chosen, pool, want):
    """The depth-first frame search decompose used before reading frames off
    the twisted cubics: the first completion in the canonical line order."""
    if len(chosen) == want:
        return chosen
    for k, cand in enumerate(pool):
        if all(intersect(cand, c) == 0 for c in chosen):
            found = former_complete_disjoint(chosen + [cand], pool[k + 1 :], want)
            if found is not None:
                return found
    return None


@pytest.mark.parametrize("r", sorted(CUBIC_COUNTS))
def test_each_twisted_cubic_is_the_line_class_of_its_frame(r):
    surface = SurfaceModel(r)
    lines = [L.divisor for L in enumerate_lines(surface)]
    cubics = classes_of_degree(surface, 3)
    assert len(cubics) == CUBIC_COUNTS[r]
    for N in cubics:
        assert (degree(N), intersect(N, N)) == (3, 1)
        frame = [L for L in lines if intersect(L, N) == 0]
        assert len(frame) == r
        assert all(intersect(L, M) == 0 for L, M in itertools.combinations(frame, 2))
        assert sum(frame, surface.hyperplane) == 3 * N


@pytest.mark.parametrize("r, ordered_pairs", [(5, 160), (6, 432)])
def test_every_disjoint_pair_of_lines_lies_in_a_frame(r, ordered_pairs):
    """The cubics orthogonal to a disjoint pair are those of the surface the
    pair contracts to, X(r-2); the one whose other lines come first, which
    decompose picks, is the depth-first completion."""
    surface = SurfaceModel(r)
    lines = [L.divisor for L in enumerate_lines(surface)]
    frames = [[k for k, L in enumerate(lines) if intersect(L, N) == 0] for N in classes_of_degree(surface, 3)]
    pairs = [(i, j) for i, j in itertools.permutations(range(len(lines)), 2) if intersect(lines[i], lines[j]) == 0]
    assert len(pairs) == ordered_pairs
    for i, j in pairs:
        others = [[k for k in f if k not in (i, j)] for f in frames if i in f and j in f]
        assert len(others) == CUBIC_COUNTS[r - 2]
        rest = [L for k, L in enumerate(lines) if k not in (i, j)]
        completion = former_complete_disjoint([lines[i], lines[j]], rest, r)
        assert [lines[k] for k in min(others)] == completion[2:]
