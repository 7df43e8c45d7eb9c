import itertools
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, strategies as st

from delpezzo import (
    PreconditionViolated,
    UnsupportedSurface,
    arithmetic_genus,
    blow_up,
    degree,
    divisor,
    from_multiplicities,
    hyperplane,
    intersect,
    parse_divisor,
    quadric,
    self_intersection,
    zero_class,
)
from delpezzo.acm import enumerate_acm
from delpezzo.geometry import (
    alternative_base,
    decompose,
    enumerate_lines,
    has_smooth_nonline_member,
    is_effective,
    is_very_ample,
)

from paper_values import LINE_COUNTS

X0, X1, X2, X3, X5, X6 = (blow_up(r) for r in (0, 1, 2, 3, 5, 6))
Q = quadric()
ALL_SURFACES = [blow_up(r) for r in range(7)] + [Q]


def comb(n, k):
    import math

    return math.comb(n, k)


# --- line enumeration ---------------------------------------------------------


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_line_counts(surface):
    lines = enumerate_lines(surface)
    assert len(lines) == LINE_COUNTS[surface.name]
    if surface.kind == "blowup":
        r = surface.r
        assert len(lines) == r + comb(r, 2) + comb(r, 5)


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_line_invariants(surface):
    lines = enumerate_lines(surface)
    assert len({L.divisor for L in lines}) == len(lines)
    for L in lines:
        assert self_intersection(L.divisor) == -1
        assert degree(L.divisor) == 1
        assert arithmetic_genus(L.divisor) == 0


def test_lines_on_two_point_blowup():
    got = {str(L.divisor) for L in enumerate_lines(X2)}
    assert got == {"e1", "e2", "l-e1-e2"}


def formula_lines(surface):
    """The lines written out, in the order E1..Er < F12 < F13 < ... < G/G1..G6:
    e_i, l - e_i - e_j, 2l - e1 - ... - e5 on X5 and 2l minus five of e1..e6 on X6."""
    if surface.kind == "quadric" or surface.r == 0:
        return []
    l, *e = surface.units
    r = surface.r
    lines = [(f"E{i + 1}", e[i]) for i in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        lines.append((f"F{i + 1}{j + 1}", l - e[i] - e[j]))
    if r == 5:
        lines.append(("G", 2 * l - sum(e, zero_class(surface))))
    if r == 6:
        for j in range(6):
            lines.append((f"G{j + 1}", 2 * l - sum((e[i] for i in range(6) if i != j), zero_class(surface))))
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
            D = divisor(X1, a, c1)
            assert is_effective(D) == (intersect(D, f) >= 0 and intersect(D, l) >= 0)


def test_effectivity_quadric_closed_form():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert is_effective(divisor(Q, a, b)) == (a >= 0 and b >= 0)


def test_effectivity_monoid_cases():
    assert is_effective(hyperplane(X6))
    assert is_effective(zero_class(X6))
    assert not is_effective(-1 * parse_divisor(X2, "e1"))
    assert not is_effective(parse_divisor(X2, "e1-e2"))  # degree 0, nonzero
    assert not is_effective(parse_divisor(X3, "l-e1-e2-e3"))
    assert is_effective(parse_divisor(X6, "5l+e1+e2+e3+e4+e5+e6"))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@given(data=st.data())
def test_effectivity_lemma_consistency(r, data):
    # any class with D^2 = D.H - 2 and D.H > 0 must pass the cone search
    surface = blow_up(r)
    a = data.draw(st.integers(0, 5))
    b = data.draw(st.tuples(*([st.integers(-1, 3)] * r)))
    D = divisor(surface, a, *(-x for x in b))
    if self_intersection(D) == degree(D) - 2 and degree(D) > 0:
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
    if surface.kind == "quadric":
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
    if surface.kind == "quadric":
        return [divisor(surface, a, b) for a in range(-5, 6) for b in range(-5, 6)]
    r = surface.r
    sample = (
        from_multiplicities(surface, a, b)
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
    assert is_effective(from_multiplicities(X6, 3 * k, (k,) * 6))  # k*H
    a = 1000
    for surface in (X2, X3, X6):
        D = from_multiplicities(surface, a, (a + 1,) + (0,) * (surface.r - 1))
        nef = parse_divisor(surface, "l-e1")
        assert all(intersect(nef, L.divisor) >= 0 for L in enumerate_lines(surface))
        assert intersect(D, nef) == -1  # certificate: D meets a nef class negatively
        assert not is_effective(D)


# --- the former rule, nef reduction, as an oracle for larger classes --------------


def former_cone_generators(surface):
    """l on X0, e1 and l-e1 on X1, h and m on the quadric, the (-1)-lines for r >= 2."""
    if surface.kind == "quadric" or surface.r == 0:
        return surface.units
    if surface.r == 1:
        l, e1 = surface.units
        return (e1, l - e1)
    return tuple(L.divisor for L in enumerate_lines(surface))


def nef_reduction(D):
    """Effectivity by nef reduction, on coefficient vectors: while a generator
    N with N^2 < 0 has D.N = -k < 0, subtract the fixed component kN; then D
    is effective iff deg D >= 0 and it meets every generator nonnegatively.
    Each step removes one line, so the cost grows linearly with the
    coefficients."""
    surface = D.surface
    generators = [G.coeffs for G in former_cone_generators(surface)]
    c = D.coeffs
    while sum(map(mul, c, surface.degree_vector)) >= 0:
        for N in generators:
            k = -surface.pair(c, N)
            if k > 0 and surface.pair(N, N) < 0:
                c = tuple(x - k * n for x, n in zip(c, N))
                break
        else:
            return all(surface.pair(c, G) >= 0 for G in generators)
    return False


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_effectivity_and_very_ampleness_agree_with_the_former_rules(r):
    """Sorted multiplicity vectors in [-4, 5] with l-coefficient in [-3, 15]
    and degree in [-3, 9], the band along the boundary of the effective
    cone where nef reduction takes the most steps; the line-monoid search
    reaches l-coefficient 8 - r only."""
    surface = blow_up(r)
    sample = [
        from_multiplicities(surface, a, b)
        for a in range(-3, 16)
        for b in itertools.combinations_with_replacement(range(5, -5, -1), r)
        if -3 <= 3 * a - sum(b) <= 9
    ]
    verdicts = [is_effective(D) for D in sample]
    assert verdicts == [nef_reduction(D) for D in sample]
    assert any(verdicts) and not all(verdicts)
    generators = former_cone_generators(surface)  # e1 and l-e1 on X1, the lines for r >= 2
    ample = [is_very_ample(D) for D in sample]
    assert ample == [all(intersect(D, G) > 0 for G in generators) for D in sample]
    assert any(ample)


def test_low_degree_acm_classes():
    """Lines are the ACM classes of degree 1; the conics and twisted cubics
    (degrees 2 and 3), which decide effectivity, are nef."""
    counts = {"X0": 1, "X1": 2, "X2": 3, "X3": 5, "X4": 10, "X5": 26, "X6": 99, "Q": 2}
    for surface in ALL_SURFACES:
        catalog = enumerate_acm(surface)
        lines = {L.divisor for L in enumerate_lines(surface)}
        assert {N for N in catalog if degree(N) == 1} == lines
        nef_rays = [N for N in catalog if degree(N) in (2, 3)]
        assert len(nef_rays) == counts[surface.name]
        assert all(intersect(N, L) >= 0 for N in nef_rays for L in lines)


# --- very ample / smooth members -------------------------------------------------


def test_very_ample_examples():
    assert is_very_ample(hyperplane(X6))
    assert not is_very_ample(parse_divisor(X1, "f"))
    assert not is_very_ample(parse_divisor(X2, "l-e1-e2"))
    for r in range(1, 7):
        assert is_very_ample(hyperplane(blow_up(r)))


def test_very_ample_out_of_scope():
    with pytest.raises(UnsupportedSurface):
        is_very_ample(parse_divisor(X0, "l"))
    with pytest.raises(UnsupportedSurface):
        is_very_ample(parse_divisor(Q, "h+m"))


def test_smooth_member_examples():
    assert has_smooth_nonline_member(parse_divisor(X1, "f"))
    assert not has_smooth_nonline_member(parse_divisor(X1, "e1"))
    for surface in ALL_SURFACES:
        assert has_smooth_nonline_member(hyperplane(surface))


def test_smooth_member_preconditions():
    with pytest.raises(PreconditionViolated):
        has_smooth_nonline_member(zero_class(X3))
    with pytest.raises(PreconditionViolated):
        has_smooth_nonline_member(parse_divisor(X3, "-l"))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@given(data=st.data())
def test_very_ample_implies_smooth_member(r, data):
    surface = blow_up(r)
    D = divisor(surface, *data.draw(st.tuples(*([st.integers(-6, 6)] * surface.rank))))
    if is_very_ample(D):
        assert has_smooth_nonline_member(D)


def test_very_ample_implies_smooth_member_spot_checks():
    for D in (hyperplane(X3), 2 * hyperplane(X3), parse_divisor(X3, "3l-e1-e2-e3")):
        assert is_very_ample(D)
        assert has_smooth_nonline_member(D)


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
    assert alternative_base(X6)[-1] == hyperplane(X6)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_alternative_base_change_is_unimodular(r):
    base = alternative_base(blow_up(r))
    assert abs(_det([D.coeffs for D in base])) == 1


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_alternative_base_effective_and_nef(r):
    for D in alternative_base(blow_up(r)):
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
    dec = decompose(hyperplane(X3))
    assert dec.alphas == (1, 0, 0, 1)
    assert dec.reconstruct() == hyperplane(X3)


def test_decompose_uses_minimising_lines_for_r5():
    D = parse_divisor(X5, "3l-2e1-e2-e3-e4-e5")
    dec = decompose(D)
    assert dec.reconstruct() == D
    assert dec.alphas[0] >= 0
    assert dec.permutation is None  # the frame mixes in F-lines


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@given(data=st.data())
def test_decompose_reconstruction(r, data):
    surface = blow_up(r)
    D = divisor(surface, *data.draw(st.tuples(*([st.integers(-10, 10)] * surface.rank))))
    dec = decompose(D)
    assert dec.reconstruct() == D
    assert all(alpha >= 0 for alpha in dec.alphas[1:-1])
    assert dec.alphas[-1] == intersect(D, dec.exceptional[-1])
    if r >= 5:
        assert dec.alphas[0] >= 0


def test_decompose_out_of_scope():
    with pytest.raises(UnsupportedSurface):
        decompose(parse_divisor(X1, "l"))
