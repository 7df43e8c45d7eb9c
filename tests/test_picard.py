import copy
import pickle
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from delpezzo import (
    SURFACE_NAMES,
    DivisorClass,
    DivisorParseError,
    SurfaceMismatch,
    SurfaceModel,
    arithmetic_genus,
    degree,
    euler_characteristic,
    format_divisor,
    intersect,
    parse_divisor,
    surface_from_name,
)
from delpezzo import picard

from paper_values import RuledCoords, from_ruled, to_ruled

ALL_SURFACES = [SurfaceModel(r) for r in range(7)] + [SurfaceModel(None)]

X0, X1, X2, X3, X6 = (SurfaceModel(r) for r in (0, 1, 2, 3, 6))
Q = SurfaceModel(None)


def vectors(surface, bound=10):
    return st.tuples(*([st.integers(-bound, bound)] * surface.rank))


# --- intersection pairing ---------------------------------------------------


def test_pairing_on_generators():
    l = DivisorClass(X3, (1, 0, 0, 0))
    e1 = DivisorClass(X3, (0, 1, 0, 0))
    e2 = DivisorClass(X3, (0, 0, 1, 0))
    assert intersect(l, l) == 1
    assert intersect(e1, e1) == -1
    assert intersect(e1, e2) == 0
    assert intersect(l, e1) == 0


def test_pairing_wild_pair_value():
    C = parse_divisor(X3, "3l-2e1-e2")
    D = parse_divisor(X3, "3l-2e2-e3")
    assert intersect(C, D) == 7


def test_pairing_quadric():
    h = DivisorClass(Q, (1, 0))
    m = DivisorClass(Q, (0, 1))
    assert intersect(h, m) == 1
    assert intersect(h, h) == 0
    assert intersect(m, m) == 0


def test_pairing_surface_mismatch():
    with pytest.raises(SurfaceMismatch):
        intersect(DivisorClass(X2, (1, 0, 0)), DivisorClass(X3, (1, 0, 0, 0)))


def test_sum_and_difference_surface_mismatch():
    """X1 and Q both have rank 2, so only the surface check keeps h from being read as l."""
    l, h = DivisorClass(X1, (1, 0)), DivisorClass(Q, (1, 0))
    with pytest.raises(SurfaceMismatch, match="different surfaces: X1 vs Q"):
        l + h
    with pytest.raises(SurfaceMismatch, match="different surfaces: Q vs X1"):
        h - l


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
@given(data=st.data())
def test_pairing_symmetric_bilinear(surface, data):
    u = DivisorClass(surface, data.draw(vectors(surface)))
    v = DivisorClass(surface, data.draw(vectors(surface)))
    w = DivisorClass(surface, data.draw(vectors(surface)))
    n = data.draw(st.integers(-5, 5))
    assert intersect(u, v) == intersect(v, u)
    assert intersect(u + v, w) == intersect(u, w) + intersect(v, w)
    assert intersect(n * u, w) == n * intersect(u, w)


def test_pairing_signature_is_diagonal():
    for surface in ALL_SURFACES:
        if surface.r is None:
            continue
        rank = surface.rank
        basis = [DivisorClass(surface, [1 if k == i else 0 for k in range(rank)]) for i in range(rank)]
        gram = [[intersect(a, b) for b in basis] for a in basis]
        expected = [[0] * rank for _ in range(rank)]
        expected[0][0] = 1
        for i in range(1, rank):
            expected[i][i] = -1
        assert gram == expected


# --- canonical class, hyperplane, degree ------------------------------------


def test_canonical_class_values():
    assert X0.canonical == parse_divisor(X0, "-3l")
    assert X6.canonical == parse_divisor(X6, "-3l+e1+e2+e3+e4+e5+e6")
    assert Q.canonical == parse_divisor(Q, "-2h-2m")


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_canonical_self_intersection_is_degree(surface):
    K = surface.canonical
    assert intersect(K, K) == surface.degree


def test_hyperplane_values():
    assert X1.hyperplane == parse_divisor(X1, "3l-e1")
    assert X0.hyperplane == parse_divisor(X0, "3l")
    assert Q.hyperplane == parse_divisor(Q, "2h+2m")
    for surface in ALL_SURFACES:
        H = surface.hyperplane
        assert intersect(H, H) == surface.degree


def test_degree_examples():
    assert degree(parse_divisor(X1, "e1")) == 1
    assert degree(parse_divisor(X2, "2l-e1-e2")) == 4
    assert degree(DivisorClass(X3, (0, 0, 0, 0))) == 0


# --- genus and Euler characteristic -----------------------------------------


def test_genus_examples():
    assert arithmetic_genus(parse_divisor(X0, "l")) == 0
    assert arithmetic_genus(parse_divisor(X0, "3l")) == 1
    for surface in ALL_SURFACES:
        for D in (DivisorClass(surface, (0,) * surface.rank), surface.hyperplane, -3 * surface.hyperplane):
            assert type(arithmetic_genus(D)) is int


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
@given(data=st.data())
def test_genus_adjunction_identity(surface, data):
    D = DivisorClass(surface, data.draw(vectors(surface)))
    K = surface.canonical
    assert arithmetic_genus(D) == 1 + (intersect(D, D) + intersect(D, K)) / 2


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_chi_of_structure_sheaf(surface):
    assert euler_characteristic(DivisorClass(surface, (0,) * surface.rank)) == 1


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_chi_of_minus_two_h(surface):
    assert euler_characteristic(-2 * surface.hyperplane) == surface.degree + 1


def test_chi_of_h_on_cubic():
    assert euler_characteristic(X3.hyperplane) == 7


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
@given(data=st.data())
def test_chi_closed_form(surface, data):
    D = DivisorClass(surface, data.draw(vectors(surface)))
    assert 2 * euler_characteristic(D) - 2 == intersect(D, D) + degree(D)


# --- ruled coordinates on X1: the grammar's C0 and f against the closed form ----------
# (from_ruled reads "aC0+bf" with parse_divisor, to_ruled is a*C0 + b*f = b*l - (b - a)*e1)


def test_ruled_examples():
    assert parse_divisor(X1, "C0") == parse_divisor(X1, "e1")
    assert parse_divisor(X1, "f") == parse_divisor(X1, "l-e1")
    assert from_ruled(RuledCoords(c0=1, f=1)) == parse_divisor(X1, "C0+f") == parse_divisor(X1, "l")
    assert from_ruled(RuledCoords(c0=2, f=3)) == parse_divisor(X1, "2C0+3f") == parse_divisor(X1, "3l-e1")
    assert from_ruled(RuledCoords(c0=0, f=0)) == DivisorClass(X1, (0, 0))
    assert to_ruled(parse_divisor(X1, "3l-e1")) == RuledCoords(c0=2, f=3)


@given(c0=st.integers(-10, 10), f=st.integers(-10, 10))
def test_ruled_round_trip(c0, f):
    coords = RuledCoords(c0, f)
    assert to_ruled(from_ruled(coords)) == coords


@given(a=st.integers(-10, 10), c1=st.integers(-10, 10))
def test_ruled_round_trip_other_way(a, c1):
    D = DivisorClass(X1, (a, c1))
    assert from_ruled(to_ruled(D)) == D


def test_ruled_wrong_surface():
    with pytest.raises(SurfaceMismatch):
        to_ruled(DivisorClass(X2, (1, 0, 0)))
    for surface in (X0, X2, Q):
        for text in ("C0", "f"):
            with pytest.raises(DivisorParseError, match="unknown basis symbol"):
                parse_divisor(surface, f"2{text}")


# --- text grammar -------------------------------------------------------------


def test_parse_basic_forms():
    assert parse_divisor(X3, "3l-2e1-e2") == DivisorClass(X3, (3, -2, -1, 0))
    assert parse_divisor(Q, "h+3m") == DivisorClass(Q, (1, 3))
    assert parse_divisor(X1, "2C0+3f") == DivisorClass(X1, (3, -1))
    assert parse_divisor(X2, "0") == DivisorClass(X2, (0, 0, 0))


def test_parse_whitespace_and_order():
    assert parse_divisor(X3, " - e2 + 3 l - 2 e1 ") == DivisorClass(X3, (3, -2, -1, 0))
    assert parse_divisor(X3, "-2e1+3l-e2") == parse_divisor(X3, "3l-2e1-e2")


def test_parse_duplicate_terms_summed():
    assert parse_divisor(X3, "l+l+l-e1-e1") == DivisorClass(X3, (3, -2, 0, 0))


def test_parse_errors_carry_position():
    with pytest.raises(DivisorParseError) as err:
        parse_divisor(X3, "3l-2e1-h")
    assert err.value.position == 7
    with pytest.raises(DivisorParseError):
        parse_divisor(X3, "e7")  # index out of range for the surface
    with pytest.raises(DivisorParseError):
        parse_divisor(X2, "C0")  # ruled basis exists only on X1
    with pytest.raises(DivisorParseError):
        parse_divisor(X3, "")
    with pytest.raises(DivisorParseError):
        parse_divisor(X3, "3l e1")
    with pytest.raises(DivisorParseError):
        parse_divisor(X3, "5")


# (surface, text, coefficients or (message, position)), recorded with the
# former character scanner
PARSE_TABLE = [
    (X3, "\xa0l -\x1ce1\xa0", (1, -1, 0, 0)),  # NBSP and U+001C are whitespace
    (X3, "3l\t-e1\t-e2", (3, -1, -1, 0)),
    (X1, "e01", (0, 1)),
    (X3, "- 12 e03", (0, 0, 0, -12)),
    (X3, "0", (0, 0, 0, 0)),
    (X3, "00l", (0, 0, 0, 0)),
    (X3, "l+0", (1, 0, 0, 0)),
    (Q, "0 h - 0", (0, 0)),
    (X3, "3e", ("coefficient 3 lacks a basis symbol", 1)),
    (X3, "3 + -l", ("coefficient 3 lacks a basis symbol", 2)),
    (X3, "l 3", ("unexpected '3' after term", 2)),
    (X3, "+", ("expected a term", 1)),
    (X3, "l+", ("expected a term", 2)),
    (X6, "e0", ("unknown basis symbol 'e0' on X6", 0)),
    (X3, "l - 2 e7", ("unknown basis symbol 'e7' on X3", 6)),
    (X3, " \t", ("empty divisor text", 2)),
]


@pytest.mark.parametrize("surface, text, expected", PARSE_TABLE, ids=[f"{s}:{t!r}" for s, t, _ in PARSE_TABLE])
def test_parse_table(surface, text, expected):
    if isinstance(expected[0], int):
        assert parse_divisor(surface, text).coeffs == expected
        return
    message, position = expected
    with pytest.raises(DivisorParseError) as err:
        parse_divisor(surface, text)
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


def test_parse_indices_longer_than_the_int_to_str_limit():
    # the index is looked up as text, so its length meets no int-to-str limit
    text = "e" + "1" * 5000
    with pytest.raises(DivisorParseError) as err:
        parse_divisor(X6, text)
    assert (str(err.value), err.value.position) == (f"unknown basis symbol {text!r} on X6 (at position 0)", 0)
    assert parse_divisor(X6, "e" + "0" * 4999 + "1").coeffs == (0, 1, 0, 0, 0, 0, 0)
    assert parse_divisor(X6, "e" + "0" * 4000 + "1") == parse_divisor(X6, "e1")


@pytest.mark.parametrize("text, position", [("²l", 0), ("٣l", 0), ("3l-²e1", 3), ("l+e١", 2)])
def test_parse_rejects_non_ascii_digits(text, position):
    with pytest.raises(DivisorParseError) as err:
        parse_divisor(X3, text)
    assert err.value.position == position


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
@given(data=st.data())
def test_format_parse_round_trip(surface, data):
    D = DivisorClass(surface, data.draw(vectors(surface)))
    assert parse_divisor(surface, format_divisor(D)) == D


def test_surface_names():
    assert surface_from_name("P2") == X0
    assert surface_from_name("x4") == SurfaceModel(4)
    assert surface_from_name("Q") == Q
    for name in ("X9", "X²", "X٣"):
        with pytest.raises(ValueError):
            surface_from_name(name)


# --- value types ----------------------------------------------------------------
# Classes and surfaces are keys of sets, dicts and caches everywhere; these pin
# the contract the rest of the engine relies on.


def test_divisor_class_equality_and_hash():
    D = DivisorClass(X3, (3, -2, -1, 0))
    assert D == DivisorClass(X3, (3, -2, -1, 0))
    assert hash(D) == hash(DivisorClass(X3, (3, -2, -1, 0)))
    assert len({D, DivisorClass(X3, (3, -2, -1, 0))}) == 1
    assert D != DivisorClass(X3, (3, -2, -1, 1))
    assert DivisorClass(X1, (1, 0)) != DivisorClass(Q, (1, 0))
    assert DivisorClass(X2, (0, 0, 0)) != DivisorClass(X3, (0, 0, 0, 0))


def test_divisor_class_never_equals_a_tuple():
    D = DivisorClass(X2, (1, -1, 0))
    assert D != (X2, (1, -1, 0))
    assert D != (1, -1, 0)
    assert (X2, (1, -1, 0)) != D


def test_surface_equality_and_hash():
    """One model per point count: a second call, the name, pickle and both copies return the same object."""
    for surface, name in zip(ALL_SURFACES, SURFACE_NAMES):
        assert SurfaceModel(surface.r) is surface
        assert surface_from_name(name) is surface
        assert pickle.loads(pickle.dumps(surface)) is surface
        assert copy.copy(surface) is surface and copy.deepcopy(surface) is surface
    assert len(set(ALL_SURFACES)) == 8
    assert SurfaceModel(3) != SurfaceModel(4)
    assert SurfaceModel(2) != SurfaceModel(None)
    assert SurfaceModel(3) != 3 and SurfaceModel(None) != None  # equal to no bare r


def test_concurrent_first_calls_return_one_model(monkeypatch):
    """Threads that build the same surfaces at once, from an empty store, all get the one model stored."""
    monkeypatch.setattr(picard, "_models", {})
    barrier = threading.Barrier(8)
    seen = []

    def build():
        barrier.wait(timeout=10)
        seen.append([SurfaceModel(r) for r in (*range(7), None)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(seen) == 8
    stored = [picard._models[r] for r in (*range(7), None)]
    assert all(a is b for models in seen for a, b in zip(models, stored, strict=True))


def test_value_types_are_immutable():
    D = DivisorClass(X3, (1, -1, 0, 0))
    with pytest.raises(AttributeError):
        D.coeffs = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        X3.degree = 5
    with pytest.raises(AttributeError):
        del D.surface
    assert D.coeffs == (1, -1, 0, 0) and X3.degree == 6


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ((1, 0), "expected 4 coefficients on X3, got 2"),
        ((1, 0, 0, 0, 0), "expected 4 coefficients on X3, got 5"),
        ((1, 0.0, 0, 0), "divisor coefficients must be integers"),
        ((1, "0", 0, 0), "divisor coefficients must be integers"),
        ([1, 0], "expected 4 coefficients on X3, got 2"),
        ([1, 0.0, 0, 0], "divisor coefficients must be integers"),
        ((True, False, False, False), "divisor coefficients must be integers"),
    ],
)
def test_divisor_class_validation_messages(coeffs, message):
    with pytest.raises(ValueError) as err:
        DivisorClass(X3, coeffs)
    assert str(err.value) == message


def test_a_list_of_coefficients_is_stored_as_a_tuple():
    """A caller's list is copied: the class equals and hashes as its tuple
    form, and editing the list afterwards does not reach the class."""
    coeffs = [1, 0]
    D, E = DivisorClass(X1, coeffs), DivisorClass(X1, (1, 0))
    assert type(D.coeffs) is tuple
    assert D == E and hash(D) == hash(E) and len({D, E}) == 1
    coeffs[0] = 5
    assert D.coeffs == (1, 0) and str(D) == "l" and D == E


def test_point_counts_build_the_eight_surfaces():
    """0..6 build X0..X6 and None the quadric, each with the name, rank and degree its point count gives."""
    built = [SurfaceModel(r) for r in (*range(7), None)]
    assert [S.name for S in built] == [f"X{r}" for r in range(7)] + ["Q"]
    assert [(S.rank, S.degree) for S in built] == [(r + 1, 9 - r) for r in range(7)] + [(2, 8)]
    assert built == ALL_SURFACES


@pytest.mark.parametrize("r", [True, 3.0, "3", 7, -1])
def test_surface_validation_messages(r):
    """One message for every bad point count; True and 3.0 equal 1 and 3 but are not ints, also once
    the models of X1 and X3 exist."""
    assert X1 is SurfaceModel(1) and X3 is SurfaceModel(3)
    with pytest.raises(ValueError) as err:
        SurfaceModel(r)
    assert str(err.value) == f"point count must be an int from 0 to 6, or None for the quadric; got {r!r}"


def test_value_type_reprs():
    assert repr(X3) == "SurfaceModel(r=3)"
    assert repr(Q) == "SurfaceModel(r=None)"
    assert repr(DivisorClass(X2, (1, -1, 0))) == "DivisorClass(surface=SurfaceModel(r=2), coeffs=(1, -1, 0))"
    assert repr(to_ruled(DivisorClass(X1, (2, -1)))) == "RuledCoords(c0=1, f=2)"


def test_value_types_pickle():
    D = DivisorClass(X6, (5, -2, -2, -2, -2, -2, -2))
    assert pickle.loads(pickle.dumps(D)) == D


def test_post_init_runs_once_per_construction(monkeypatch):
    calls = []
    original = DivisorClass.__post_init__

    def counted(self):
        calls.append(self.coeffs)
        return original(self)

    monkeypatch.setattr(DivisorClass, "__post_init__", counted)
    D = DivisorClass(X2, (1, -1, 0))
    assert calls == [(1, -1, 0)]
    -D
    D + D
    2 * D
    with pytest.raises(TypeError):
        2.5 * D  # __rmul__ takes integers only
    parse_divisor(X2, "l-e1")
    assert calls == [(1, -1, 0), (-1, 1, 0), (2, -2, 0), (2, -2, 0), (1, -1, 0)]
    with pytest.raises(ValueError):
        DivisorClass(X2, (1,))
    assert len(calls) == 6


def test_readme_library_example_prints_what_it_shows(capsys):
    """README's "Library use" example, run as written, prints the output block that follows it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code, shown = re.search(r"```python\n(.*?)```.*?```text\n(.*?)```", section, re.S).groups()
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == shown
