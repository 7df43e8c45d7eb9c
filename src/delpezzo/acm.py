"""Initialized ACM divisor classes: criterion, enumeration, closed-form catalog, tables.

The numerical criterion is D = 0 or (D^2 = D.H - 2 and 0 < D.H <= H^2),
stated once in :func:`is_acm_initialized`; such nonzero classes are
rational normal curves of degree D.H.  Enumeration is served per degree
(:func:`classes_of_degree`, cached): it scans the coefficient box that the
Hodge index theorem proves to hold every solution, as a leading coefficient
times a sorted tail, and expands each tail into all its distinct
permutations; :func:`enumerate_acm` concatenates the degrees.  The
closed-form catalog regenerates the same classes from the explicit five-row
table plus the zero and exceptional classes, giving an independent oracle.
``geometry`` reads the (-1)-lines and its positivity tests off the classes
of degree 1, 2 and 3, and ``wild`` its pairs off those of degree H^2.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import lru_cache
from operator import mul

from .errors import InternalError, PreconditionViolated, SurfaceMismatch, UnsupportedSurface
from .picard import (
    BLOWUP,
    QUADRIC,
    DivisorClass,
    SurfaceModel,
    degree,
    from_multiplicities,
    zero_class,
)

def _criterion(surface: SurfaceModel, coeffs: tuple[int, ...]) -> bool:
    d_h = sum(map(mul, coeffs, surface.degree_vector))
    if 0 < d_h <= surface.degree:
        return surface.pair(coeffs, coeffs) == d_h - 2
    return not any(coeffs)


def is_acm_initialized(D: DivisorClass) -> bool:
    """Numerical test for an initialized ACM class: D = 0 or
    (D^2 = D.H - 2 and 0 < D.H <= H^2)."""
    return _criterion(D.surface, D.coeffs)


# ---------------------------------------------------------------------------
# enumeration


def sort_key(D: DivisorClass) -> tuple:
    """Stable output order: degree, canonical writing, then the full vector.

    The canonical writing is the leading coefficient followed by the negated
    tail sorted in non-increasing order (the multiplicities on blow-ups).
    """
    canonical = (D.coeffs[0],) + tuple(sorted((-c for c in D.coeffs[1:]), reverse=True))
    return (degree(D), canonical, D.coeffs)


def _expand(surface: SurfaceModel, a: int, tail: tuple[int, ...]) -> list[DivisorClass]:
    # decreasing tails are increasing multiplicity vectors on blow-ups
    perms = sorted(set(itertools.permutations(tail)), reverse=True)
    return [DivisorClass(surface, (a,) + perm) for perm in perms]


def _coefficient_range(surface: SurfaceModel, c: int, k: int) -> range:
    """Every value of coefficient k on a class D with D.H = c and D^2 = c - 2.

    The Gram matrix G is its own inverse on every surface, so D_k = D.w for
    the class w with coordinates G e_k: w.H = H_k and w^2 = G_kk.  Write
    d = H^2, D = (c/d)H + P and w = (H_k/d)H + W with P, W in H^perp.  By
    the Hodge index theorem (Hartshorne, Algebraic Geometry, Thm. V.1.9)
    H^perp is negative definite, so Cauchy-Schwarz gives
    (P.W)^2 <= P^2 W^2, that is, with P.W = D_k - c H_k/d,

        (d D_k - c H_k)^2 <= (c^2 - c d + 2d) (H_k^2 - d G_kk).

    The first factor is -d P^2; when it is negative, P^2 > 0 and no class
    has degree c.  The bound is exact integer arithmetic.
    """
    d, h_k = surface.degree, surface.hyperplane.coeffs[k]
    p_norm = c * c - c * d + 2 * d
    if p_norm < 0:
        return range(0)
    g_kk = sum(value for i, j, value in surface.gram if i == j == k)
    s = math.isqrt(p_norm * (h_k * h_k - d * g_kk))
    return range(-((s - c * h_k) // d), (c * h_k + s) // d + 1)


@lru_cache(maxsize=None)
def classes_of_degree(surface: SurfaceModel, c: int) -> tuple[DivisorClass, ...]:
    """Every initialized ACM class of degree c, in the canonical order.

    Scans the leading range times the sorted tails drawn from the last
    coefficient's range, keeping the criterion hits of degree c.  Every
    tail coefficient has the same range (H_k = -1 and G_kk = -1 on
    blow-ups; the quadric's tail has one entry), and permuting the tail
    preserves the criterion.  At c = 0 the criterion accepts only the zero
    class; outside 0..H^2 there are no classes.
    """
    if not 0 <= c <= surface.degree:
        return ()
    n = surface.rank - 1
    tails = itertools.combinations_with_replacement(_coefficient_range(surface, c, n), n)
    classes = []
    for a, t in itertools.product(_coefficient_range(surface, c, 0), tails):
        coeffs = (a,) + t
        if sum(map(mul, coeffs, surface.degree_vector)) == c and _criterion(surface, coeffs):
            classes.extend(_expand(surface, a, t))
    classes.sort(key=sort_key)
    if len(set(classes)) != len(classes):
        raise InternalError(f"duplicate classes of degree {c} enumerated on {surface}")
    return tuple(classes)


def enumerate_acm(surface: SurfaceModel) -> list[DivisorClass]:
    """Every initialized ACM class on the surface, in the canonical order:
    the classes of degree 0, 1, ..., H^2 in turn (``sort_key`` leads with
    the degree)."""
    return [D for c in range(surface.degree + 1) for D in classes_of_degree(surface, c)]


# ---------------------------------------------------------------------------
# closed-form catalog (independent of the box scan)


class AcmRecord(namedtuple("AcmRecord", "canonical degree orbit_count")):
    """One catalog row: a representative class, its degree and its orbit size."""

    __slots__ = ()


def orbit_size(r: int, b: tuple[int, ...]) -> int:
    """Distinct vectors obtainable by permuting b: the multinomial r!/prod(mult!)."""
    count = math.factorial(r)
    for mult in Counter(b).values():
        count //= math.factorial(mult)
    return count


def expand_orbit(record: AcmRecord) -> list[DivisorClass]:
    """All distinct classes obtained by permuting the exceptional divisors."""
    surface = record.canonical.surface
    a = record.canonical.coeffs[0]
    return _expand(surface, a, record.canonical.coeffs[1:])


def closed_form_catalog(surface: SurfaceModel) -> list[AcmRecord]:
    """Catalog generated directly from the explicit table rows.

    Rows: l - e1..em (m <= min(2,r)); 2l - e1..em (max(r-3,0) <= m <= min(5,r));
    3l - 2e1 - e2..em (max(1,r-1) <= m <= r); 4l - 2e1 - 2e2 - 2e3 - e4..er
    (r >= 3); 5l - 2e1..2e6 (r = 6); plus the zero class and the exceptional
    divisors.
    """
    if surface.kind != BLOWUP:
        raise UnsupportedSurface("the closed-form catalog is stated for blow-ups")
    r = surface.r
    records = [AcmRecord(zero_class(surface), 0, 1)]

    def add(a: int, b: tuple[int, ...]) -> None:
        D = from_multiplicities(surface, a, b)
        records.append(AcmRecord(D, 3 * a - sum(b), orbit_size(r, b)))

    if r >= 1:
        add(0, (-1,) + (0,) * (r - 1))
    for m in range(0, min(2, r) + 1):
        add(1, (1,) * m + (0,) * (r - m))
    for m in range(max(r - 3, 0), min(5, r) + 1):
        add(2, (1,) * m + (0,) * (r - m))
    for m in range(max(1, r - 1), r + 1):
        add(3, (2,) + (1,) * (m - 1) + (0,) * (r - m))
    if r >= 3:
        add(4, (2, 2, 2) + (1,) * (r - 3))
    if r == 6:
        add(5, (2,) * 6)
    records.sort(key=lambda rec: sort_key(rec.canonical))
    return records


def closed_form_quadric(surface: SurfaceModel) -> list[DivisorClass]:
    """The eight quadric classes listed by the classification: 0, h+bm, bh+m."""
    if surface.kind != QUADRIC:
        raise SurfaceMismatch("expected the quadric")
    classes = {zero_class(surface)}
    for b in range(0, 4):
        classes.add(DivisorClass(surface, (1, b)))
        classes.add(DivisorClass(surface, (b, 1)))
    return sorted(classes, key=sort_key)


def degree_count_table(surface: SurfaceModel) -> dict[int, int]:
    """Number of ACM classes per degree (orbit-expanded); absent degrees are 0."""
    counts = ((c, len(classes_of_degree(surface, c))) for c in range(surface.degree + 1))
    return {c: n for c, n in counts if n}


# ---------------------------------------------------------------------------
# cohomological bookkeeping with closed forms


def ambient_dimension(D: DivisorClass) -> int:
    """Dimension of the projective span of the rational normal curve: deg D."""
    if D.is_zero or not is_acm_initialized(D):
        raise PreconditionViolated(f"{D} is not a nonzero initialized ACM class")
    return degree(D)


def h0_hyperplane_residual(D: DivisorClass) -> int:
    """Independent hyperplanes through the curve: h^0(H - D) = H^2 - deg D."""
    return D.surface.degree - ambient_dimension(D)
