"""Initialized ACM divisor classes: criterion, enumeration, closed-form catalog, tables.

The numerical criterion is D = 0 or (D^2 = D.H - 2 and 0 < D.H <= H^2),
stated once in :func:`is_acm_initialized`; such nonzero classes are
rational normal curves of degree D.H.  It is the numerical form of the
cohomological definition, h^0(D) > 0 = h^0(D - H) and h^1(D + tH) = 0 for
every t, which ``geometry.cohomology`` computes exactly.  Enumeration is
served per degree: :func:`orbits_of_degree` scans the coefficient box that
the Hodge index theorem proves to hold every solution, as sorted tails with
the lead that gives the degree, and caches each hit as one S_r-orbit record
for the degree table, the golden orbit counts and ``acm verify``;
:func:`coefficients_of_degree`, uncached, expands them into coefficient
tuples for the lines, the golden text and the wild pairs.  The closed-form
catalog regenerates the records from the listed rows, an independent oracle.

The catalog order: within each degree, classes ascend by their coefficient
tuple (a, c_1, ..., c_r) ((h, m) on the quadric); each orbit record's
representative is its orbit's least member.
"""

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import InternalError
from .picard import DivisorClass, SurfaceModel

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


class AcmRecord(namedtuple("AcmRecord", "canonical degree orbit_count")):
    """An S_r-orbit: the coefficient tuple of its least member (the lead, then
    the tail in ascending order), its degree and its size.  The scan counts the
    size with :func:`orbit_size`; the closed-form catalog states it per row."""

    __slots__ = ()


def orbit_size(b: tuple[int, ...]) -> int:
    """Distinct vectors obtainable by permuting b: len(b)! over a factorial per run of sorted b."""
    count = math.factorial(len(b))
    for _, run in itertools.groupby(sorted(b)):
        count //= math.factorial(len(list(run)))
    return count


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


def _distinct_permutations(t: tuple[int, ...]):
    """The distinct permutations of the ascending tuple t in ascending order (next permutation)."""
    p = list(t)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


@lru_cache(maxsize=None)
def orbits_of_degree(surface: SurfaceModel, c: int) -> tuple[AcmRecord, ...]:
    """One record per S_r-orbit of initialized ACM classes of degree c.

    Scans the sorted tails drawn from the last coefficient's range, each with
    the lead in the leading range that gives degree c, if any, for criterion
    hits.  Every tail coefficient has the same range and weight in D.H
    (H_k = -1 and G_kk = -1 on blow-ups; the quadric's tail has one entry)
    and permuting the tail preserves the criterion, so each hit (a, t), t
    ascending, is one orbit and its least member.  At c = 0 only the zero
    class passes; outside 0..H^2 there are none.
    """
    if not 0 <= c <= surface.degree:
        return ()
    n = surface.rank - 1
    h_0, h_t = surface.degree_vector[0], surface.degree_vector[n]
    leads = {c - h_0 * a: a for a in _coefficient_range(surface, c, 0)}  # keyed by the tail's share of D.H
    hits = []
    for t in itertools.combinations_with_replacement(_coefficient_range(surface, c, n), n):
        a = leads.get(h_t * sum(t))
        if a is not None and _criterion(surface, (a,) + t):
            hits.append((a,) + t)
    hits.sort()
    return tuple(AcmRecord(h, c, orbit_size(h[1:])) for h in hits)


def coefficients_of_degree(surface: SurfaceModel, c: int) -> list[tuple[int, ...]]:
    """The coefficient tuple of every initialized ACM class of degree c: each orbit
    record expanded into its distinct tail permutations, in ascending order.
    InternalError unless they strictly ascend, that is, repeat no class and keep the catalog order."""
    coeffs = [h[:1] + perm for h, _, _ in orbits_of_degree(surface, c) for perm in _distinct_permutations(h[1:])]
    if not all(u < v for u, v in itertools.pairwise(coeffs)):
        raise InternalError(f"classes of degree {c} on {surface} repeat or leave the catalog order")
    return coeffs


def enumerate_acm(surface: SurfaceModel) -> list[DivisorClass]:
    """Every initialized ACM class on the surface, in the catalog order:
    the classes of degree 0, 1, ..., H^2 in turn."""
    return [DivisorClass(surface, v) for c in range(surface.degree + 1) for v in coefficients_of_degree(surface, c)]


# ---------------------------------------------------------------------------
# closed-form catalog (independent of the box scan)


def closed_form_catalog(surface: SurfaceModel) -> list[AcmRecord]:
    """Catalog generated directly from the explicit table rows, one record per
    orbit under permuting the exceptional divisors, in the scan's order.

    Blow-ups of r points, each row with its orbit size: l - e1..em (m <= min(2,r))
    and 2l - e1..em (max(r-3,0) <= m <= min(5,r)), C(r,m); 3l - 2e1 - e2..em
    (max(1,r-1) <= m <= r), r C(r-1,m-1); 4l - 2e1 - 2e2 - 2e3 - e4..er (r >= 3),
    C(r,3); 5l - 2e1..2e6 (r = 6) and the zero class, 1; the exceptional
    divisors, r.  A row a*l - sum b_i e_i is recorded as its orbit's least
    member, the negated multiplicities in ascending order, so the exceptional
    divisors' row is e_r.  The quadric: 0, h + bm and bh + m for b = 0..3,
    eight classes, ah + bm of degree 2(a + b), each its own orbit (size 1) as
    the tail is the single coefficient of m.  No size comes from the scan.
    """
    r, records = surface.r, [AcmRecord((0,) * surface.rank, 0, 1)]
    if r is None:
        rows = {v for b in range(4) for v in ((1, b), (b, 1))}
        records.extend(AcmRecord(v, 2 * sum(v), 1) for v in rows)
    else:
        def add(a: int, b: tuple[int, ...], size: int) -> None:
            records.append(AcmRecord((a,) + tuple(sorted(-x for x in b)), 3 * a - sum(b), size))

        if r >= 1:
            add(0, (-1,) + (0,) * (r - 1), r)
        for m in range(0, min(2, r) + 1):
            add(1, (1,) * m + (0,) * (r - m), math.comb(r, m))
        for m in range(max(r - 3, 0), min(5, r) + 1):
            add(2, (1,) * m + (0,) * (r - m), math.comb(r, m))
        for m in range(max(1, r - 1), r + 1):
            add(3, (2,) + (1,) * (m - 1) + (0,) * (r - m), r * math.comb(r - 1, m - 1))
        if r >= 3:
            add(4, (2, 2, 2) + (1,) * (r - 3), math.comb(r, 3))
        if r == 6:
            add(5, (2,) * 6, 1)
    records.sort(key=lambda rec: (rec.degree, rec.canonical))
    return records


def degree_count_table(surface: SurfaceModel) -> dict[int, int]:
    """Number of ACM classes per degree, summed over the orbit records (no class is built); absent degrees are 0."""
    counts = ((c, sum(rec.orbit_count for rec in orbits_of_degree(surface, c))) for c in range(surface.degree + 1))
    return {c: n for c, n in counts if n}
