"""(-1)-lines of a strong del Pezzo surface and the positivity tests built on them.

Covers: the lines, labelled, which are the ACM classes of degree 1;
effectivity and smooth members without line components (one Zariski round
on the lines, whose moving part must be nef and, for a smooth member, equal
to the class) and very-ampleness, read off sign tests against the lines and
conics, the ACM classes of degree 1 and 2, one row per orbit representative
under permuting e_1..e_r; and the exact cohomology h^0, h^1, h^2 of any
class, from that round and Serre duality.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .acm import coefficients_of_degree, orbits_of_degree
from .errors import InternalError, UnsupportedSurface
from .picard import BLOWUP, DivisorClass, SurfaceModel, canonical_class, degree, euler_characteristic


class LineClass(namedtuple("LineClass", "label divisor")):
    """A (-1)-line: self-intersection -1, degree 1, arithmetic genus 0."""

    __slots__ = ()


@lru_cache(maxsize=None)
def enumerate_lines(surface: SurfaceModel) -> tuple[LineClass, ...]:
    """All (-1)-lines, the ACM classes of degree 1, in the order E1..Er < F12 <
    F13 < ... < G/G1..G6.

    A line a*l + sum(c_i e_i) has a = 0, 1 or 2: E_i = e_i, F_ij = l - e_i - e_j,
    and G_j = 2l minus every e_i with i != j (G = 2l - e1 - ... - e5 on X5).
    The label is "EFG"[a] followed by the indices with c_i != 0 (E, F) or
    c_i = 0 (G); indices are single digits, so label order is the order
    above.  The plane and the quadric carry none; the blow-up of r points
    carries exactly r + C(r,2) + C(r,5) of them.
    """
    lines = []
    for v in coefficients_of_degree(surface, 1):
        a, *tail = v
        indices = "".join(str(i) for i, c in enumerate(tail, 1) if (c == 0) == (a == 2))
        lines.append(LineClass("EFG"[a] + indices, DivisorClass(surface, v)))
    return tuple(sorted(lines, key=lambda L: L.label))


# ---------------------------------------------------------------------------
# positivity, read off the low-degree ACM classes


def _orbit_row(surface: SurfaceModel, N: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(N.u_0, the other N.u_i sorted descending), N.u_j = sum of G_ij N_i in one pass over the Gram entries."""
    row = [0] * surface.rank
    for i, j, value in surface.gram:
        row[j] += value * N[i]
    return row[0], tuple(sorted(row[1:], reverse=True))


@lru_cache(maxsize=None)
def _orbit_rows(surface: SurfaceModel) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The row of the scan's representative N of each S_r-orbit of lines and conics, the ACM classes of degree
    1 and 2: distinct, as G is invertible."""
    return tuple(_orbit_row(surface, N) for c in (1, 2) for N, _, _ in orbits_of_degree(surface, c))


def orbit_minima(D: DivisorClass):
    """The least D.N over each tail-permutation orbit of lines and conics N.

    One row per orbit suffices: permuting e_1..e_r preserves the pairing, H
    and the ACM criterion, so the rows (N.l, N.e_1, ..., N.e_r) are closed
    under permuting their tails, and over an orbit the least product pairs
    D's ascending tail with the row's descending one (rearrangement inequality).
    On the quadric the tail is the single entry N.m, so each row is one class.
    """
    head, *tail = D.coeffs
    tail.sort()
    return (head * n_0 + sum(map(mul, tail, n_tail)) for n_0, n_tail in _orbit_rows(D.surface))


def moving_part(D: DivisorClass) -> DivisorClass | None:
    """The nef part P of D = P + N, N = sum (-D.L) L over the lines with D.L < 0; None if D is not effective.

    If D is effective, this is its Zariski decomposition, so P is nef: N has
    negative definite support orthogonal to P, so on disjoint lines L_j (the
    (-1)-lines are the only negative curves, and two meeting lines have the
    matrix [[-1, 1], [1, -1]]), with coefficients -D.L_j fixed by P.L_j = 0;
    a line with D.L < 0 has N.L < 0, so lies in N.  If P is nef, h^2(P) = 0
    ((K - P).H < 0) and chi(P) = (P^2 + P.H)/2 + 1 >= 1, so P and D are
    effective.  Nef is D.N >= 0 on the ACM classes of degree 1 and 2: the
    lines span the effective cone for r >= 2 (Manin, Cubic Forms, par. 26),
    e1 and l-e1 on X1, h and m on Q; on X0 the degree test decides (D.H < 0,
    or D.H = 0 with D != 0, is never effective as H is ample).

    A nonzero effective D has smooth members with no (-1)-line as a
    component exactly when P == D, i.e. D meets every line nonnegatively;
    such a class is also generated by global sections.  On the plane and
    the quadric there are no lines to obstruct, so every nonzero effective
    class qualifies.
    """
    d_h = degree(D)
    if d_h < 0 or (d_h == 0 and not D.is_zero):
        return None
    if all(m >= 0 for m in orbit_minima(D)):
        return D
    surface, p = D.surface, D.coeffs
    for L in enumerate_lines(surface):
        k = surface.pair(D.coeffs, L.divisor.coeffs)
        if k < 0:
            p = tuple(x + k * y for x, y in zip(p, L.divisor.coeffs))
    P = DivisorClass(surface, p)
    return P if all(m >= 0 for m in orbit_minima(P)) else None


def is_effective(D: DivisorClass) -> bool:
    """Whether D is effective: the Zariski round on the lines leaves a nef class (see moving_part)."""
    return moving_part(D) is not None


def is_very_ample(D: DivisorClass) -> bool:
    """D.N > 0 for the lines and conics (blow-ups of 1..6 points): e1 and l-e1
    on X1; for r >= 2 each conic is a sum of two lines."""
    surface = D.surface
    if surface.kind != BLOWUP or surface.r == 0:
        raise UnsupportedSurface(
            f"the very-ampleness criterion is stated only for blow-ups of 1..6 points, not {surface}"
        )
    return all(m > 0 for m in orbit_minima(D))


def _h0(D: DivisorClass) -> int:
    P = moving_part(D)
    return 0 if P is None else euler_characteristic(P)


def cohomology(D: DivisorClass) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of the line bundle O(D), exactly.

    h^0(D) = h^0(P) for the moving part P (see moving_part), which is chi(P)
    by Kawamata-Viehweg, as P - K = P + H is ample; h^0 = 0 when D is not
    effective.  Serre duality gives h^2 = h^0(K - D), and Riemann-Roch
    h^1 = h^0 + h^2 - chi(D).
    """
    h0, h2 = _h0(D), _h0(canonical_class(D.surface) - D)
    h1 = h0 + h2 - euler_characteristic(D)
    if h1 < 0:
        raise InternalError(f"negative h^1 for {D}")
    return h0, h1, h2
