"""(-1)-lines of a strong del Pezzo surface and the positivity tests built on them.

Covers: the lines, labelled, which are the ACM classes of degree 1;
effectivity and smooth members without line components (one Zariski round
on the lines, whose moving part must be nef and, for a smooth member, equal
to the class) and very-ampleness, both read off the least product with a
generator of the effective cone, found by one walk into the dominant Weyl
chamber; and the exact cohomology h^0, h^1, h^2 of any class, from that
round and Serre duality.
"""

from collections import namedtuple
from functools import lru_cache

from .acm import coefficients_of_degree
from .errors import InternalError
from .picard import DivisorClass, SurfaceModel, degree, euler_characteristic


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
# positivity, read off the dominant Weyl chamber


def least_product(D: DivisorClass) -> int:
    """The least D.N over the generators N of the effective cone: l on X0, e1 and l-e1 on X1, h and m on Q, the
    lines for r >= 2 (Manin, Cubic Forms, par. 26).  So D is nef iff this is >= 0.

    For r >= 3 it walks D into the dominant chamber of W(E_r), generated by the reflections D + (D.a)a in the
    simple roots a = e_i - e_{i+1} (sorting the tail ascending) and l-e1-e2-e3 (Manin, par. 23-26):
    1. Each reflection s_a applies where D.a < 0; s_a negates a and permutes the other positive roots, so the
       walk takes at most |Phi+| = 4, 10, 20 or 36 of them on X3..X6, whatever the size of the coefficients.
    2. W preserves the pairing and K, so it permutes the lines: the least D.L is the same along the walk.
    3. On a dominant D (D.a >= 0 for every simple a), every L - e_r is a nonnegative sum of simple roots, so the
       least D.L is D.e_r = -c_r.
    """
    if D.surface.r is None:
        return min(D.coeffs)  # D.m and D.h
    a, *tail = D.coeffs
    if D.surface.r <= 2:
        return min([a + sum(tail)] + [-c for c in tail])
    tail.sort()
    while (m := a + tail[0] + tail[1] + tail[2]) < 0:
        a += m
        tail[:3] = [c - m for c in tail[:3]]
        tail.sort()
    return -tail[-1]


def moving_part(D: DivisorClass) -> DivisorClass | None:
    """The nef part P of D = P + N, N = sum (-D.L) L over the lines with D.L < 0; None if D is not effective.

    If D is effective, this is its Zariski decomposition, so P is nef: N has
    negative definite support orthogonal to P, so on disjoint lines L_j (the
    (-1)-lines are the only negative curves, and two meeting lines have the
    matrix [[-1, 1], [1, -1]]), with coefficients -D.L_j fixed by P.L_j = 0;
    a line with D.L < 0 has N.L < 0, so lies in N.  If P is nef, h^2(P) = 0
    ((K - P).H < 0) and chi(P) = (P^2 + P.H)/2 + 1 >= 1, so P and D are
    effective.  Nef is least_product >= 0; on X0 the degree test decides
    (D.H < 0, or D.H = 0 with D != 0, is never effective as H is ample).

    A nonzero effective D has smooth members with no (-1)-line as a
    component exactly when P == D, i.e. D meets every line nonnegatively;
    such a class is also generated by global sections.  On the plane and
    the quadric there are no lines to obstruct, so every nonzero effective
    class qualifies.
    """
    d_h = degree(D)
    if d_h < 0 or (d_h == 0 and not D.is_zero):
        return None
    if least_product(D) >= 0:
        return D
    surface, p = D.surface, D.coeffs
    for L in enumerate_lines(surface):
        k = surface.pair(D.coeffs, L.divisor.coeffs)
        if k < 0:
            p = tuple(x + k * y for x, y in zip(p, L.divisor.coeffs))
    P = DivisorClass(surface, p)
    return P if least_product(P) >= 0 else None


def is_effective(D: DivisorClass) -> bool:
    """Whether D is effective: the Zariski round on the lines leaves a nef class (see moving_part)."""
    return moving_part(D) is not None


def is_very_ample(D: DivisorClass) -> bool | None:
    """D.N > 0 for the lines and conics (blow-ups of 1..6 points): e1 and l-e1
    on X1; for r >= 2 each conic is a sum of two lines.  So least_product(D) > 0.

    None on the plane and the quadric, where the criterion is not stated."""
    if D.surface.r in (None, 0):
        return None
    return least_product(D) > 0


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
    h0, h2 = _h0(D), _h0(D.surface.canonical - D)
    h1 = h0 + h2 - euler_characteristic(D)
    if h1 < 0:
        raise InternalError(f"negative h^1 for {D}")
    return h0, h1, h2
