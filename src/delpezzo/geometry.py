"""(-1)-lines of a strong del Pezzo surface and the positivity tests built on them.

Covers: the lines, labelled, which are the ACM classes of degree 1;
effectivity (one Zariski round on the lines, whose moving part must be
nef), smooth members without line components (no fixed part) and
very-ampleness, read off sign tests against the lines and conics, the ACM
classes of degree 1 and 2, one row per orbit representative under permuting
e_1..e_r; the exact cohomology h^0, h^1, h^2 of any class, from that round
and Serre duality; and the alternative basis D_0..D_r with its divisor
decomposition.  The decomposition's exceptional frame is read off a twisted
cubic N, an ACM class of degree 3: the r lines orthogonal to N, which a
blow-down to P2 contracts, with l' = N.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .acm import classes_of_degree, orbits_of_degree
from .errors import InternalError, PreconditionViolated, UnsupportedSurface
from .picard import (
    BLOWUP,
    DivisorClass,
    SurfaceModel,
    canonical_class,
    degree,
    euler_characteristic,
    intersect,
)


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
    for D in classes_of_degree(surface, 1):
        a, *tail = D.coeffs
        indices = "".join(str(i) for i, c in enumerate(tail, 1) if (c == 0) == (a == 2))
        lines.append(LineClass("EFG"[a] + indices, D))
    return tuple(sorted(lines, key=lambda L: L.label))


# ---------------------------------------------------------------------------
# positivity, read off the low-degree ACM classes


@lru_cache(maxsize=None)
def _orbit_rows(surface: SurfaceModel, degrees: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(N.u_0, the other N.u_i sorted descending), N.u_j = sum of G_ij N_i in one pass over the Gram entries, for
    the scan's representative N of each S_r-orbit of ACM classes of these degrees: distinct, as G is invertible."""
    rows = []
    for c in degrees:
        for N, _, _ in orbits_of_degree(surface, c):
            row = [0] * surface.rank
            for i, j, value in surface.gram:
                row[j] += value * N[i]
            rows.append((row[0], tuple(sorted(row[1:], reverse=True))))
    return tuple(rows)


def orbit_minima(D: DivisorClass, degrees: tuple[int, ...]):
    """The least D.N over each tail-permutation orbit of ACM classes N of these degrees.

    One row per orbit suffices: permuting e_1..e_r preserves the pairing, H
    and the ACM criterion, so the rows (N.l, N.e_1, ..., N.e_r) are closed
    under permuting their tails, and over an orbit the least product pairs
    D's ascending tail with the row's descending one (rearrangement inequality).
    On the quadric the tail is the single entry N.m, so each row is one class.
    """
    head, *tail = D.coeffs
    tail.sort()
    return (head * n_0 + sum(map(mul, tail, n_tail)) for n_0, n_tail in _orbit_rows(D.surface, degrees))


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
    """
    d_h = degree(D)
    if d_h < 0 or (d_h == 0 and not D.is_zero):
        return None
    if all(m >= 0 for m in orbit_minima(D, (1, 2))):
        return D
    surface, p = D.surface, D.coeffs
    for L in enumerate_lines(surface):
        k = surface.pair(D.coeffs, L.divisor.coeffs)
        if k < 0:
            p = tuple(x + k * y for x, y in zip(p, L.divisor.coeffs))
    P = DivisorClass(surface, p)
    return P if all(m >= 0 for m in orbit_minima(P, (1, 2))) else None


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
    return all(m > 0 for m in orbit_minima(D, (1, 2)))


def has_smooth_nonline_member(D: DivisorClass) -> bool:
    """Whether |D| contains smooth curves with no (-1)-line as a component.

    True exactly when D is its own moving part: it meets every (-1)-line
    nonnegatively; such a class is also generated by global sections.
    Requires a nonzero effective class.  On the plane and the quadric there
    are no lines to obstruct, so every nonzero effective class qualifies.
    """
    if D.is_zero:
        raise PreconditionViolated("the smooth-member criterion needs a nonzero class")
    P = moving_part(D)
    if P is None:
        raise PreconditionViolated(f"{D} is not effective")
    return P == D


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


# ---------------------------------------------------------------------------
# alternative base and decomposition

# l-coefficients of D_0..D_6: l, l-e1, 2l-e1-e2, ..., 3l-e1-..-e6
_BASE_L_COEFF = (1, 1, 2, 2, 2, 3, 3)


def alternative_base(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    """The base-point-free basis D_0 = l, D_1 = l-e1, ..., D_r of Pic."""
    if surface.kind != BLOWUP or not 2 <= surface.r <= 6:
        raise UnsupportedSurface(f"alternative base needs a blow-up of 2..6 points, not {surface}")
    l, *e = surface.units
    return BaseDecomposition(l, tuple(e), ()).base_divisors()


class BaseDecomposition(namedtuple("BaseDecomposition", "line_class exceptional alphas")):
    """Writing of a divisor as sum(alpha_k * D_k) in a chosen exceptional frame.

    ``line_class`` is the class l' of the frame: the twisted cubic N that
    ``decompose`` read the frame off, with 3l' = H + sum(e_i').
    ``exceptional`` holds the r mutually disjoint (-1)-lines used as the
    exceptional classes e_1', ..., e_r' of the frame; for r <= 4 they are a
    permutation of the standard e_i, for r = 5, 6 the minimising-line choice
    may involve F- or G-classes.  ``alphas`` has length r + 1 and
    alpha_1..alpha_{r-1} >= 0 with alpha_r = D.e_r'.
    """

    __slots__ = ()

    def base_divisors(self) -> tuple[DivisorClass, ...]:
        """D_0, ..., D_r of the frame: D_k = c_k l' - e_1' - ... - e_k'."""
        bases = []
        for k, c in enumerate(_BASE_L_COEFF[: len(self.exceptional) + 1]):
            out = c * self.line_class
            for ec in self.exceptional[:k]:
                out = out - ec
            bases.append(out)
        return tuple(bases)

    def reconstruct(self) -> DivisorClass:
        bases = self.base_divisors()
        out = self.alphas[0] * bases[0]
        for alpha, base in zip(self.alphas[1:], bases[1:]):
            out = out + alpha * base
        return out

    @property
    def permutation(self) -> tuple[int, ...] | None:
        """1-based relabeling of the standard e_i, when the frame is one."""
        surface = self.exceptional[0].surface
        standard = list(surface.units[1:])
        perm = []
        for ec in self.exceptional:
            if ec not in standard:
                return None
            perm.append(standard.index(ec) + 1)
        return tuple(perm)


def decompose(D: DivisorClass) -> BaseDecomposition:
    """Decompose D over the alternative base of the frame of a twisted cubic N.

    A twisted cubic is an ACM class N with N.H = 3 and N^2 = 1: a line
    pulled back under a blow-down to P2.  Its frame is the r lines L with
    L.N = 0, pairwise disjoint with N = (H + sum(L))/3, so l' = N.  For
    r = 5, 6 the frame's last two slots are lines minimising D.L (first over
    all lines, then over lines disjoint from the first), which makes
    alpha_0 >= 0; for r <= 4 there are none.  N is the cubic orthogonal to
    those slots whose other frame lines come first in the canonical line
    order, so N = l for r <= 4, the frame being the standard e_i.  For
    r = 5, 6 such a cubic exists: contracting the two disjoint lines leaves
    the del Pezzo surface of degree 11 - r, a blow-up of r - 2 points, and
    the pullbacks of its r - 2 exceptional lines complete the two lines to a
    frame.  The other frame lines are sorted by non-increasing multiplicity
    D.L, ties broken by the canonical line order.
    """
    surface = D.surface
    if surface.kind != BLOWUP or not 2 <= surface.r <= 6:
        raise UnsupportedSurface(f"decomposition needs a blow-up of 2..6 points, not {surface}")
    r = surface.r
    lines = [L.divisor for L in enumerate_lines(surface)]
    dots = [intersect(D, L) for L in lines]
    tail = ()
    if r >= 5:
        last = min(range(len(lines)), key=dots.__getitem__)
        disjoint = [k for k, L in enumerate(lines) if intersect(L, lines[last]) == 0]  # not last: L.L = -1
        tail = (min(disjoint, key=dots.__getitem__), last)
    frames = [  # each cubic orthogonal to the tail, with the indices of its other frame lines
        (N, [k for k, L in enumerate(lines) if intersect(L, N) == 0 and k not in tail])
        for N in classes_of_degree(surface, 3)
        if all(intersect(N, lines[k]) == 0 for k in tail)
    ]
    if not frames:
        raise InternalError("no twisted cubic is orthogonal to two skew lines")
    N, others = min(frames, key=lambda f: f[1])
    order = sorted(others, key=lambda k: (-dots[k], k)) + list(tail)
    b = [dots[k] for k in order]
    if any(b[i] < b[i + 1] for i in range(r - 1)):
        raise InternalError("exceptional frame is not sorted by multiplicity")
    alphas = tuple(b[i] - b[i + 1] for i in range(r - 1)) + (b[r - 1],)
    alpha_0 = intersect(D, N) - sum(map(mul, _BASE_L_COEFF[1:], alphas))
    decomposition = BaseDecomposition(N, tuple(lines[k] for k in order), (alpha_0,) + alphas)
    if decomposition.reconstruct() != D:
        raise InternalError(f"decomposition of {D} does not reconstruct")
    return decomposition
