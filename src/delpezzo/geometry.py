"""(-1)-lines of a strong del Pezzo surface and the positivity tests built on them.

Covers: the lines, labelled, which are the ACM classes of degree 1;
effectivity, very-ampleness and smooth members without line components,
each a sign test against the lines, conics and twisted cubics of the ACM
catalog; h^1 of the first negative twist; and the alternative basis
D_0..D_r with its divisor decomposition.  The decomposition's exceptional
frame is read off a twisted cubic N, an ACM class of degree 3: the r lines
orthogonal to N, which a blow-down to P2 contracts, with l' = N.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .acm import classes_of_degree
from .errors import InternalError, PreconditionViolated, UnsupportedSurface
from .picard import (
    BLOWUP,
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    canonical_class,
    hyperplane,
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
def _pairing_rows(surface: SurfaceModel, degrees: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(N.u for u in the basis) for each ACM class N of the given degrees, so
    that D.N = sum(map(mul, D.coeffs, row))."""
    return tuple(
        tuple(intersect(N, u) for u in surface.units) for c in degrees for N in classes_of_degree(surface, c)
    )


def is_effective(D: DivisorClass) -> bool:
    """Whether D is effective: D.N >= 0 for the ACM classes N of degree 2 and 3.

    These conics (N^2 = 0) and twisted cubics (N^2 = 1) span the nef cone,
    dual to the effective cone; both are rational polyhedral.  On X0, X1, Q
    they are l; l-e1, l; h, m.  For r >= 2 the lines span the effective cone,
    so an extremal nef ray is orthogonal to r independent lines: a conic
    bundle's fibre or a line pulled back under a blow-down to P2 (Manin,
    Cubic Forms, par. 26; Dolgachev, Classical Algebraic Geometry, ch. 8:
    27 + 72 rays on the cubic surface).

    An integral class in the effective cone is effective.  If D.L = -k < 0
    for a (-1)-line L, the other cone generators meet L nonnegatively, so L
    has coefficient >= k in D and D - kL stays in the cone, with lower
    degree.  This ends at a nef class N, effective as h^2(N) = h^0(K - N) = 0
    ((K - N).H < 0) and chi(N) = N.(N - K)/2 + 1 >= 1.
    """
    return all(sum(map(mul, D.coeffs, row)) >= 0 for row in _pairing_rows(D.surface, (2, 3)))


def is_very_ample(D: DivisorClass) -> bool:
    """D.N > 0 for the lines and conics (blow-ups of 1..6 points): e1 and l-e1
    on X1; for r >= 2 each conic is a sum of two lines."""
    surface = D.surface
    if surface.kind != BLOWUP or surface.r == 0:
        raise UnsupportedSurface(
            f"the very-ampleness criterion is stated only for blow-ups of 1..6 points, not {surface}"
        )
    return all(sum(map(mul, D.coeffs, row)) > 0 for row in _pairing_rows(surface, (1, 2)))


def has_smooth_nonline_member(D: DivisorClass) -> bool:
    """Whether |D| contains smooth curves with no (-1)-line as a component.

    True exactly when D meets every (-1)-line, the ACM classes of degree 1,
    nonnegatively; such a class is also generated by global sections.
    Requires a nonzero effective class.  On the plane and the quadric there
    are no lines to obstruct, so every nonzero effective class qualifies.
    """
    if D.is_zero:
        raise PreconditionViolated("the smooth-member criterion needs a nonzero class")
    if not is_effective(D):
        raise PreconditionViolated(f"{D} is not effective")
    return all(sum(map(mul, D.coeffs, row)) >= 0 for row in _pairing_rows(D.surface, (1,)))


def h1_initialized_twist(D: DivisorClass) -> int:
    """h^1 of the first negative twist of an initialized effective class.

    Equals (D.H - D^2)/2 - 1 = -p_a(D), hence 0 exactly on classes with
    D^2 = D.H - 2.
    """
    if D.is_zero:
        raise PreconditionViolated("needs a nonzero class")
    if not is_effective(D):
        raise PreconditionViolated(f"{D} is not effective")
    if is_effective(D - hyperplane(D.surface)):
        raise PreconditionViolated(f"{D} is not initialized: {D - hyperplane(D.surface)} is effective")
    return -arithmetic_genus(D)


# ---------------------------------------------------------------------------
# alternative base and decomposition

# l-coefficients of D_0..D_6: l, l-e1, 2l-e1-e2, ..., 3l-e1-..-e6
_BASE_L_COEFF = (1, 1, 2, 2, 2, 3, 3)


def _base_divisor(line_class: DivisorClass, exceptional: tuple[DivisorClass, ...], k: int) -> DivisorClass:
    out = _BASE_L_COEFF[k] * line_class
    for i in range(k):
        out = out - exceptional[i]
    return out


def alternative_base(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    """The base-point-free basis D_0 = l, D_1 = l-e1, ..., D_r of Pic."""
    if surface.kind != BLOWUP or not 2 <= surface.r <= 6:
        raise UnsupportedSurface(f"alternative base needs a blow-up of 2..6 points, not {surface}")
    l, *e = surface.units
    return tuple(_base_divisor(l, tuple(e), k) for k in range(surface.r + 1))


class BaseDecomposition(namedtuple("BaseDecomposition", "exceptional alphas")):
    """Writing of a divisor as sum(alpha_k * D_k) in a chosen exceptional frame.

    ``exceptional`` holds the r mutually disjoint (-1)-lines used as the
    exceptional classes e_1', ..., e_r' of the frame; for r <= 4 they are a
    permutation of the standard e_i, for r = 5, 6 the minimising-line choice
    may involve F- or G-classes.  ``alphas`` has length r + 1 and
    alpha_1..alpha_{r-1} >= 0 with alpha_r = D.e_r'.
    """

    __slots__ = ()

    def line_class(self) -> DivisorClass:
        """The class l' of the frame, recovered from -K + sum(e_i') = 3l'."""
        surface = self.exceptional[0].surface
        total = -canonical_class(surface)
        for ec in self.exceptional:
            total = total + ec
        if any(c % 3 for c in total.coeffs):
            raise InternalError("exceptional frame does not blow down to the plane")
        return DivisorClass(surface, tuple(c // 3 for c in total.coeffs))

    def base_divisors(self) -> tuple[DivisorClass, ...]:
        lp = self.line_class()
        return tuple(_base_divisor(lp, self.exceptional, k) for k in range(len(self.exceptional) + 1))

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
    decomposition = BaseDecomposition(tuple(lines[k] for k in order), (alpha_0,) + alphas)
    if decomposition.reconstruct() != D:
        raise InternalError(f"decomposition of {D} does not reconstruct")
    return decomposition
