"""(-1)-lines of a strong del Pezzo surface and the positivity tests built on them.

Covers: the lines, labelled, which are the ACM classes of degree 1;
effectivity, very-ampleness and smooth members without line components,
each a sign test against the lines, conics and twisted cubics of the ACM
catalog; h^1 of the first negative twist; and the alternative basis
D_0..D_r with its divisor decomposition.
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


def _complete_disjoint(
    chosen: list[DivisorClass], pool: list[DivisorClass], want: int
) -> list[DivisorClass] | None:
    if len(chosen) == want:
        return chosen
    for k, cand in enumerate(pool):
        if all(intersect(cand, c) == 0 for c in chosen):
            found = _complete_disjoint(chosen + [cand], pool[k + 1 :], want)
            if found is not None:
                return found
    return None


def decompose(D: DivisorClass) -> BaseDecomposition:
    """Decompose D over the alternative base of a suitable exceptional frame.

    For r <= 4 the standard exceptional classes are relabeled so the
    multiplicities are non-increasing.  For r = 5, 6 the frame's last two
    slots are lines minimising D.L (first over all lines, then over lines
    disjoint from the first), which makes alpha_0 >= 0; ties are broken by
    the canonical line order.
    """
    surface = D.surface
    if surface.kind != BLOWUP or not 2 <= surface.r <= 6:
        raise UnsupportedSurface(f"decomposition needs a blow-up of 2..6 points, not {surface}")
    r = surface.r
    if r <= 4:
        standard = surface.units[1:]
        order = sorted(range(r), key=lambda i: (-intersect(D, standard[i]), i))
        frame = tuple(standard[i] for i in order)
    else:
        lines = [L.divisor for L in enumerate_lines(surface)]
        last = min(lines, key=lambda L: intersect(D, L))
        disjoint = [L for L in lines if L != last and intersect(L, last) == 0]
        second = min(disjoint, key=lambda L: intersect(D, L))
        completion = _complete_disjoint(
            [last, second], [L for L in lines if L not in (last, second)], r
        )
        if completion is None:
            raise InternalError("could not extend two skew lines to a full exceptional frame")
        others = sorted(
            completion[2:], key=lambda L: (-intersect(D, L), lines.index(L))
        )
        frame = tuple(others) + (second, last)

    decomposition = _assemble(D, frame)
    if decomposition.reconstruct() != D:
        raise InternalError(f"decomposition of {D} does not reconstruct")
    return decomposition


def _assemble(D: DivisorClass, frame: tuple[DivisorClass, ...]) -> BaseDecomposition:
    r = len(frame)
    shell = BaseDecomposition(frame, (0,) * (r + 1))
    a = intersect(D, shell.line_class())
    b = [intersect(D, ec) for ec in frame]
    if any(b[i] < b[i + 1] for i in range(r - 1)):
        raise InternalError("exceptional frame is not sorted by multiplicity")
    tail = tuple(b[i] - b[i + 1] for i in range(r - 1)) + (b[r - 1],)
    return BaseDecomposition(frame, (a - sum(map(mul, _BASE_L_COEFF[1:], tail)),) + tail)
