"""Intersection bounds, extension-space dimensions and rank-n family plans.

On a surface of degree d <= 6 a pair of distinct maximal-degree ACM classes
C, D with C.D = 1 + d seeds iterated extensions whose parameter spaces grow
linearly in the rank, which is the numeric content of wild representation
type.  Everything here is integer bookkeeping on divisor classes: the
sheaves themselves are never constructed.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .errors import (
    InternalError,
    NotApplicable,
    NotFound,
    PreconditionViolated,
    SurfaceMismatch,
    UnsupportedSurface,
)
from .acm import classes_of_degree, is_acm_initialized
from .picard import (
    DivisorClass,
    SurfaceModel,
    degree,
    euler_characteristic,
    hyperplane,
    intersect,
)


# ---------------------------------------------------------------------------
# intersection bounds for ACM classes


def intersection_upper_bound(c: int, d: int, m: int, n: int) -> int:
    """Upper bound 2 + (m-1)(c+d) - m(m-1)n/2 for curves of degree c, d.

    Valid in the window (m-1)n < c+d <= mn; equality forces C + D ~ mH.
    """
    if c < 1 or d < 1 or m < 1:
        raise PreconditionViolated(f"need c, d, m >= 1, got c={c} d={d} m={m}")
    if not (m - 1) * n < c + d <= m * n:
        raise PreconditionViolated(f"c+d={c + d} outside the window ({(m - 1) * n}, {m * n}]")
    return 2 + (m - 1) * (c + d) - m * (m - 1) * n // 2


def intersection_lower_bound(c: int, d: int) -> int:
    """Lower bound min(c, d) - 2; attained exactly by linearly equivalent pairs."""
    if c < 1 or d < 1:
        raise PreconditionViolated(f"need c, d >= 1, got c={c} d={d}")
    return min(c, d) - 2


# ---------------------------------------------------------------------------
# Ext dimensions between maximal-degree classes


ExtDimensions = namedtuple("ExtDimensions", "hom ext1 ext2")


def _require_maximal_acm(D: DivisorClass, role: str) -> None:
    if not is_acm_initialized(D) or D.is_zero:
        raise PreconditionViolated(f"{role} = {D} is not a nonzero initialized ACM class")
    if degree(D) != D.surface.degree:
        raise PreconditionViolated(
            f"{role} = {D} has degree {degree(D)}, not the maximal {D.surface.degree}"
        )


def ext_dimensions(C: DivisorClass, D: DivisorClass) -> ExtDimensions:
    """(hom, ext1, ext2) between the line bundles of two distinct maximal classes.

    Hom and Ext^2 vanish; dim Ext^1 = 1 + C.D - d = -chi(D - C).
    """
    if C == D:
        raise NotApplicable("Ext dimensions are stated for distinct classes")
    _require_maximal_acm(C, "C")
    _require_maximal_acm(D, "D")
    d = C.surface.degree
    ext1 = 1 + intersect(C, D) - d
    if ext1 != -euler_characteristic(D - C):
        raise InternalError("Ext^1 dimension disagrees with Riemann-Roch")
    if ext1 < 0:
        raise InternalError(f"negative Ext^1 dimension for {C}, {D}")
    return ExtDimensions(0, ext1, 0)


def ext1_dimension(C: DivisorClass, D: DivisorClass) -> int:
    return ext_dimensions(C, D).ext1


def ext1_dimension_vs_rank2(R: DivisorClass, C: DivisorClass, D: DivisorClass) -> int:
    """dim Ext^1 from O(R) into a rank-2 extension of O(D) by O(C): 2 - 2d + C.R + D.R."""
    if R in (C, D) or C == D:
        raise NotApplicable("R, C, D must be pairwise distinct classes")
    for role, cls in (("R", R), ("C", C), ("D", D)):
        _require_maximal_acm(cls, role)
    d = R.surface.degree
    return 2 - 2 * d + intersect(C, R) + intersect(D, R)


# ---------------------------------------------------------------------------
# wild pairs


class WildPair(namedtuple("WildPair", "C D E F")):
    """Distinct maximal-degree ACM classes with C.D = 1 + d, plus E = 2H - C, F = 2H - D."""

    __slots__ = ()

    def relation_block(self) -> tuple[int, int, int, int, int, int]:
        """The six values 1 + X.Y - d for (C,E), (D,F), (C,D), (E,F), (D,E), (C,F)."""
        d = self.C.surface.degree
        pairs = (
            (self.C, self.E),
            (self.D, self.F),
            (self.C, self.D),
            (self.E, self.F),
            (self.D, self.E),
            (self.C, self.F),
        )
        return tuple(1 + intersect(x, y) - d for x, y in pairs)


def _make_pair(C: DivisorClass, D: DivisorClass) -> WildPair:
    two_h = 2 * hyperplane(C.surface)
    pair = WildPair(C, D, two_h - C, two_h - D)
    for member in (pair.E, pair.F):
        _require_maximal_acm(member, "2H complement")
    if len({pair.C, pair.D, pair.E, pair.F}) != 4:
        raise InternalError(f"wild pair members are not distinct: {pair}")
    if pair.relation_block() != (3, 3, 2, 2, 0, 0):
        raise InternalError(f"relation block violated for {pair}")
    return pair


def _wild_pairs(surface: SurfaceModel) -> Iterator[WildPair]:
    """Ordered pairs of distinct maximal-degree classes with C.D = 1 + d, in canonical order."""
    n = surface.degree
    maximal = classes_of_degree(surface, n)
    for C in maximal:
        for D in maximal:
            if C != D and intersect(C, D) == 1 + n:
                yield _make_pair(C, D)


def find_wild_pairs(surface: SurfaceModel) -> list[WildPair]:
    """All ordered pairs of distinct maximal-degree classes with C.D = 1 + d."""
    return list(_wild_pairs(surface))


def find_wild_pair(surface: SurfaceModel) -> WildPair:
    """First pair in canonical order; NotFound when the search is empty."""
    pair = next(_wild_pairs(surface), None)
    if pair is None:
        raise NotFound(
            f"no pair of maximal-degree ACM classes with C.D = {1 + surface.degree} on {surface}"
        )
    return pair


# ---------------------------------------------------------------------------
# family plans

RANK2 = "rank2"
ODD = "odd"
EVEN = "even"


class ExtensionStep(namedtuple("ExtensionStep", "sub quotient ext1_dim repeat", defaults=(1,))):
    """One extension in a construction schedule: 0 -> sub -> ? -> O(quotient) -> 0."""

    __slots__ = ()


class FamilyPlan(namedtuple("FamilyPlan", "rank shape m param_dim schedule pair")):
    """Construction schedule and parameter-space dimension for rank ``rank``."""

    __slots__ = ()


def family_plan(surface: SurfaceModel, n: int) -> FamilyPlan:
    """Plan the rank-n family of simple ACM bundles on a degree <= 6 surface.

    Rank 2: extensions of O(C) by O(E), a P^2 of bundles.  Rank 2m+1: m
    distinct rank-2 extensions of O(D) by O(C), then one extension by O(E),
    giving (P^2)^m.  Rank 2m+2: the odd-rank bundle extended by O(F),
    giving P^(1+3m).  All Ext^1 dimensions are recomputed from the pair.
    """
    if surface.degree > 6:
        raise UnsupportedSurface(
            f"the family construction needs degree <= 6, {surface} has degree {surface.degree}"
        )
    if n < 2:
        raise PreconditionViolated(f"rank must be at least 2, got {n}")
    pair = find_wild_pair(surface)
    C, D, E, F = pair.C, pair.D, pair.E, pair.F
    if n == 2:
        ext_ce = ext1_dimension(C, E)
        step = ExtensionStep(sub=f"O({E})", quotient=C, ext1_dim=ext_ce)
        return FamilyPlan(2, RANK2, None, ext_ce - 1, (step,), pair)
    m = (n - 1) // 2
    ext_cd = ext1_dimension(D, C)
    ext_e_block = ext1_dimension_vs_rank2(E, C, D)
    rank2_step = ExtensionStep(sub=f"O({C})", quotient=D, ext1_dim=ext_cd, repeat=m)
    blocks = " + ".join(f"E{i + 1}" for i in range(m)) if m <= 3 else f"E1 + ... + E{m}"
    odd_step = ExtensionStep(sub=blocks, quotient=E, ext1_dim=m * ext_e_block)
    if n % 2 == 1:
        param = m * (ext_e_block - 1)
        return FamilyPlan(n, ODD, m, param, (rank2_step, odd_step), pair)
    ext_f_total = m * ext1_dimension_vs_rank2(F, C, D) + ext1_dimension(E, F)
    even_step = ExtensionStep(sub=f"H (rank {2 * m + 1})", quotient=F, ext1_dim=ext_f_total)
    return FamilyPlan(n, EVEN, m, ext_f_total - 1, (rank2_step, odd_step, even_step), pair)


def family_slope(surface: SurfaceModel, plan: FamilyPlan) -> int:
    """Slope (total degree / rank) of every bundle in the plan: H^2 of its surface.

    Every constituent line bundle O(C), O(D), O(E), O(F) is a maximal-degree
    ACM class, of degree H^2, so a rank-n bundle has total degree n H^2.
    Raises SurfaceMismatch when ``surface`` is not the plan's surface.
    """
    plan_surface = plan.pair.C.surface
    if surface != plan_surface:
        raise SurfaceMismatch(f"the plan lives on {plan_surface}, not on {surface}")
    return plan_surface.degree


# ---------------------------------------------------------------------------
# 0-regularity


def is_zero_regular_acm(D: DivisorClass) -> bool:
    """An initialized ACM class is 0-regular exactly when its degree is H^2."""
    if not is_acm_initialized(D):
        raise PreconditionViolated(f"{D} is not an initialized ACM class")
    return not D.is_zero and degree(D) == D.surface.degree


def h2_twist_minus_2(D: DivisorClass) -> int:
    """h^2 of the second negative twist: chi(D - 2H) = H^2 - D.H (H^2 + 1 at D = 0)."""
    if not is_acm_initialized(D):
        raise PreconditionViolated(f"{D} is not an initialized ACM class")
    n = D.surface.degree
    if D.is_zero:
        value = n + 1
    else:
        value = n - degree(D)
    if value != euler_characteristic(D - 2 * hyperplane(D.surface)):
        raise InternalError("h^2 closed form disagrees with Riemann-Roch")
    return value
