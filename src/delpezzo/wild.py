"""Extension dimensions between maximal-degree classes, wild pairs and rank-n family plans.

On a surface of degree d <= 6 a pair of distinct maximal-degree ACM classes
C, D with C.D = 1 + d seeds iterated extensions whose parameter spaces grow
linearly in the rank, which is the numeric content of wild representation
type.  Everything here is integer bookkeeping on divisor classes: the
sheaves themselves are never constructed.  The Ext groups between line
bundles are the cohomology of a difference, Ext^i(O(C), O(D)) =
H^i(O(D - C)), read off ``geometry.cohomology``.
"""

from collections import namedtuple
from collections.abc import Iterator

from .errors import InternalError, NotFound, PreconditionViolated, UnsupportedSurface
from .acm import coefficients_of_degree, is_acm_initialized
from .geometry import cohomology
from .picard import DivisorClass, SurfaceModel, degree, intersect, max_digits


# ---------------------------------------------------------------------------
# Ext dimensions between maximal-degree classes


def _require_maximal_acm(D: DivisorClass) -> None:
    if degree(D) != D.surface.degree or not is_acm_initialized(D):
        raise PreconditionViolated(f"{D} is not an initialized ACM class of the maximal degree {D.surface.degree}")


def ext1_dimension(C: DivisorClass, D: DivisorClass) -> int:
    """dim Ext^1 between the line bundles of two distinct maximal classes:
    1 + C.D - d, checked against the cohomology of D - C, which also proves
    Hom = Ext^2 = 0 (D - C has degree 0 and K - D + C degree -d)."""
    if C == D:
        raise PreconditionViolated("Ext dimensions are stated for distinct classes")
    _require_maximal_acm(C)
    _require_maximal_acm(D)
    ext1 = 1 + intersect(C, D) - C.surface.degree
    if cohomology(D - C) != (0, ext1, 0):
        raise InternalError(f"Ext groups of {C}, {D} disagree with 1 + C.D - d")
    return ext1


# ---------------------------------------------------------------------------
# wild pairs


# The relation block every wild pair satisfies: dim Ext^1 = 1 + X.Y - d for
# the members X, Y named by each key, in the order plans and payloads use.
RELATIONS = {"CE": 3, "DF": 3, "CD": 2, "EF": 2, "DE": 0, "CF": 0}


class WildPair(namedtuple("WildPair", "C D E F")):
    """Distinct maximal-degree ACM classes with C.D = 1 + d, plus E = 2H - C, F = 2H - D."""

    __slots__ = ()

    def relation_block(self) -> tuple[int, ...]:
        """``ext1_dimension`` = 1 + X.Y - d over the member pairs named in :data:`RELATIONS`."""
        return tuple(ext1_dimension(getattr(self, x), getattr(self, y)) for x, y in RELATIONS)


def _make_pair(C: DivisorClass, D: DivisorClass) -> WildPair:
    two_h = 2 * C.surface.hyperplane
    pair = WildPair(C, D, two_h - C, two_h - D)
    if len(set(pair)) != 4:
        raise InternalError(f"wild pair members are not distinct: {pair}")
    if pair.relation_block() != tuple(RELATIONS.values()):
        raise InternalError(f"relation block violated for {pair}")
    return pair


def _wild_pairs(surface: SurfaceModel) -> Iterator[WildPair]:
    """Ordered pairs of distinct maximal-degree classes with C.D = 1 + d, C then D in the catalog order."""
    n = surface.degree
    maximal = coefficients_of_degree(surface, n)
    for u in maximal:
        for v in maximal:
            if u != v and surface.pair(u, v) == 1 + n:
                yield _make_pair(DivisorClass(surface, u), DivisorClass(surface, v))


def find_wild_pairs(surface: SurfaceModel) -> list[WildPair]:
    """All ordered pairs of distinct maximal-degree classes with C.D = 1 + d."""
    return list(_wild_pairs(surface))


def find_wild_pair(surface: SurfaceModel) -> WildPair:
    """First pair in the catalog order of C, then D; NotFound when the search is empty."""
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
    giving P^(1+3m).  The Ext^1 dimensions are read off :data:`RELATIONS`,
    which every pair is checked against when it is found.  Every bundle of
    the plan has slope H^2, the surface's ``degree``: each of O(C), O(D),
    O(E), O(F) has degree H^2.  The rank has at most ``picard.max_digits()``
    digits.
    """
    if n < 2:
        raise PreconditionViolated(f"rank must be at least 2, got {n}")
    cap = max_digits()
    if n >= 10 ** min(cap, n.bit_length()):  # n >= 10**cap; the bit length keeps the power small
        raise PreconditionViolated(f"rank has more than {cap} digits")
    if surface.degree > 6:
        raise UnsupportedSurface(
            f"the family construction needs degree <= 6, {surface} has degree {surface.degree}"
        )
    pair = find_wild_pair(surface)
    C, D, E, F = pair
    ce, df, cd, ef, de, cf = RELATIONS.values()
    if n == 2:
        step = ExtensionStep(sub=f"O({E})", quotient=C, ext1_dim=ce)
        return FamilyPlan(2, RANK2, None, ce - 1, (step,), pair)
    m = (n - 1) // 2
    rank2_step = ExtensionStep(sub=f"O({C})", quotient=D, ext1_dim=cd, repeat=m)
    blocks = " + ".join(f"E{i + 1}" for i in range(m)) if m <= 3 else f"E1 + ... + E{m}"
    odd_step = ExtensionStep(sub=blocks, quotient=E, ext1_dim=m * (ce + de))
    if n % 2 == 1:
        return FamilyPlan(n, ODD, m, m * (ce + de - 1), (rank2_step, odd_step), pair)
    ext_f_total = m * (cf + df) + ef
    even_step = ExtensionStep(sub=f"H (rank {2 * m + 1})", quotient=F, ext1_dim=ext_f_total)
    return FamilyPlan(n, EVEN, m, ext_f_total - 1, (rank2_step, odd_step, even_step), pair)


# ---------------------------------------------------------------------------
# 0-regularity


def is_zero_regular_acm(D: DivisorClass) -> bool | None:
    """An initialized ACM class is 0-regular exactly when its degree is H^2;
    None for any other class, where 0-regularity is not stated.

    Equivalently O(D) is Ulrich: every h^i(D - H) and h^i(D - 2H) vanishes.
    Riemann-Roch with D^2 = D.H - 2 gives chi(D - H) = 0 and chi(D - 2H) =
    H^2 - D.H for D != 0; h^0 of both twists vanishes (D is initialized) and
    h^1 too (D is ACM), so h^2 = chi, zero on both exactly when D.H = H^2.
    At D = 0, h^2(-H) = h^0(0) = 1.
    """
    if not is_acm_initialized(D):
        return None
    return not D.is_zero and degree(D) == D.surface.degree
