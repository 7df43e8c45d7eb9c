"""Frozen expected values for the classification tables, and the paper's
closed forms and lemmas, kept here as the references the tests check the
engine against.

Cells are verified counts per degree for each surface; a degree is listed
exactly when it does not exceed the surface degree (the blank cells of the
printed table).  TOTALS is the bottom row.  The lemmas below (the
intersection bounds for ACM curves, the alternative base and its frame
decomposition, Ext^1 into a rank-2 extension, the ruled coordinates on X1)
have no caller in the package; the tests hold them against the catalog, the
lines and the divisor grammar.  :func:`classes_of_degree` builds the catalog
of one degree as classes, which the package expands as coefficient tuples.
"""

from collections import namedtuple
from operator import mul

from delpezzo import (
    DivisorClass,
    InternalError,
    PreconditionViolated,
    SurfaceMismatch,
    SurfaceModel,
    UnsupportedSurface,
    arithmetic_genus,
    degree,
    intersect,
    parse_divisor,
)
from delpezzo.acm import coefficients_of_degree
from delpezzo.geometry import enumerate_lines, moving_part

EXPECTED_COUNTS = {
    "X0": {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 1, 7: 0, 8: 0, 9: 0},
    "X1": {0: 1, 1: 1, 2: 1, 3: 1, 4: 0, 5: 1, 6: 1, 7: 1, 8: 0},
    "X2": {0: 1, 1: 3, 2: 2, 3: 1, 4: 1, 5: 2, 6: 3, 7: 2},
    "X3": {0: 1, 1: 6, 2: 3, 3: 2, 4: 3, 5: 6, 6: 8},
    "X4": {0: 1, 1: 10, 2: 5, 3: 5, 4: 10, 5: 20},
    "X5": {0: 1, 1: 16, 2: 10, 3: 16, 4: 40},
    "X6": {0: 1, 1: 27, 2: 27, 3: 72},
    "Q": {0: 1, 1: 0, 2: 2, 3: 0, 4: 1, 5: 0, 6: 2, 7: 0, 8: 2},
}

TOTALS = {"X0": 3, "X1": 7, "X2": 15, "X3": 29, "X4": 51, "X5": 83, "X6": 127, "Q": 8}

LINE_COUNTS = {"X0": 0, "X1": 1, "X2": 3, "X3": 6, "X4": 10, "X5": 16, "X6": 27, "Q": 0}

# rows of the wild-pair table: surface -> (C text, D text, C.D)
WILD_TABLE = {
    "X3": ("3l-2e1-e2", "3l-2e2-e3", 7),
    "X4": ("3l-2e1-e2-e3", "3l-2e2-e3-e4", 6),
    "X5": ("3l-2e1-e2-e3-e4", "3l-2e2-e3-e4-e5", 5),
    "X6": ("3l-2e1-e2-e3-e4-e5", "3l-2e2-e3-e4-e5-e6", 4),
}


def units(surface):
    """The basis classes, (l, e1, ..., er) on blow-ups or (h, m) on the quadric."""
    return tuple(DivisorClass(surface, surface.symbols[b]) for b in surface.basis)


def classes_of_degree(surface, c):
    """Every initialized ACM class of degree c, in the order of ``acm.coefficients_of_degree``."""
    return tuple(DivisorClass(surface, v) for v in coefficients_of_degree(surface, c))


# Closed forms of the paper for the cohomology of an initialized ACM class D,
# the oracles of geometry.cohomology.  For D != 0, D^2 = D.H - 2 gives
# chi(D) = D.H, chi(D - H) = 0 and chi(D - 2H) = H^2 - D.H.


def ambient_dimension(D):
    """h^0(D) = D.H: the rational normal curve of degree D.H."""
    return degree(D)


def h0_hyperplane_residual(D):
    """Independent hyperplanes through the curve: h^0(H - D) = H^2 - D.H."""
    return D.surface.degree - degree(D)


def h1_initialized_twist(D):
    """h^1(D - H) = -chi(D - H) = -p_a(D) for a nonzero initialized effective class."""
    return -arithmetic_genus(D)


def h2_twist_minus_2(D):
    """h^2(D - 2H) = chi(D - 2H) = H^2 - D.H, and H^2 + 1 at D = 0."""
    return D.surface.degree + 1 if D.is_zero else D.surface.degree - degree(D)


def ext1_closed_form(X, Y):
    """dim Ext^1(O(X), O(Y)) = 1 + X.Y - d for distinct maximal-degree classes."""
    return 1 + intersect(X, Y) - X.surface.degree


def ext1_dimension_vs_rank2(R, C, D):
    """dim Ext^1 from O(R) into a rank-2 extension of O(D) by O(C): 2 - 2d + C.R + D.R.

    Ext^1 is additive over the extension, so this is the sum of the two
    line-bundle dimensions 1 + C.R - d and 1 + D.R - d.
    """
    return 2 - 2 * R.surface.degree + intersect(C, R) + intersect(D, R)


def has_smooth_nonline_member(D):
    """Whether |D| contains smooth curves with no (-1)-line as a component: D is
    its own moving part (see ``geometry.moving_part``).  The oracle of the
    ``smooth_member`` field of ``acm classify``; needs a nonzero effective class."""
    if D.is_zero:
        raise PreconditionViolated("the smooth-member criterion needs a nonzero class")
    P = moving_part(D)
    if P is None:
        raise PreconditionViolated(f"{D} is not effective")
    return P == D


# --- intersection bounds for ACM curves ---------------------------------------------


def intersection_upper_bound(c, d, m, n):
    """Upper bound 2 + (m-1)(c+d) - m(m-1)n/2 for curves of degree c, d.

    Valid in the window (m-1)n < c+d <= mn; equality forces C + D ~ mH.
    """
    if c < 1 or d < 1 or m < 1:
        raise PreconditionViolated(f"need c, d, m >= 1, got c={c} d={d} m={m}")
    if not (m - 1) * n < c + d <= m * n:
        raise PreconditionViolated(f"c+d={c + d} outside the window ({(m - 1) * n}, {m * n}]")
    return 2 + (m - 1) * (c + d) - m * (m - 1) * n // 2


def intersection_lower_bound(c, d):
    """Lower bound min(c, d) - 2; attained exactly by linearly equivalent pairs."""
    if c < 1 or d < 1:
        raise PreconditionViolated(f"need c, d >= 1, got c={c} d={d}")
    return min(c, d) - 2


# --- ruled coordinates on X1 --------------------------------------------------------


class RuledCoords(namedtuple("RuledCoords", "c0 f")):
    """Coordinates of an X1 class in the section/fibre basis C0 = e1, f = l - e1:
    a*C0 + b*f = b*l - (b - a)*e1."""

    __slots__ = ()


def to_ruled(D):
    if D.surface is not SurfaceModel(1):
        raise SurfaceMismatch("the C0,f basis exists only on the one-point blow-up")
    a, c1 = D.coeffs
    return RuledCoords(c0=a + c1, f=a)


def from_ruled(coords):
    """The class a*C0 + b*f, read by the divisor grammar's X1 symbols."""
    return parse_divisor(SurfaceModel(1), f"{coords.c0}C0{coords.f:+d}f")


# --- alternative base and decomposition ---------------------------------------------

# l-coefficients of D_0..D_6: l, l-e1, 2l-e1-e2, ..., 3l-e1-..-e6
_BASE_L_COEFF = (1, 1, 2, 2, 2, 3, 3)


def alternative_base(surface):
    """The base-point-free basis D_0 = l, D_1 = l-e1, ..., D_r of Pic."""
    if surface.r not in range(2, 7):
        raise UnsupportedSurface(f"alternative base needs a blow-up of 2..6 points, not {surface}")
    l, *e = units(surface)
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

    def base_divisors(self):
        """D_0, ..., D_r of the frame: D_k = c_k l' - e_1' - ... - e_k'."""
        bases = []
        for k, c in enumerate(_BASE_L_COEFF[: len(self.exceptional) + 1]):
            out = c * self.line_class
            for ec in self.exceptional[:k]:
                out = out - ec
            bases.append(out)
        return tuple(bases)

    def reconstruct(self):
        bases = self.base_divisors()
        out = self.alphas[0] * bases[0]
        for alpha, base in zip(self.alphas[1:], bases[1:]):
            out = out + alpha * base
        return out

    @property
    def permutation(self):
        """1-based relabeling of the standard e_i, when the frame is one."""
        surface = self.exceptional[0].surface
        standard = list(units(surface)[1:])
        perm = []
        for ec in self.exceptional:
            if ec not in standard:
                return None
            perm.append(standard.index(ec) + 1)
        return tuple(perm)


def decompose(D):
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
    if surface.r not in range(2, 7):
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
