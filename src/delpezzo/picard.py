"""Exact integer model of the Picard lattice of a strong del Pezzo surface.

A surface is either the blow-up of r <= 6 general points of the projective
plane (degree 9 - r) or the smooth quadric P1 x P1 (degree 8).  Divisor
classes are integer vectors in the standard basis (l, e1, ..., er),
respectively (h, m), and every invariant (intersection number, degree,
self-intersection, arithmetic genus, Euler characteristic) is computed in
exact integer arithmetic.

Sign convention: a blow-up class is stored as a*l + sum(c_i * e_i).  The
traditional presentation a*l - sum(b_i * e_i) therefore has c_i = -b_i.  The
text formatter prints the coefficients as they are stored, e.g. ``3l-2e1-e2``.
"""

import functools
import re
import sys
from operator import mul

from .errors import DivisorParseError, InternalError, SurfaceMismatch

BLOWUP = "blowup"
QUADRIC = "quadric"

#: Surface names accepted on the command line and in golden-file names.
SURFACE_NAMES = ("X0", "X1", "X2", "X3", "X4", "X5", "X6", "Q")


def _immutable(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


class SurfaceModel:
    """A strong del Pezzo surface (``BlowUp`` of r points or the quadric) and its lattice.

    ``kind`` and ``r`` name the surface.  Everything else is derived from them
    once, when the model is built, and every lattice operation reads it here:

    * ``gram``: the nonzero entries ``(i, j, value)`` of the Gram matrix in
      the standard basis, one per coordinate: ``l^2 = 1`` and ``e_i^2 = -1``
      on blow-ups, ``h.m = m.h = 1`` on the quadric;
    * ``canonical`` and ``hyperplane``: the classes K (``-3l+e1+...+er``, ``-2h-2m``) and H = -K;
    * ``degree_vector``: the coefficients of the functional D -> D.H,
      ``(3, 1, ..., 1)`` on blow-ups and ``(2, 2)`` on the quadric;
    * ``degree`` (H^2), ``rank``, ``name``, ``basis`` (the basis symbols) and
      ``symbols`` (every symbol of the divisor text grammar, with its vector).
    """

    __slots__ = ("kind", "r", "rank", "name", "basis", "symbols", "gram", "canonical",
                 "hyperplane", "degree_vector", "degree")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, kind: str, r: int | None = None):
        if kind == BLOWUP:
            if r is None or not 0 <= r <= 6:
                raise ValueError(f"blow-up point count must be 0..6, got {r}")
            rank, name = r + 1, f"X{r}"
            basis = ("l",) + tuple(f"e{i}" for i in range(1, rank))
            gram = ((0, 0, 1),) + tuple((i, i, -1) for i in range(1, rank))
            canonical = (-3,) + (1,) * r
        elif kind == QUADRIC:
            if r is not None:
                raise ValueError("the quadric has no blow-up point count")
            rank, name, basis = 2, "Q", ("h", "m")
            gram = ((0, 1, 1), (1, 0, 1))
            canonical = (-2, -2)
        else:
            raise ValueError(f"unknown surface kind {kind!r}")
        vectors = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
        symbols = dict(zip(basis, vectors))
        if r == 1:  # section C0 = e1 and fibre f = l - e1 of the one-point blow-up
            symbols.update(C0=(0, 1), f=(1, -1))
        put = functools.partial(object.__setattr__, self)
        put("kind", kind)
        put("r", r)
        put("rank", rank)
        put("name", name)
        put("basis", basis)
        put("symbols", symbols)
        put("gram", gram)
        put("canonical", DivisorClass(self, canonical))
        put("hyperplane", -self.canonical)
        H = self.hyperplane.coeffs
        put("degree_vector", tuple(self.pair(v, H) for v in vectors))
        put("degree", self.pair(H, H))

    def pair(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        """Intersection number of two coefficient vectors, in O(rank)."""
        total = 0
        for i, j, value in self.gram:
            total += value * u[i] * v[j]
        return total

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.r) == (other.kind, other.r)

    def __hash__(self) -> int:
        return hash((self.kind, self.r))

    def __repr__(self) -> str:
        return f"SurfaceModel(kind={self.kind!r}, r={self.r!r})"

    def __reduce__(self):
        return SurfaceModel, (self.kind, self.r)

    def __str__(self) -> str:
        return self.name


@functools.lru_cache(maxsize=None)
def blow_up(r: int) -> SurfaceModel:
    return SurfaceModel(BLOWUP, r)


@functools.lru_cache(maxsize=None)
def quadric() -> SurfaceModel:
    return SurfaceModel(QUADRIC)


def surface_from_name(text: str) -> SurfaceModel:
    """Parse ``P2``, ``X0`` .. ``X6`` or ``Q`` (``P2`` is a synonym of ``X0``)."""
    t = text.strip().upper()
    if t == "P2":
        return blow_up(0)
    if t == "Q":
        return quadric()
    if len(t) == 2 and t[0] == "X" and t[1] in "0123456":
        return blow_up(int(t[1]))
    raise ValueError(f"unknown surface {text!r} (expected P2, X0..X6 or Q)")


class DivisorClass:
    """A linear-equivalence class of divisors, as an integer coefficient vector."""

    __slots__ = ("surface", "coeffs")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, surface: SurfaceModel, coeffs: tuple[int, ...]):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "coeffs", tuple(coeffs))  # a caller's list is copied, so it cannot alias
        self.__post_init__()  # the one hook every construction passes; tracers count it

    def __post_init__(self):
        if len(self.coeffs) != self.surface.rank:
            raise ValueError(
                f"expected {self.surface.rank} coefficients on {self.surface}, "
                f"got {len(self.coeffs)}"
            )
        if not all(isinstance(c, int) for c in self.coeffs):
            raise ValueError("divisor coefficients must be integers")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.surface, self.coeffs) == (other.surface, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.surface, self.coeffs))

    def __repr__(self) -> str:
        return f"DivisorClass(surface={self.surface!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return DivisorClass, (self.surface, self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _require_same_surface(self, other: "DivisorClass") -> None:
        if self.surface != other.surface:
            raise SurfaceMismatch(
                f"classes live on different surfaces: {self.surface} vs {other.surface}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(self.surface, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(self.surface, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "DivisorClass":
        if not isinstance(n, int):
            return NotImplemented
        return DivisorClass(self.surface, tuple(n * a for a in self.coeffs))

    def __str__(self) -> str:
        return format_divisor(self)


# ---------------------------------------------------------------------------
# intersection theory


def intersect(D: DivisorClass, E: DivisorClass) -> int:
    """Intersection number of two classes on the same surface (see ``SurfaceModel.gram``)."""
    D._require_same_surface(E)
    return D.surface.pair(D.coeffs, E.coeffs)


def degree(D: DivisorClass) -> int:
    """Degree of D as a curve under the anticanonical embedding: D.H."""
    return sum(map(mul, D.coeffs, D.surface.degree_vector))


def self_intersection(D: DivisorClass) -> int:
    return intersect(D, D)


def arithmetic_genus(D: DivisorClass) -> int:
    """p_a(D) = (D^2 - deg D)/2 + 1; an integer for every lattice class."""
    twice = self_intersection(D) - degree(D)
    if twice % 2 != 0:
        raise InternalError(f"odd adjunction numerator for {D}")
    return twice // 2 + 1


def euler_characteristic(D: DivisorClass) -> int:
    """Riemann-Roch value chi(D) = D.(D+H)/2 + 1."""
    twice = self_intersection(D) + degree(D)
    if twice % 2 != 0:
        raise InternalError(f"odd Riemann-Roch numerator for {D}")
    return twice // 2 + 1


# ---------------------------------------------------------------------------
# divisor text grammar: "3l-2e1-e2", "h+3m", "2C0+3f", "0"

def max_digits() -> int:
    """The most digits a divisor coefficient or a family rank may have: (limit - 1) // 2 for the int-to-str limit
    ``sys.get_int_max_str_digits()``, so that D^2, chi and the genus (at most 7 times a squared coefficient) and the
    Ext^1 dimensions of a rank-n plan (at most 2n) can be printed; no limit before Python 3.10.7, which lacks it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return (limit - 1) // 2 if limit else sys.maxsize


# One term: [sign] [digits] [symbol], whitespace anywhere.  [0-9], not \d:
# digits are ASCII only (\d and str.isdigit accept "²" and "٣"); \s accepts
# exactly what str.isspace does.
_TERM = re.compile(r"([+-]?)\s*([0-9]*)\s*(?:(C0|e[0-9]+|l|f|h|m)\s*)?")


def parse_divisor(surface: SurfaceModel, text: str) -> DivisorClass:
    """Parse divisor text into a class on ``surface``.

    The text is a sum of terms ``[sign] [digits] [symbol]``; every term after
    the first starts with '+' or '-'.  Whitespace is ignored, terms may appear
    in any order, repeated basis symbols are summed and a bare ``0`` term
    contributes nothing.  Unknown symbols for the surface are errors, not
    zeros; errors carry the character position of the offending token.
    Coefficients have at most :func:`max_digits` digits.
    """
    cap = max_digits()
    coeffs = [0] * surface.rank
    pos, n = len(text) - len(text.lstrip()), len(text)
    if pos == n:
        raise DivisorParseError("empty divisor text", n)
    while pos < n:
        m = _TERM.match(text, pos)
        sign, digits, sym = m.groups()
        if len(digits) > cap:
            raise DivisorParseError(f"coefficient has more than {cap} digits", m.start(2))
        if sym is not None:
            vec = surface.symbols.get("e" + sym[1:].lstrip("0") if sym[0] == "e" else sym)
            if vec is None:
                raise DivisorParseError(f"unknown basis symbol {sym!r} on {surface}", m.start(3))
            coeff = int(sign + (digits or "1"))
            for k, v in enumerate(vec):
                coeffs[k] += coeff * v
        elif not digits:
            raise DivisorParseError("expected a term", m.start(2))
        elif int(digits):
            raise DivisorParseError(f"coefficient {digits} lacks a basis symbol", m.end())
        pos = m.end()
        if pos < n and text[pos] not in "+-":
            raise DivisorParseError(f"unexpected {text[pos]!r} after term", pos)
    if any(len(str(abs(c))) > cap for c in coeffs):
        raise DivisorParseError(f"a summed coefficient has more than {cap} digits", 0)
    return DivisorClass(surface, coeffs)


def format_coefficients(surface: SurfaceModel, coeffs: tuple[int, ...]) -> str:
    """Canonical text form of a coefficient vector on ``surface``, e.g. ``3l-2e1-e2``, ``h+3m`` or ``0``."""
    parts: list[str] = []
    for c, sym in zip(coeffs, surface.basis):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}{sym}")
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out[0] == "+" else out


def format_divisor(D: DivisorClass) -> str:
    """Canonical text form of a class: :func:`format_coefficients` of its coefficients."""
    return format_coefficients(D.surface, D.coeffs)
