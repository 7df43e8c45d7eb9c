"""Exception types shared across the package."""


class SurfaceMismatch(ValueError):
    """Operands live on different surfaces."""


class UnsupportedSurface(ValueError):
    """The requested construction is not defined on this surface."""


class PreconditionViolated(ValueError):
    """A documented precondition of the operation does not hold (e.g. equal classes)."""


class NotFound(LookupError):
    """An exhaustive search finished without a hit."""


class InternalError(RuntimeError):
    """A state that should be impossible; signals a bug, not bad input."""


class DivisorParseError(ValueError):
    """Divisor text does not conform to the grammar.

    ``position`` is the 0-based character offset of the offending token in
    the original input string.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
