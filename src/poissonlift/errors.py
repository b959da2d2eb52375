"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input text.  ``position`` is a 0-based character offset,
    ``line`` a 1-based line number; either may be None."""

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        elif position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
        self.line = line


class UnknownSymbolError(ValueError):
    """An identifier does not belong to the declared variable universe."""


class MissingAssignmentError(ValueError):
    """A point evaluation did not cover every variable."""


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


class KindMismatchError(TypeError):
    """A form was combined with a multivector (or vice versa)."""


class DegreeError(ValueError):
    """Operand degree outside the operation's domain."""


class DimensionMismatchError(ValueError):
    """Coefficient vector or matrix has the wrong length."""


class NameCollisionError(ValueError):
    """Derived coordinate names would collide with existing ones."""


class NotPoissonError(ValueError):
    """A bivector without a verified Jacobi identity was used where a
    Poisson structure is required."""


class LevelSetError(ValueError):
    """The supplied parametrization does not land in the zero level set."""


class UnknownCatalogError(ValueError):
    """Unknown built-in catalog entry.  Lists the available names."""

    def __init__(self, name: str, available: tuple[str, ...]):
        super().__init__(f"unknown catalog entry {name!r}; available: {', '.join(available)}")
        self.name = name
        self.available = available
