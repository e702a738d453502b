"""Error types shared across the package.

Exit-code mapping used by the CLI: InvalidInputError and its subclasses are
input/validation failures (exit 1); AmbiguityError (a certified-precision
failure) and BudgetError (a run over its budget) exit 2.
"""


class InvalidInputError(ValueError):
    """Input violates a documented precondition."""


class UnsupportedRingError(InvalidInputError):
    """Ring is valid but outside the supported class (e.g. noncommutative)."""


class DegreeCapError(InvalidInputError):
    """Polynomial degree exceeds the factorization cap."""


class AmbiguityError(ArithmeticError):
    """A sign or floor could not be certified within the precision cap."""


class BudgetError(ArithmeticError):
    """A run would exceed its budget: a bounded search's enumeration steps,
    or the size of an exact result."""
