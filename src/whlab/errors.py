"""Exception taxonomy shared by all modules.

Validation errors mean a precondition was violated before any numerics ran;
numeric failures mean the computation itself degenerated (overflow, empty
geometry).  The CLI maps the two classes to distinct exit codes.
"""

__all__ = ["ValidationError", "NumericFailure", "DegenerateBallError"]


class ValidationError(ValueError):
    """A documented precondition does not hold."""


class NumericFailure(ArithmeticError):
    """A computation degenerated: overflow, vanishing denominator, empty set."""


class DegenerateBallError(NumericFailure):
    """A ball contains no grid node."""
