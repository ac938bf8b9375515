"""Exception hierarchy shared by the whole package."""

__all__ = ["ConvergenceError", "DegeneratePairError", "DomainError", "MeanBoundError"]


class MeanBoundError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MeanBoundError, ValueError):
    """An argument lies outside the contracted domain of an operation."""


class DegeneratePairError(DomainError):
    """A pair with a == b was passed to an operation that is 0/0 there."""


class ConvergenceError(MeanBoundError, ArithmeticError):
    """A numerical cross-check failed to converge; signals an implementation bug."""
