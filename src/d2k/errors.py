"""Exception types shared across the package."""
from __future__ import annotations


class D2KError(Exception):
    """Base class for all package-specific errors."""


class EdgeListFormatError(D2KError, ValueError):
    """A malformed pair in an edge list; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class TargetStructureError(D2KError, ValueError):
    """A target object or file is structurally malformed (distinct from
    being well-formed but unrealizable)."""


class NotRealizableError(D2KError):
    """A construction was asked to realize a non-graphical target."""

    def __init__(self, report):
        super().__init__("target is not realizable:\n" + report.to_text())
        self.report = report


class NotGraphicalError(D2KError, ValueError):
    """A directed degree sequence admits no simple realization."""


class ConstructionInvariantError(D2KError, RuntimeError):
    """An internal invariant of the constructor was violated.

    This must never happen on a realizable target; it signals a bug, not a
    bad input, and is deliberately raised even in optimized runs.
    """


class SwapError(D2KError, ValueError):
    """A swap move or edge list is malformed (e.g. names a missing edge)."""
