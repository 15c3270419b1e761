"""Exception types shared across the package."""
from __future__ import annotations


class CurveDegenError(Exception):
    """Base class for all package-specific errors."""


class ModelValidationError(CurveDegenError):
    """Raised when an operation requires a valid model and validation failed.

    Carries the structured report so callers can render diagnostics.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InternalConsistencyError(CurveDegenError):
    """A computed quantity violated an identity that must hold exactly.

    This always indicates a bug (or an invalid input that slipped past
    validation), never a numerical tolerance issue.
    """


class NumericalConvergenceError(CurveDegenError):
    """Quadrature refinement or an optimizer failed to converge.

    ``best`` is the last iterate.  After a refinement walk ``diagnostics``
    holds every iterate under "iterates" plus the caller's context; other
    failures put the values involved there.
    """

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class LiftError(CurveDegenError):
    """A measure could not be lifted through a domination map.

    Happens exactly when the measure puts nonzero atomic mass on a point
    that the map blows up; the lift is undefined there.
    """


class ParseError(CurveDegenError):
    """Model text could not be parsed. Carries source position."""

    def __init__(self, message, line=None, column=None):
        pos = "" if line is None else f" at line {line}, column {column}"
        super().__init__(f"{message}{pos}")
        self.message = message
        self.line = line
        self.column = column
