"""Exception hierarchy with stable error codes.

Every error that can escape to the command line carries a short stable
``code`` so report consumers can match on it without parsing messages.
A bad argument to a library call, such as a twist that is not an
integer, raises the built-in ``TypeError`` or ``ValueError`` instead:
``InternalCheckError`` (exit 3) means two computations disagreed.
"""

from __future__ import annotations


class RamlociError(Exception):
    """Base class for all package errors."""

    code = "internal"


class ConfigError(RamlociError):
    """Invalid run configuration (bad ranges, insufficient grid, ...)."""

    code = "config"


class GridInsufficientError(ConfigError):
    """Certification grid too small for the declared degree bound."""

    code = "grid-insufficient"


class CurveSyntaxError(RamlociError):
    """Curve equation failed to parse; ``position`` is a 0-based offset."""

    code = "syntax"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CurveValidationError(RamlociError):
    code = "invalid-curve"


class EvenDegreeError(CurveValidationError):
    code = "even-degree"


class NotSquarefreeError(CurveValidationError):
    code = "not-squarefree"


class NotMonicError(CurveValidationError):
    code = "non-monic"


class NotOnCurveError(RamlociError):
    code = "not-on-curve"


class UnsupportedModelError(RamlociError):
    """Operation requires a different model (e.g. torsion needs genus 1)."""

    code = "unsupported-model"


class PrecisionExhaustedError(RamlociError):
    """A coefficient beyond the justified precision window was requested."""

    code = "precision-exhausted"


class InconclusiveError(RamlociError):
    """Precision cap reached without a conclusive valuation elimination."""

    code = "precision-cap"


class CannotDetermineValuationError(RamlociError):
    """All known coefficients of a series are zero."""

    code = "zero-valuation"


class NotASquareError(RamlociError):
    code = "not-a-square"


class DegenerateSystemError(RamlociError):
    """A wronskian vanished identically; the basis cannot be independent."""

    code = "zero-wronskian"


class InternalCheckError(RamlociError):
    """Two independent computations of the same quantity disagreed."""

    code = "consistency"
