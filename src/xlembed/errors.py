"""Exception types and the input checks shared across the toolkit.

Everything raised on bad user input derives from ToolkitError so the CLI
can map it to a single "data/validation" exit code.
"""

from __future__ import annotations

import math
import numbers


class ToolkitError(Exception):
    """Base class for all errors raised by this package on bad input."""


class FormatError(ToolkitError):
    """A file on disk does not match its documented format."""


class ValidationError(ToolkitError):
    """Inputs are well-formed but violate a documented precondition."""


def check_count(name: str, value: object, minimum: int) -> None:
    """Raise ValidationError unless value is an int of at least minimum.

    A bool is refused: it is an int subclass, so True would pass as 1.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value: object) -> None:
    """Raise ValidationError unless value is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
