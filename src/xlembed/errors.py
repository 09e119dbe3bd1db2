"""Exception types and the input checks shared across the toolkit.

Everything raised on bad user input derives from ToolkitError so the CLI
can map it to a single "data/validation" exit code. A public argument is
admitted by one of three checks: ``check_count`` for counts, ``check_real``
for real numbers and ``check_array`` for arrays of real numbers; each
caller adds only its own range or shape rule.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.typing import DTypeLike


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


def check_array(name: str, value: object, dtype: DTypeLike = None, ndim: int | None = None) -> np.ndarray:
    """Return value as an array of finite real numbers, or raise ValidationError.

    The array keeps its integer or floating dtype, or is cast to ``dtype``
    when one is given, and must have ``ndim`` dimensions when that is given.
    Bools, complex numbers, strings (numeric ones too, as ``check_real``
    refuses them), other objects, ragged nesting, NaN and inf are refused;
    so is a value that the cast overflows to inf. An ndarray that needs no
    cast is returned as it is, not copied.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{name} must be an array of real numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    if dtype is not None:
        with np.errstate(over="ignore"):  # a cast to inf is refused below
            arr = arr.astype(dtype, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite, got non-finite values")
    return arr
