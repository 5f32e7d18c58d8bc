"""Exception taxonomy shared by every kanreg module.

All exceptions derive from :class:`KanregError` so callers can catch the
library's failures with a single handler while the CLI maps them to exit
codes. :func:`json_number` is the one check of a number a model file holds.
"""

from __future__ import annotations

import math


class KanregError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(KanregError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ParameterError(KanregError, ValueError):
    """A hyperparameter or configuration value is out of its legal range."""


class ContractError(KanregError, RuntimeError):
    """An API precondition was violated (stale cache, asymmetric input, ...)."""


class ParseError(KanregError, ValueError):
    """Input text or bytes could not be parsed.

    ``line``, ``column`` and ``offset`` are filled in when known so messages
    can point at the offending location.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, offset: int | None = None):
        parts = [message]
        if line is not None:
            parts.append(f"line {line}")
        if column is not None:
            parts.append(f"column {column}")
        if offset is not None:
            parts.append(f"byte offset {offset}")
        super().__init__(": ".join([parts[0], ", ".join(parts[1:])]) if len(parts) > 1 else message)
        self.line = line
        self.column = column
        self.offset = offset


class FormatError(KanregError, ValueError):
    """A binary payload violates the declared container format."""


def json_number(value, kind: type, name: str):
    """``value`` as ``kind``: int takes a JSON integer (not a bool), float any
    finite JSON number. Anything else is a FormatError naming ``name``.
    """
    try:
        ok = type(value) is int if kind is int else (
            type(value) in (int, float) and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise FormatError(f"{name} must be {what}, got {value!r}")
    return kind(value)


class UnsupportedVersionError(KanregError, ValueError):
    """A file declares a container version this build does not read."""


class InsufficientDataError(KanregError, ValueError):
    """Too few samples for the requested operation."""


class DegenerateDataError(KanregError, ValueError):
    """Data carries no usable signal (all-zero spectrum, constant input, ...)."""


class NumericError(KanregError, ArithmeticError):
    """A non-finite value appeared mid-computation.

    ``layer`` is the zero-based network layer index when the failure happened
    inside a forward or backward pass.
    """

    def __init__(self, message: str, *, layer: int | None = None):
        if layer is not None:
            message = f"{message} (layer {layer})"
        super().__init__(message)
        self.layer = layer


class DivergedError(KanregError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, *, epoch: int | None = None,
                 learning_rate: float | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.learning_rate = learning_rate


class UndefinedCorrelationError(KanregError, ValueError):
    """A correlation is requested on a constant vector."""
