"""Exception types shared across the package.

Every deliberate failure raises a subclass of QsealError so callers can
distinguish protocol-level problems from plain bugs.
"""

from __future__ import annotations


class QsealError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(QsealError, ValueError):
    """An argument violates a documented precondition."""


class ProtocolCorruptionError(QsealError):
    """A protocol object is internally inconsistent and cannot be processed."""


class UnsupportedModeError(InvalidInputError):
    """The operation is not defined for this seal mode or challenge: an
    undefined combination is an invalid argument, so this is an
    InvalidInputError."""


class DocumentError(QsealError):
    """A serialized document is malformed, truncated, or of the wrong kind."""
