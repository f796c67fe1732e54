"""Base class of the package's immutable value types.

A value type lists its fields in order in ``__slots__``; its ``__init__``
stores them with ``set_field``.  Values equal and hash as their field
tuple, only within one class, and copy and pickle by calling the class again.
check_int is the one range check of every integer argument.
"""

from __future__ import annotations

from typing import Any

from .errors import InvalidInputError

# object.__setattr__, with which each value's __init__ stores its fields past
# Value.__setattr__.  A module global is quicker to call than the attribute.
set_field = object.__setattr__


def check_int(name: str, value: Any, low: int, high: int | None = None) -> None:
    """Raise InvalidInputError unless ``value`` is an int, not a bool, in
    [low, high], or at least ``low`` when ``high`` is None."""
    # An exact int, the common case, passes on its type() alone.
    if type(value) is int or isinstance(value, int) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return
    span = f"in [{_shown(low)}, {_shown(high)}]" if high is not None else f">= {low}"
    raise InvalidInputError(f"{name} must be an int {span}, got {_shown(value)}")


def _shown(value: Any) -> str:
    """repr, but hex for an int past 64 bits, whose decimal str() is slow and,
    past 4300 digits, refused."""
    return f"{value:#x}" if isinstance(value, int) and abs(value) >> 64 else repr(value)


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # the slots of the class and its bases

    def __init_subclass__(cls) -> None:
        cls._fields += cls.__dict__.get("__slots__", ())

    def _astuple(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._astuple()
