"""Fixed-width bit strings with GF(2) arithmetic.

A BitString is an immutable (bit_len, value) pair.  Bit index 0 is the least
significant bit of ``value``; the string rendering puts the highest index on
the left.  Widths up to a few hundred bits are expected; nothing here assumes
the value fits a machine word.
"""

from __future__ import annotations

from functools import total_ordering
from random import Random
from typing import Any

from .errors import InvalidInputError
from .value import Value, check_int, set_field


@total_ordering
class BitString(Value):
    __slots__ = ("bit_len", "value")

    def __init__(self, bit_len: int, value: int) -> None:
        set_field(self, "bit_len", bit_len)
        set_field(self, "value", value)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int("bit_len", self.bit_len, 1)
        check_int("value", self.value, 0, (1 << self.bit_len) - 1)

    # Value's comparisons, spelled out for the two fields: bit strings are
    # built, compared and hashed on every protocol step.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.bit_len == other.bit_len and self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.bit_len, self.value))

    def __lt__(self, other: BitString) -> bool:
        if other.__class__ is self.__class__:
            return (self.bit_len, self.value) < (other.bit_len, other.value)
        return NotImplemented

    def __xor__(self, other: BitString) -> BitString:
        check_same_width(self, other)
        return BitString(self.bit_len, self.value ^ other.value)

    def dot(self, other: BitString) -> int:
        """Inner product over GF(2): parity of the AND of the two values."""
        check_same_width(self, other)
        return (self.value & other.value).bit_count() & 1

    def encode(self) -> bytes:
        """Unambiguous byte encoding (width prefix + value), for hashing."""
        return self.bit_len.to_bytes(4, "big") + self.value.to_bytes(
            (self.bit_len + 7) // 8, "big"
        )

    def hex(self) -> str:
        return format(self.value, f"0{(self.bit_len + 3) // 4}x")

    @classmethod
    def from_hex(cls, bit_len: int, text: str) -> BitString:
        check_int("bit_len", bit_len, 1)
        if not isinstance(text, str):  # before len(): bytes and lists have one too
            raise InvalidInputError(f"hex must be a str, not {type(text).__name__}")
        expected = (bit_len + 3) // 4
        if len(text) != expected:
            raise InvalidInputError(
                f"hex field for {bit_len} bits must have {expected} digits, "
                f"got {len(text)}"
            )
        # Only the digits hex() writes (strip leaves any other character in
        # place): int() would also take signs, spaces, "_", "0x" and A-F.
        if text.strip("0123456789abcdef"):
            raise InvalidInputError(f"not canonical lowercase hex: {text!r}")
        return cls(bit_len, int(text, 16))

    @classmethod
    def random(cls, bit_len: int, rng: Random) -> BitString:
        check_int("bit_len", bit_len, 1)
        return cls(bit_len, rng.getrandbits(bit_len))

    def __str__(self) -> str:
        return format(self.value, f"0{self.bit_len}b")


def check_same_width(a: Any, b: Any) -> None:
    """Raise InvalidInputError unless ``a`` and ``b``, anything with a
    ``bit_len`` (bit strings, states, TcfParams, seal packages), share one
    width: the one check of every width agreement."""
    if a.bit_len != b.bit_len:
        raise InvalidInputError(f"width mismatch: {a.bit_len} vs {b.bit_len}")
