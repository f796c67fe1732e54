"""Fixed-width bit strings with GF(2) arithmetic.

A BitString is an immutable (bit_len, value) pair.  Bit index 0 is the least
significant bit of ``value``; the string rendering puts the highest index on
the left.  Widths up to a few hundred bits are expected; nothing here assumes
the value fits a machine word.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import InvalidInputError


@dataclass(frozen=True, order=True, slots=True)
class BitString:
    bit_len: int
    value: int

    def __post_init__(self) -> None:
        if self.bit_len < 1:
            raise InvalidInputError(f"bit_len must be >= 1, got {self.bit_len}")
        if not 0 <= self.value < (1 << self.bit_len):
            raise InvalidInputError(
                f"value {self.value:#x} does not fit in {self.bit_len} bits"
            )

    def __xor__(self, other: BitString) -> BitString:
        if other.bit_len != self.bit_len:
            raise InvalidInputError(
                f"width mismatch: {self.bit_len} vs {other.bit_len}"
            )
        return BitString(self.bit_len, self.value ^ other.value)

    def dot(self, other: BitString) -> int:
        """Inner product over GF(2): parity of the AND of the two values."""
        if other.bit_len != self.bit_len:
            raise InvalidInputError(
                f"width mismatch: {self.bit_len} vs {other.bit_len}"
            )
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
        if bit_len < 1:
            raise InvalidInputError(f"bit_len must be >= 1, got {bit_len}")
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
        if bit_len < 1:
            raise InvalidInputError(f"bit_len must be >= 1, got {bit_len}")
        return cls(bit_len, rng.getrandbits(bit_len))

    def __str__(self) -> str:
        return format(self.value, f"0{self.bit_len}b")
