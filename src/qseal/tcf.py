"""Exactly 2-to-1 trapdoor claw-free function family.

The construction is a salted hash of a canonical representative: an instance
hides a nonzero shift ``s``, and eval(x) is the whole SHA-256 digest of
min(x, x xor s), so x and x xor s collide and nothing else does (up to
SHA-256 collisions, which inputs at most half the 256-bit image width keep
out of reach).

One class, TcfOracle, models an instance.  Alice wraps keygen's draws in it,
computes her secret with its eval, and the seal package carries the same
object, whose document holds the same three fields.  Canonicalization needs
the shift, so the instance every party holds includes it: honest evaluation
is modeled as oracle access, and the simulation relies on the protocol, not
on hiding, to keep the reader to eval.  A deployment would substitute a
function family whose forward direction is publicly computable; the
protocol layers above call eval, apart from one check.

That check is the seal package's claw check.  For distinct inputs of the
instance width, eval(a) == eval(b) holds exactly when a xor b == shift (up to
hash collisions, as above), so the package tests its register for the
instance width, which eval would also demand, and its two branches for a
difference equal to the shift, without computing an image.
"""

from __future__ import annotations

import hashlib
from random import Random

from .bits import BitString, check_same_width
from .errors import InvalidInputError
from .value import Value, check_int, set_field

SALT_BYTES = 16
IMAGE_BITS = 256

_EVAL_PREFIX = b"tcf/eval"


class TcfParams(Value):
    """Instance sizing: the input width, at most half the image width."""

    __slots__ = ("bit_len",)

    def __init__(self, bit_len: int) -> None:
        set_field(self, "bit_len", bit_len)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int("bit_len", self.bit_len, 2, IMAGE_BITS // 2)


class TcfOracle(Value):
    """One committed instance: its sizing, salt and shift, and its eval.

    Alice builds it from keygen's draws, and the binary seal package carries
    it unchanged.  The fields are public because the package document
    serializes them: an instance the reader can evaluate is an instance the
    reader holds.
    """

    # shift is the trapdoor: x and x xor shift share an image.
    __slots__ = ("params", "salt", "shift")

    def __init__(self, params: TcfParams, salt: bytes, shift: BitString) -> None:
        set_field(self, "params", params)
        set_field(self, "salt", salt)
        set_field(self, "shift", shift)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_same_width(self.shift, self.params)
        if self.shift.value == 0:
            raise InvalidInputError("shift must be nonzero")
        if not isinstance(self.salt, bytes) or len(self.salt) != SALT_BYTES:
            raise InvalidInputError(f"salt must be {SALT_BYTES} bytes")

    def eval(self, x: BitString) -> bytes:
        check_same_width(x, self.params)
        canonical = min(x.value, x.value ^ self.shift.value)
        material = BitString(x.bit_len, canonical).encode()
        return hashlib.sha256(_EVAL_PREFIX + self.salt + material).digest()


class TcfKeyPair(TcfOracle):
    """The same instance under an older name that no library path builds.

    It stays only because the benchmark patches ``TcfKeyPair.eval`` by name,
    and goes with the benchmark change that stops doing so.
    """

    __slots__ = ()
    eval = TcfOracle.eval


def keygen(params: TcfParams, rng: Random) -> tuple[bytes, int]:
    """Draw a fresh instance's salt and nonzero ``params.bit_len``-bit shift."""
    salt = rng.getrandbits(8 * SALT_BYTES).to_bytes(SALT_BYTES, "big")
    shift = 0
    while shift == 0:
        shift = rng.getrandbits(params.bit_len)
    return salt, shift


def sample_claw(
    instance: TcfOracle, rng: Random
) -> tuple[BitString, BitString, bytes]:
    """Draw a uniformly random claw ``(x1, x2, image)`` of the instance.

    No library path calls it: it stays only because the benchmark patches it
    by name, and goes with the benchmark change that stops doing so.
    """
    x1 = BitString.random(instance.params.bit_len, rng)
    return x1, x1 ^ instance.shift, instance.eval(x1)
