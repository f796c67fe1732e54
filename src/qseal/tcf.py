"""Exactly 2-to-1 trapdoor claw-free function family.

The construction is a salted hash of a canonical representative: an instance
hides a nonzero shift ``s``, and eval(x) is the whole SHA-256 digest of
min(x, x xor s), so x and x xor s collide and nothing else does (up to
SHA-256 collisions, which inputs at most half the 256-bit image width keep
out of reach).

One class, TcfOracle, models an instance.  Alice draws it with keygen,
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
from dataclasses import dataclass
from random import Random

from .bits import BitString
from .errors import InvalidInputError

SALT_BYTES = 16
IMAGE_BITS = 256

_EVAL_PREFIX = b"tcf/eval"


@dataclass(frozen=True, slots=True)
class TcfParams:
    """Instance sizing: the input width, at most half the image width."""

    bit_len: int

    def __post_init__(self) -> None:
        if not 2 <= self.bit_len <= IMAGE_BITS // 2:
            raise InvalidInputError(
                f"bit_len must be in [2, {IMAGE_BITS // 2}], got {self.bit_len}"
            )


def _check_instance(params: TcfParams, salt: bytes, shift: BitString) -> None:
    if shift.bit_len != params.bit_len:
        raise InvalidInputError("shift width must match params.bit_len")
    if shift.value == 0:
        raise InvalidInputError("shift must be nonzero")
    if len(salt) != SALT_BYTES:
        raise InvalidInputError(f"salt must be {SALT_BYTES} bytes")


def _image(params: TcfParams, salt: bytes, shift: int, x: BitString) -> bytes:
    if x.bit_len != params.bit_len:
        raise InvalidInputError(
            f"input width {x.bit_len} does not match instance width {params.bit_len}"
        )
    canonical = min(x.value, x.value ^ shift)
    material = BitString(params.bit_len, canonical).encode()
    return hashlib.sha256(_EVAL_PREFIX + salt + material).digest()


@dataclass(frozen=True, slots=True)
class TcfOracle:
    """One committed instance: its sizing, salt and shift, and its eval.

    keygen draws it and the binary seal package carries it unchanged.  The
    fields are public because the package document serializes them: an
    instance the reader can evaluate is an instance the reader holds.
    """

    params: TcfParams
    salt: bytes
    shift: BitString  # trapdoor: x and x xor shift share an image

    def __post_init__(self) -> None:
        _check_instance(self.params, self.salt, self.shift)

    def eval(self, x: BitString) -> bytes:
        return _image(self.params, self.salt, self.shift.value, x)


@dataclass(frozen=True, slots=True)
class TcfKeyPair:
    """The same instance under an older name that no library path builds.

    It stays only because the benchmark patches ``TcfKeyPair.eval`` by name,
    and goes with the benchmark change that stops doing so.
    """

    params: TcfParams
    salt: bytes
    shift: BitString

    def __post_init__(self) -> None:
        _check_instance(self.params, self.salt, self.shift)

    def eval(self, x: BitString) -> bytes:
        return _image(self.params, self.salt, self.shift.value, x)


def keygen(params: TcfParams, rng: Random) -> TcfOracle:
    salt = rng.getrandbits(8 * SALT_BYTES).to_bytes(SALT_BYTES, "big")
    shift_value = 0
    while shift_value == 0:
        shift_value = rng.getrandbits(params.bit_len)
    return TcfOracle(params, salt, BitString(params.bit_len, shift_value))


def sample_claw(
    instance: TcfOracle, rng: Random
) -> tuple[BitString, BitString, bytes]:
    """Draw a uniformly random claw ``(x1, x2, image)`` of the instance.

    No library path calls it: it stays only because the benchmark patches it
    by name, and goes with the benchmark change that stops doing so.
    """
    x1 = BitString.random(instance.params.bit_len, rng)
    return x1, x1 ^ instance.shift, instance.eval(x1)
