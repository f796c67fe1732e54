"""Hash-keystream symmetric cipher with key tags.

enc XORs the message against SHA-256 counter blocks derived from the key and
prepends a short tag of the key so the right ciphertext can be picked out of
a batch without trial decryption.  The tag deliberately identifies the key:
in the sealing protocol each key is a one-time random string, so linking
ciphertext to key reveals nothing beyond what the protocol already shares.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from .bits import BitString
from .errors import ProtocolCorruptionError
from .value import Value, set_field

TAG_BYTES = 16

_TAG_PREFIX = b"tag/"
_STREAM_PREFIX = b"enc/"
_BLOCK_BYTES = hashlib.sha256().digest_size


class Ciphertext(Value):
    __slots__ = ("key_tag", "body")

    def __init__(self, key_tag: bytes, body: bytes) -> None:
        set_field(self, "key_tag", key_tag)
        set_field(self, "body", body)


def _tag(encoded: bytes) -> bytes:
    """The tag of a key given as its ``BitString.encode()`` bytes."""
    return hashlib.sha256(_TAG_PREFIX + encoded).digest()[:TAG_BYTES]


def key_tag(key: BitString) -> bytes:
    return _tag(key.encode())


def _xor_keystream(encoded: bytes, data: bytes) -> bytes:
    """``data`` XOR the SHA-256 counter keystream of the encoded key."""
    material = _STREAM_PREFIX + encoded
    length = len(data)
    stream = b"".join([
        hashlib.sha256(material + counter.to_bytes(8, "big")).digest()
        for counter in range((length + _BLOCK_BYTES - 1) // _BLOCK_BYTES)
    ])
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream[:length], "big")
    return mixed.to_bytes(length, "big")


def enc(key: BitString, message: bytes) -> Ciphertext:
    encoded = key.encode()
    return Ciphertext(_tag(encoded), _xor_keystream(encoded, message))


def find_and_dec(key: BitString, ciphertexts: Iterable[Ciphertext]) -> bytes:
    """Decrypt the one ciphertext in the batch tagged for this key; a batch
    with none or several raises ProtocolCorruptionError."""
    encoded = key.encode()
    tag = _tag(encoded)
    matches = [ct for ct in ciphertexts if ct.key_tag == tag]
    if len(matches) != 1:
        raise ProtocolCorruptionError(
            f"{len(matches) or 'no'} ciphertexts carry this key's tag"
        )
    return _xor_keystream(encoded, matches[0].body)
