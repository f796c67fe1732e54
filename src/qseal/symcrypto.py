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
from .errors import AmbiguousTagError, TagNotFoundError
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


def key_tag(key: BitString) -> bytes:
    return hashlib.sha256(_TAG_PREFIX + key.encode()).digest()[:TAG_BYTES]


def _xor_keystream(key: BitString, data: bytes) -> bytes:
    """``data`` XOR the SHA-256 counter keystream of the key."""
    material = _STREAM_PREFIX + key.encode()
    length = len(data)
    stream = b"".join([
        hashlib.sha256(material + counter.to_bytes(8, "big")).digest()
        for counter in range((length + _BLOCK_BYTES - 1) // _BLOCK_BYTES)
    ])
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream[:length], "big")
    return mixed.to_bytes(length, "big")


def enc(key: BitString, message: bytes) -> Ciphertext:
    return Ciphertext(key_tag(key), _xor_keystream(key, message))


def find_and_dec(key: BitString, ciphertexts: Iterable[Ciphertext]) -> bytes:
    """Decrypt the single ciphertext in the batch tagged for this key."""
    tag = key_tag(key)
    matches = [ct for ct in ciphertexts if ct.key_tag == tag]
    if not matches:
        raise TagNotFoundError("no ciphertext carries this key's tag")
    if len(matches) > 1:
        raise AmbiguousTagError(
            f"{len(matches)} ciphertexts carry the same key tag"
        )
    return _xor_keystream(key, matches[0].body)
