"""Keystream cipher: round trips, tags, and batch lookup."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qseal.bits import BitString
from qseal.errors import AmbiguousTagError, TagNotFoundError
from qseal.symcrypto import Ciphertext, enc, find_and_dec, key_tag

# Frozen reference ciphertext for key 0xbeef (width 16), message
# b"attack at dawn".  Guards the keystream layout against silent change.
GOLDEN_TAG = "486f60110b64554bce08830dac83944d"
GOLDEN_BODY = "080352f18af424b27b47325d191e"


def dec(key: BitString, ciphertext: Ciphertext) -> bytes:
    """Decrypt one ciphertext: a lookup over a batch of one."""
    return find_and_dec(key, (ciphertext,))


def test_golden_ciphertext():
    ct = enc(BitString(16, 0xBEEF), b"attack at dawn")
    assert ct.key_tag.hex() == GOLDEN_TAG
    assert ct.body.hex() == GOLDEN_BODY


# SHA-256 of the ciphertext body for key 0xbeef (width 16) and message
# bytes (7 * i + 3) % 256, by message length: below, at and across the
# 32-byte keystream block.
GOLDEN_BODY_SHA256 = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "189f40034be7a199f1fa9891668ee3ab6049f82d38c68be70f596eab2e1857b7",
    16: "3eab7d50331588ae8a454df21095adca1495ff7452a49313fb8cdf28e2f520cc",
    31: "41c5cc318aaaa4fdf6e1faa3faa3f456bd330260967ae3c69d94661561731944",
    32: "fa269d8bbbb19f78eb6d9a6207d539207004a4a9e1cc4416b8d4ae88743360a3",
    33: "3ef02d88bb76a903ddae3682ecc4cabd6ba82e29d457fd9dd3decd954afd25f5",
    100: "b0b7a2eea38f0096df95bced270a8d116b38549f9a09719f043de9b5f50f0066",
}


@pytest.mark.parametrize("length", sorted(GOLDEN_BODY_SHA256))
def test_known_answer_bodies(length):
    key = BitString(16, 0xBEEF)
    message = bytes((7 * i + 3) % 256 for i in range(length))
    ct = enc(key, message)
    assert ct.key_tag.hex() == GOLDEN_TAG
    assert hashlib.sha256(ct.body).hexdigest() == GOLDEN_BODY_SHA256[length]
    assert dec(key, ct) == message


def test_round_trip():
    key = BitString(16, 0x1234)
    message = b"the sealed secret"
    assert dec(key, enc(key, message)) == message


def test_encryption_is_deterministic():
    key = BitString(32, 99)
    assert enc(key, b"abc") == enc(key, b"abc")


def test_tag_identifies_key_not_message():
    key = BitString(16, 7)
    assert enc(key, b"one").key_tag == enc(key, b"two").key_tag


def test_distinct_keys_get_distinct_tags():
    tags = {key_tag(BitString(16, v)).hex() for v in range(256)}
    assert len(tags) == 256


def test_same_value_different_width_gets_distinct_tags():
    assert key_tag(BitString(16, 5)) != key_tag(BitString(24, 5))


def test_wrong_key_is_rejected_before_decryption():
    ct = enc(BitString(16, 0xBEEF), b"payload")
    with pytest.raises(TagNotFoundError):
        dec(BitString(16, 0xBEEE), ct)


def test_empty_message_round_trips():
    key = BitString(8, 1)
    ct = enc(key, b"")
    assert ct.body == b""
    assert dec(key, ct) == b""


def test_long_message_spans_keystream_blocks():
    key = BitString(8, 3)
    message = bytes(range(256)) * 3  # several 32-byte blocks
    assert dec(key, enc(key, message)) == message


def test_find_and_dec_picks_the_right_ciphertext():
    keys = [BitString(12, v) for v in (1, 2, 3, 4)]
    batch = tuple(enc(k, f"msg-{k.value}".encode()) for k in keys)
    for k in keys:
        assert find_and_dec(k, batch) == f"msg-{k.value}".encode()


def test_find_and_dec_missing_tag():
    batch = (enc(BitString(12, 1), b"x"),)
    with pytest.raises(TagNotFoundError):
        find_and_dec(BitString(12, 2), batch)


def test_find_and_dec_duplicate_tag():
    key = BitString(12, 1)
    batch = (enc(key, b"x"), enc(key, b"y"))
    with pytest.raises(AmbiguousTagError):
        find_and_dec(key, batch)


def test_tampered_body_decrypts_to_garbage_not_error():
    # The tag covers the key only; integrity of the body is out of scope.
    key = BitString(16, 41)
    ct = enc(key, b"hello")
    tampered = Ciphertext(ct.key_tag, bytes([ct.body[0] ^ 1]) + ct.body[1:])
    assert dec(key, tampered) != b"hello"


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=128),
        st.data(),
        st.binary(min_size=0, max_size=200),
    )
    @settings(max_examples=50)
    def test_round_trip_property(self, bit_len, data, message):
        value = data.draw(st.integers(min_value=0, max_value=(1 << bit_len) - 1))
        key = BitString(bit_len, value)
        ct = enc(key, message)
        assert dec(key, ct) == message
        assert len(ct.body) == len(message)

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_body_differs_from_message(self, message):
        # The keystream is not the identity; matching bytes may appear but
        # not the whole string (2^-8 per byte, bound generous).
        key = BitString(16, 0x5A5A)
        assert enc(key, message).body != message or len(message) < 2


def test_find_and_dec_hashes_the_key_tag_once(monkeypatch):
    # One SHA-256 for the tag plus one per 32-byte keystream block.
    key = BitString(16, 0xBEEF)
    batch = (enc(BitString(16, 1), b"x"), enc(key, b"attack at dawn"))
    calls = []
    real_sha256 = hashlib.sha256

    def counting_sha256(*args):
        calls.append(args)
        return real_sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    assert find_and_dec(key, batch) == b"attack at dawn"
    assert len(calls) == 2
