"""BitString construction, GF(2) algebra, encodings, and the one width check."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, strategies as st

from qseal.bits import BitString
from qseal.errors import InvalidInputError
from qseal.seal import (
    AliceSecret,
    BinaryTcf,
    SealPackage,
    VerifyMethod,
    acceptance_probability,
    alice_seal_binary,
    alice_verify_classical,
    alice_verify_quantum,
)
from qseal.sparsestate import (
    SparseState,
    helstrom_discriminate,
    inner_product,
    singleton,
    uniform_superposition,
)
from qseal.tcf import TcfOracle, TcfParams


def test_width_and_range_are_enforced():
    with pytest.raises(InvalidInputError):
        BitString(0, 0)
    with pytest.raises(InvalidInputError):
        BitString(4, 16)
    with pytest.raises(InvalidInputError):
        BitString(4, -1)
    assert BitString(4, 15).value == 15


def test_a_value_past_a_wide_width_is_refused_in_hex():
    """Past 64 bits the refusal shows the bound and the value in hex: the
    decimal str() of an int past 4300 digits raises ValueError (Python 3.11
    on).  Here a hex field of 5001 digits overflows 20001 bits."""
    message = r"^value must be an int in \[0, 0x1f{5000}\], got 0xf{5001}$"
    with pytest.raises(InvalidInputError, match=message):
        BitString.from_hex(20001, "f" * 5001)


class NoDrawRandom(Random):
    """A generator that fails on any draw."""

    def random(self) -> float:
        raise AssertionError("drew random()")

    def getrandbits(self, k: int) -> int:
        raise AssertionError("drew getrandbits()")


EIGHT, NINE = BitString(8, 0b1010_1010), BitString(9, 0b1_0000_0000)


def oracle(bit_len: int) -> TcfOracle:
    return TcfOracle(TcfParams(bit_len), bytes(16), BitString(bit_len, 1))


def claw(bit_len: int) -> SparseState:
    """A register of oracle(bit_len): its branches 2 and 3 differ by the shift."""
    return uniform_superposition((BitString(bit_len, 2), BitString(bit_len, 3)))


def record(bit_len: int) -> AliceSecret:
    return alice_seal_binary(TcfParams(bit_len), Random(0))[1]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: EIGHT ^ NINE, id="xor"),
        pytest.param(lambda: EIGHT.dot(NINE), id="dot"),
        pytest.param(
            lambda: inner_product(singleton(EIGHT), singleton(NINE)),
            id="inner_product",
        ),
        pytest.param(lambda: SparseState(9, {EIGHT: 1.0}), id="SparseState-term"),
        pytest.param(
            lambda: TcfOracle(TcfParams(9), bytes(16), BitString(8, 1)),
            id="TcfOracle-shift",
        ),
        pytest.param(lambda: oracle(9).eval(EIGHT), id="TcfOracle.eval"),
        pytest.param(
            lambda: SealPackage(BinaryTcf(), 9, claw(8), tcf=oracle(9)),
            id="SealPackage-register",
        ),
        pytest.param(
            lambda: SealPackage(BinaryTcf(), 8, claw(8), tcf=oracle(9)),
            id="SealPackage-tcf",
        ),
        *(
            pytest.param(
                lambda method=method: acceptance_probability(
                    singleton(EIGHT), singleton(NINE), method
                ),
                id=f"acceptance_probability-{method.value}",
            )
            for method in VerifyMethod
        ),
        *(
            pytest.param(
                lambda method=method: alice_verify_quantum(
                    record(8), singleton(NINE), method, NoDrawRandom()
                ),
                id=f"alice_verify_quantum-{method.value}",
            )
            for method in VerifyMethod
        ),
        pytest.param(
            lambda: alice_verify_classical(record(9), EIGHT),
            id="alice_verify_classical",
        ),
        pytest.param(
            lambda: helstrom_discriminate(
                singleton(EIGHT), singleton(NINE), singleton(NINE), NoDrawRandom()
            ),
            id="helstrom_discriminate-truth",
        ),
        pytest.param(
            lambda: helstrom_discriminate(
                singleton(EIGHT), singleton(EIGHT), singleton(NINE), NoDrawRandom()
            ),
            id="helstrom_discriminate-hypotheses",
        ),
    ],
)
def test_widths_must_agree(call):
    """Every width agreement in the library is check_same_width's: an
    8-bit object against a 9-bit one raises the same InvalidInputError,
    before any draw."""
    with pytest.raises(InvalidInputError, match="^width mismatch: 8 vs 9$"):
        call()


def test_dot_is_parity_of_and():
    a = BitString(8, 0b1100_0011)
    assert a.dot(BitString(8, 0b0000_0001)) == 1
    assert a.dot(BitString(8, 0b0000_0011)) == 0
    assert a.dot(BitString(8, 0)) == 0


def test_hex_round_trip_pads_to_width():
    a = BitString(12, 0x0AB)
    assert a.hex() == "0ab"
    assert BitString.from_hex(12, "0ab") == a
    with pytest.raises(InvalidInputError):
        BitString.from_hex(12, "ab")  # wrong digit count
    with pytest.raises(InvalidInputError):
        BitString.from_hex(12, "zzz")


@pytest.mark.parametrize(
    "bit_len, text",
    [
        (8, "+1"),
        (8, " 1"),
        (8, "1 "),
        (8, "-0"),
        (8, "AB"),
        (8, "aB"),
        (12, "1_0"),
        (16, "0x01"),
        (16, "\uff10\uff10\uff10\uff11"),  # fullwidth digits int() also takes
    ],
)
def test_from_hex_accepts_only_the_canonical_rendering(bit_len, text):
    with pytest.raises(InvalidInputError, match="canonical"):
        BitString.from_hex(bit_len, text)


@pytest.mark.parametrize("text", [5, None, b"ab", ["a", "b"]], ids=repr)
def test_from_hex_refuses_a_text_that_is_not_a_str(text):
    with pytest.raises(InvalidInputError, match="^hex must be a str, not "):
        BitString.from_hex(8, text)


def test_encode_disambiguates_widths():
    # Same value at different widths must hash differently.
    assert BitString(8, 5).encode() != BitString(16, 5).encode()


def test_hash_follows_equality_and_keeps_widths_apart():
    assert hash(BitString(8, 5)) == hash(BitString(8, 5))
    narrow, wide = BitString(8, 5), BitString(16, 5)
    assert narrow != wide
    names = {narrow: "narrow", wide: "wide"}
    assert len(names) == 2
    assert names[BitString(8, 5)] == "narrow" and names[BitString(16, 5)] == "wide"
    assert {narrow, wide, BitString(8, 5)} == {wide, narrow}
    assert len({narrow, wide, BitString(8, 5)}) == 2


def test_stays_frozen_and_ordered_by_width_then_value():
    a = BitString(8, 5)
    with pytest.raises(AttributeError):
        a.value = 6
    assert a.value == 5
    assert BitString(8, 5) < BitString(8, 6) < BitString(16, 0)
    assert sorted([BitString(16, 1), BitString(8, 9), BitString(8, 2)]) == [
        BitString(8, 2), BitString(8, 9), BitString(16, 1)
    ]


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=4095),
    st.integers(min_value=0, max_value=4095),
)
def test_equal_strings_hash_equal_property(len_a, len_b, value_a, value_b):
    a = BitString(len_a, value_a % (1 << len_a))
    b = BitString(len_b, value_b % (1 << len_b))
    assert (a == b) == ((a.bit_len, a.value) == (b.bit_len, b.value))
    if a == b:
        assert hash(a) == hash(b)
    assert len({a: None, b: None}) == (1 if a == b else 2)


def test_random_respects_width_and_is_seeded():
    a = BitString.random(256, Random(99))
    b = BitString.random(256, Random(99))
    assert a == b
    assert a.bit_len == 256


def test_str_renders_msb_first():
    assert str(BitString(4, 0b0011)) == "0011"


@given(
    st.integers(min_value=1, max_value=256),
    st.data(),
)
def test_xor_dot_algebra(bit_len, data):
    """Property: d.(a xor b) == (d.a) xor (d.b), and xor is an involution."""
    draw = st.integers(min_value=0, max_value=(1 << bit_len) - 1)
    a = BitString(bit_len, data.draw(draw))
    b = BitString(bit_len, data.draw(draw))
    d = BitString(bit_len, data.draw(draw))
    assert d.dot(a ^ b) == (d.dot(a) ^ d.dot(b))
    assert (a ^ b) ^ b == a


@given(st.integers(min_value=1, max_value=256), st.data())
def test_hex_round_trip_property(bit_len, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << bit_len) - 1))
    a = BitString(bit_len, value)
    assert BitString.from_hex(bit_len, a.hex()) == a
