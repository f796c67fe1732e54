"""Claw-free function family: 2-to-1 structure, determinism, key hygiene."""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qseal.bits import BitString
from qseal.errors import InvalidInputError
from qseal.tcf import TcfKeyPair, TcfOracle, TcfParams, keygen, sample_claw

# Frozen reference digest for a fixed instance (salt 00..0f, shift 0xb5,
# input 0x4c at width 8).  Guards the hash layout against silent change.
GOLDEN_IMAGE = "1deb7ac40031c622b5eaf76550e32fe90d1bf8597bc6baa26587e1089dfcab75"


def verify_claw(
    instance: TcfOracle, x1: BitString, x2: BitString, image: bytes
) -> bool:
    """Check x1 != x2 and that both map to the recorded image."""
    if x1 == x2:
        return False
    return instance.eval(x1) == image and instance.eval(x2) == image


def fixed_instance(bit_len: int = 8, shift: int = 0b1011_0101) -> TcfOracle:
    return TcfOracle(TcfParams(bit_len), bytes(range(16)), BitString(bit_len, shift))


def drawn_instance(bit_len: int, seed: int) -> TcfOracle:
    """The instance a binary seal wraps around keygen's draws."""
    params = TcfParams(bit_len)
    salt, shift = keygen(params, Random(seed))
    return TcfOracle(params, salt, BitString(bit_len, shift))


class TestParams:
    def test_rejects_tiny_widths(self):
        with pytest.raises(InvalidInputError):
            TcfParams(1)

    def test_rejects_insufficient_image_headroom(self):
        with pytest.raises(InvalidInputError, match=r"\[2, 128\]"):
            TcfParams(129)  # inputs at most half the 256-bit image
        TcfParams(128)


class TestKeygen:
    def test_zero_shift_is_never_produced(self):
        # keygen resamples until the shift is nonzero; force many draws.
        for seed in range(50):
            assert keygen(TcfParams(2), Random(seed))[1] != 0

    def test_explicit_zero_shift_rejected(self):
        with pytest.raises(InvalidInputError):
            TcfKeyPair(TcfParams(8), bytes(16), BitString(8, 0))

    def test_same_seed_reproduces_the_instance(self):
        a = keygen(TcfParams(16), Random(1234))
        b = keygen(TcfParams(16), Random(1234))
        assert a == b
        assert a == (bytes.fromhex("1de9ea6670d3da1fc735df5ef7697fb9"), 0x01EA)

    def test_different_seeds_give_different_instances(self):
        a = keygen(TcfParams(16), Random(1))
        b = keygen(TcfParams(16), Random(2))
        assert a[0] != b[0]


class TestEval:
    def test_golden_digest(self):
        instance = fixed_instance()
        assert instance.eval(BitString(8, 0b0100_1100)).hex() == GOLDEN_IMAGE

    def test_claw_mates_collide(self):
        instance = fixed_instance()
        x = BitString(8, 0b0100_1100)
        assert instance.eval(x) == instance.eval(x ^ instance.shift)

    def test_eval_is_deterministic(self):
        instance = fixed_instance()
        x = BitString(8, 3)
        assert instance.eval(x) == instance.eval(x)

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            fixed_instance().eval(BitString(9, 3))

    @pytest.mark.parametrize("bit_len", [4, 8, 12])
    def test_exactly_two_to_one_exhaustively(self, bit_len):
        instance = drawn_instance(bit_len, bit_len)
        images = Counter(
            instance.eval(BitString(bit_len, v)) for v in range(1 << bit_len)
        )
        assert len(images) == (1 << bit_len) // 2
        assert set(images.values()) == {2}

    @given(st.integers(min_value=0, max_value=(1 << 12) - 1), st.integers())
    @settings(max_examples=30)
    def test_collision_structure_property(self, value, seed):
        instance = drawn_instance(12, seed)
        x = BitString(12, value)
        assert instance.eval(x) == instance.eval(x ^ instance.shift)


class TestClaws:
    def test_sampled_claws_verify(self):
        instance = drawn_instance(16, 5)
        rng = Random(6)
        for _ in range(50):
            x1, x2, image = sample_claw(instance, rng)
            assert x1 ^ x2 == instance.shift
            assert verify_claw(instance, x1, x2, image)

    def test_wrong_image_fails_verification(self):
        instance = drawn_instance(16, 5)
        x1, x2, _ = sample_claw(instance, Random(6))
        assert not verify_claw(instance, x1, x2, b"\x00" * 32)

    def test_non_mate_pair_fails_verification(self):
        instance = drawn_instance(16, 5)
        x1, x2, image = sample_claw(instance, Random(6))
        stranger = x2 ^ BitString(16, 1) ^ instance.shift
        assert not verify_claw(instance, x1, stranger, image)

    def test_degenerate_pair_fails_verification(self):
        instance = drawn_instance(16, 5)
        x1, _, image = sample_claw(instance, Random(6))
        assert not verify_claw(instance, x1, x1, image)

    def test_claw_first_coordinate_is_uniformish(self):
        # Bit marginals of x1 over many samples stay near 1/2.
        instance = drawn_instance(8, 50)
        rng = Random(51)
        draws = 20_000
        ones = [0] * 8
        for _ in range(draws):
            x1, _, _ = sample_claw(instance, rng)
            for i in range(8):
                ones[i] += (x1.value >> i) & 1
        for i in range(8):
            assert abs(ones[i] / draws - 0.5) < 0.02


class TestOracleConstruction:
    def test_oracle_validates_like_keypair(self):
        with pytest.raises(InvalidInputError):
            TcfOracle(TcfParams(8), bytes(16), BitString(8, 0))
        with pytest.raises(InvalidInputError):
            TcfOracle(TcfParams(8), bytes(15), BitString(8, 1))
        with pytest.raises(InvalidInputError):
            TcfOracle(TcfParams(8), bytes(16), BitString(9, 1))

    @pytest.mark.parametrize(
        "salt",
        ["a" * 16, bytearray(16), memoryview(bytes(16)), list(range(16)), None],
        ids=lambda salt: type(salt).__name__,
    )
    def test_a_salt_that_is_not_bytes_is_refused(self, salt):
        with pytest.raises(InvalidInputError, match="^salt must be 16 bytes$"):
            TcfOracle(TcfParams(8), salt, BitString(8, 3))


class TestOracleValue:
    def test_equal_exactly_when_params_salt_and_shift_are(self):
        params, salt, shift = TcfParams(8), bytes(range(16)), BitString(8, 5)
        oracle = TcfOracle(params, salt, shift)
        assert oracle == TcfOracle(TcfParams(8), bytes(range(16)), BitString(8, 5))
        assert hash(oracle) == hash(TcfOracle(params, salt, shift))
        assert oracle != TcfOracle(params, bytes(16), shift)
        assert oracle != TcfOracle(params, salt, BitString(8, 6))

    def test_oracle_is_frozen(self):
        oracle = fixed_instance()
        with pytest.raises(AttributeError):
            oracle.params = TcfParams(9)  # type: ignore[misc]
