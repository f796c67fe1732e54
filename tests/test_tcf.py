"""Claw-free function family: 2-to-1 structure, determinism, key hygiene."""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qseal.bits import BitString
from qseal.errors import InvalidInputError
from qseal.tcf import (
    Claw,
    TcfKeyPair,
    TcfOracle,
    TcfParams,
    keygen,
    sample_claw,
)

# Frozen reference digest for a fixed instance (salt 00..0f, shift 0xb5,
# input 0x4c at width 8).  Guards the hash layout against silent change.
GOLDEN_IMAGE = "1deb7ac40031c622b5eaf76550e32fe90d1bf8597bc6baa26587e1089dfcab75"


def verify_claw(oracle: TcfOracle | TcfKeyPair, claw: Claw) -> bool:
    """Check x1 != x2 and that both map to the recorded image."""
    if claw.x1 == claw.x2:
        return False
    return oracle.eval(claw.x1) == claw.image and oracle.eval(claw.x2) == claw.image


def fixed_keypair(bit_len: int = 8, shift: int = 0b1011_0101) -> TcfKeyPair:
    return TcfKeyPair(TcfParams(bit_len), bytes(range(16)), BitString(bit_len, shift))


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
            assert keygen(TcfParams(2), Random(seed)).shift.value != 0

    def test_explicit_zero_shift_rejected(self):
        with pytest.raises(InvalidInputError):
            TcfKeyPair(TcfParams(8), bytes(16), BitString(8, 0))

    def test_same_seed_reproduces_the_instance(self):
        a = keygen(TcfParams(16), Random(1234))
        b = keygen(TcfParams(16), Random(1234))
        assert a == b
        assert a.salt.hex() == "1de9ea6670d3da1fc735df5ef7697fb9"
        assert a.shift.hex() == "01ea"

    def test_different_seeds_give_different_instances(self):
        a = keygen(TcfParams(16), Random(1))
        b = keygen(TcfParams(16), Random(2))
        assert a.salt != b.salt


class TestEval:
    def test_golden_digest(self):
        keypair = fixed_keypair()
        assert keypair.eval(BitString(8, 0b0100_1100)).hex() == GOLDEN_IMAGE

    def test_claw_mates_collide(self):
        keypair = fixed_keypair()
        x = BitString(8, 0b0100_1100)
        assert keypair.eval(x) == keypair.eval(x ^ keypair.shift)

    def test_eval_is_deterministic(self):
        keypair = fixed_keypair()
        x = BitString(8, 3)
        assert keypair.eval(x) == keypair.eval(x)

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            fixed_keypair().eval(BitString(9, 3))

    def test_oracle_answers_match_keypair(self):
        keypair = fixed_keypair()
        oracle = keypair.oracle()
        for value in range(256):
            assert oracle.eval(BitString(8, value)) == keypair.eval(
                BitString(8, value)
            )

    @pytest.mark.parametrize("bit_len", [4, 8, 12])
    def test_exactly_two_to_one_exhaustively(self, bit_len):
        keypair = keygen(TcfParams(bit_len), Random(bit_len))
        images = Counter(
            keypair.eval(BitString(bit_len, v)) for v in range(1 << bit_len)
        )
        assert len(images) == (1 << bit_len) // 2
        assert set(images.values()) == {2}

    @given(st.integers(min_value=0, max_value=(1 << 12) - 1), st.integers())
    @settings(max_examples=30)
    def test_collision_structure_property(self, value, seed):
        keypair = keygen(TcfParams(12), Random(seed))
        x = BitString(12, value)
        assert keypair.eval(x) == keypair.eval(x ^ keypair.shift)


class TestClaws:
    def test_sampled_claws_verify(self):
        keypair = keygen(TcfParams(16), Random(5))
        oracle = keypair.oracle()
        rng = Random(6)
        for _ in range(50):
            claw = sample_claw(keypair, rng)
            assert claw.x1 ^ claw.x2 == keypair.shift
            assert verify_claw(oracle, claw)

    def test_wrong_image_fails_verification(self):
        keypair = keygen(TcfParams(16), Random(5))
        claw = sample_claw(keypair, Random(6))
        bad = Claw(claw.x1, claw.x2, b"\x00" * 32)
        assert not verify_claw(keypair.oracle(), bad)

    def test_non_mate_pair_fails_verification(self):
        keypair = keygen(TcfParams(16), Random(5))
        claw = sample_claw(keypair, Random(6))
        stranger = claw.x2 ^ BitString(16, 1) ^ keypair.shift
        bad = Claw(claw.x1, stranger, claw.image)
        assert not verify_claw(keypair.oracle(), bad)

    def test_degenerate_pair_fails_verification(self):
        keypair = keygen(TcfParams(16), Random(5))
        claw = sample_claw(keypair, Random(6))
        assert not verify_claw(keypair.oracle(), Claw(claw.x1, claw.x1, claw.image))

    def test_claw_first_coordinate_is_uniformish(self):
        # Bit marginals of x1 over many samples stay near 1/2.
        keypair = keygen(TcfParams(8), Random(50))
        rng = Random(51)
        draws = 20_000
        ones = [0] * 8
        for _ in range(draws):
            claw = sample_claw(keypair, rng)
            for i in range(8):
                ones[i] += (claw.x1.value >> i) & 1
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


class TestOracleValue:
    def test_equal_exactly_when_params_salt_and_shift_are(self):
        params, salt, shift = TcfParams(8), bytes(range(16)), BitString(8, 5)
        oracle = TcfOracle(params, salt, shift)
        assert oracle == TcfOracle(TcfParams(8), bytes(range(16)), BitString(8, 5))
        assert hash(oracle) == hash(TcfOracle(params, salt, shift))
        assert oracle != TcfOracle(params, bytes(16), shift)
        assert oracle != TcfOracle(params, salt, BitString(8, 6))

    def test_keypair_hands_out_its_own_instance(self):
        keypair = keygen(TcfParams(16), Random(3))
        oracle = keypair.oracle()
        assert (oracle.params, oracle.salt, oracle.shift) == (
            keypair.params, keypair.salt, keypair.shift
        )

    def test_oracle_is_frozen(self):
        oracle = fixed_keypair().oracle()
        with pytest.raises(AttributeError):
            oracle.params = TcfParams(9)  # type: ignore[misc]
