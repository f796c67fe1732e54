"""Protocol roles: sealing, opening, responding, verifying."""

from __future__ import annotations

import math
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qseal import seal as seal_module, tcf as tcf_module
from qseal.cli import main
from qseal.documents import KIND_SECRET, parse_document
from qseal.bits import BitString
from qseal.errors import (
    InvalidInputError,
    ProtocolCorruptionError,
    UnsupportedModeError,
)
from qseal.seal import (
    MAX_BRANCHES,
    AliceSecret,
    BinaryTcf,
    CheatStrategy,
    ClassicalReturn,
    NarySymmetric,
    QuantumReturn,
    ReturnKind,
    SealPackage,
    VerifyMethod,
    acceptance_probability,
    alice_seal_binary,
    alice_seal_nary,
    alice_verify_classical,
    alice_verify_quantum,
    bob_open,
    bob_respond,
    check_register,
    check_width,
    compatible,
    quantum_verdict,
)
from qseal.sparsestate import (
    SparseState,
    helstrom_discriminate,
    inner_product,
    singleton,
    uniform_superposition,
)
from qseal.symcrypto import enc
from qseal.tcf import TcfOracle, TcfParams


def seal_binary(seed: int = 0, bits: int = 16):
    return alice_seal_binary(TcfParams(bits), Random(seed))


def seal_nary(k: int = 3, seed: int = 0, bits: int = 16, secret: bytes = b"code"):
    return alice_seal_nary(k, secret, bits, Random(seed))


# ---------------------------------------------------------------------------
# sealing
# ---------------------------------------------------------------------------


class TestCheckWidth:
    def test_binary_widths_follow_the_function_family(self):
        check_width(BinaryTcf(), 2)
        for bits in (1, 0, -1):
            with pytest.raises(InvalidInputError):
                check_width(BinaryTcf(), bits)

    @pytest.mark.parametrize("k, smallest", [(2, 3), (3, 4), (4, 4), (5, 5), (64, 8)])
    def test_nary_widths_need_two_to_the_width_at_least_4k(self, k, smallest):
        assert 2**smallest >= 4 * k > 2 ** (smallest - 1)
        check_width(NarySymmetric(k), smallest)
        for bits in (smallest - 1, 0, -1, -100):
            with pytest.raises(InvalidInputError):
                check_width(NarySymmetric(k), bits)


class TestCheckRegister:
    @pytest.mark.parametrize("mode", [BinaryTcf(), NarySymmetric(2), NarySymmetric(5)])
    def test_uniform_register_of_the_mode_passes(self, mode):
        k = 2 if isinstance(mode, BinaryTcf) else mode.k
        state = uniform_superposition(BitString(8, v) for v in range(k))
        check_register(mode, state)

    @pytest.mark.parametrize("mode", [BinaryTcf(), NarySymmetric(3)])
    def test_wrong_branch_count_is_rejected(self, mode):
        state = uniform_superposition(BitString(8, v) for v in range(4))
        with pytest.raises(InvalidInputError, match="branches"):
            check_register(mode, state)

    @pytest.mark.parametrize(
        "amps",
        [(1, -1), (-1, 1), (-1, -1), (0.8, 0.6)],
        ids=["second-negative", "first-negative", "both-negative", "lopsided"],
    )
    def test_non_uniform_amplitudes_are_rejected(self, amps):
        norm = math.sqrt(sum(a * a for a in amps))
        state = SparseState(
            8, {BitString(8, v): a / norm for v, a in zip((3, 9), amps)}
        )
        for mode in (BinaryTcf(), NarySymmetric(2)):
            with pytest.raises(InvalidInputError, match="1/sqrt"):
                check_register(mode, state)


class TestSealBinary:
    def test_register_is_an_equal_claw_superposition(self):
        package, record = seal_binary()
        assert package.register.num_branches == 2
        x1, x2 = package.register.branches
        assert package.tcf is not None
        assert package.tcf.eval(x1) == package.tcf.eval(x2) == record.secret
        amp = 1.0 / math.sqrt(2.0)
        assert all(
            abs(a - amp) < 1e-12 for a in package.register.terms.values()
        )

    def test_record_retains_trapdoor_and_state_copy(self):
        package, record = seal_binary()
        assert record.trapdoor is not None
        assert record.branches[0] ^ record.branches[1] == record.trapdoor
        assert record.original_state == package.register

    def test_fresh_instance_per_seal(self):
        package_a, _ = seal_binary(seed=1)
        package_b, _ = seal_binary(seed=2)
        assert package_a.tcf != package_b.tcf

    def test_same_seed_reproduces_package(self):
        assert seal_binary(seed=9)[0] == seal_binary(seed=9)[0]

    def test_package_hashes_by_value(self):
        package_a, _ = seal_binary(seed=9)
        package_b, _ = seal_binary(seed=9)
        assert package_a is not package_b
        assert hash(package_a) == hash(package_b)
        assert {package_a: "sealed"}[package_b] == "sealed"

    def test_a_binary_round_uses_the_drawn_instance_alone(
        self, monkeypatch, tmp_path, capsys
    ):
        """The package carries the instance keygen drew, and no library or
        CLI path builds the older TcfKeyPair."""

        def refuse(self):
            raise AssertionError("a TcfKeyPair was built")

        monkeypatch.setattr(tcf_module.TcfKeyPair, "__post_init__", refuse)
        package, record = seal_binary(seed=4)
        assert type(package.tcf) is TcfOracle
        assert record.secret == package.tcf.eval(record.branches[0])
        rng = Random(5)
        assert bob_open(package, rng) == record.secret
        quantum = bob_respond(
            package, CheatStrategy.HONEST, ReturnKind.QUANTUM, rng
        )
        for method in VerifyMethod:
            assert alice_verify_quantum(record, quantum.state, method, rng)
        classical = bob_respond(
            package, CheatStrategy.HONEST, ReturnKind.CLASSICAL, rng
        )
        assert alice_verify_classical(record, classical.mask)

        pkg, sec = tmp_path / "package.json", tmp_path / "secret.json"
        argv = ["seal", "--mode", "binary", "--bits", "16", "--seed", "4"]
        assert main([*argv, "--out-package", str(pkg), "--out-secret", str(sec)]) == 0
        assert main(["open", "--package", str(pkg)]) == 0
        opened = capsys.readouterr().out.strip()
        assert opened == parse_document(sec.read_text(), KIND_SECRET)["secret"]


class TestSealNary:
    def test_branches_distinct_and_ciphertexts_aligned(self):
        package, record = seal_nary(k=5)
        assert package.register.num_branches == 5
        assert len(set(record.branches)) == 5
        assert package.ciphertexts is not None
        for branch, ct in zip(record.branches, package.ciphertexts):
            assert enc(branch, record.secret) == ct

    def test_every_branch_opens_to_the_secret(self):
        from qseal.symcrypto import find_and_dec

        package, record = seal_nary(k=4, secret=b"s3cret")
        for branch in record.branches:
            assert find_and_dec(branch, package.ciphertexts) == b"s3cret"

    def test_rejects_empty_secret(self):
        with pytest.raises(InvalidInputError):
            alice_seal_nary(3, b"", 16, Random(0))

    def test_rejects_width_too_small_for_branch_count(self):
        with pytest.raises(InvalidInputError):
            alice_seal_nary(8, b"x", 4, Random(0))  # 2^4 < 4*8
        with pytest.raises(InvalidInputError):
            alice_seal_nary(2, b"x", -1, Random(0))
        alice_seal_nary(8, b"x", 5, Random(0))  # 2^5 == 4*8 is allowed

    def test_rejects_out_of_range_branch_count(self):
        with pytest.raises(InvalidInputError):
            alice_seal_nary(1, b"x", 16, Random(0))
        with pytest.raises(InvalidInputError):
            alice_seal_nary(65, b"x", 16, Random(0))

    def test_branch_draws_match_a_rejection_loop(self):
        # 32 branches from 2^7 strings: most seeds redraw at least once.
        # The branches, their order and the stream left behind must match
        # a plain rejection loop over BitString.random.
        for seed in range(200):
            reference_rng = Random(seed)
            expected: list[BitString] = []
            while len(expected) < 32:
                candidate = BitString.random(7, reference_rng)
                if candidate not in expected:
                    expected.append(candidate)
            rng = Random(seed)
            _, record = alice_seal_nary(32, b"x", 7, rng)
            assert record.branches == tuple(expected)
            assert rng.random() == reference_rng.random()

    def test_branch_resampling_survives_collisions(self):
        # Tight width forces duplicate draws; sealing must still finish
        # with distinct branches.
        for seed in range(20):
            _, record = seal_nary(k=8, seed=seed, bits=5)
            assert len(set(record.branches)) == 8


class TestPackageInvariants:
    def test_binary_package_requires_claw(self):
        package, _ = seal_binary()
        broken = uniform_superposition(
            [package.register.branches[0], BitString(16, 0xFFFF)]
        )
        if BitString(16, 0xFFFF) in package.register.branches:  # pragma: no cover
            pytest.skip("unlucky branch; adjust the constant")
        with pytest.raises(ProtocolCorruptionError):
            SealPackage(BinaryTcf(), 16, broken, tcf=package.tcf)

    def test_binary_package_requires_oracle(self):
        package, _ = seal_binary()
        with pytest.raises(InvalidInputError):
            SealPackage(BinaryTcf(), 16, package.register)

    def test_nary_package_checks_tag_coverage(self):
        package, record = seal_nary(k=3)
        dropped = package.ciphertexts[:-1] + (enc(BitString(16, 0), b"zz"),)
        if BitString(16, 0) in record.branches:  # pragma: no cover
            pytest.skip("unlucky branch; adjust the constant")
        with pytest.raises(ProtocolCorruptionError):
            SealPackage(
                NarySymmetric(3), 16, package.register, ciphertexts=dropped
            )

    def test_nary_package_rejects_a_tag_matched_twice(self):
        package, _ = seal_nary(k=3)
        doubled = package.ciphertexts[:-1] + package.ciphertexts[:1]
        with pytest.raises(ProtocolCorruptionError, match="exactly one"):
            SealPackage(
                NarySymmetric(3), 16, package.register, ciphertexts=doubled
            )

    def test_nary_package_checks_counts(self):
        package, _ = seal_nary(k=3)
        with pytest.raises(InvalidInputError):
            SealPackage(
                NarySymmetric(3),
                16,
                package.register,
                ciphertexts=package.ciphertexts[:-1],
            )

    def test_binary_register_must_be_uniform(self):
        package, _ = seal_binary()
        x1, x2 = package.register.branches
        amp = 1.0 / math.sqrt(2.0)
        flipped = SparseState(16, {x1: amp, x2: -amp})
        with pytest.raises(InvalidInputError, match="1/sqrt"):
            SealPackage(BinaryTcf(), 16, flipped, tcf=package.tcf)

    def test_nary_register_must_be_uniform(self):
        package, record = seal_nary(k=2)
        x1, x2 = record.branches
        lopsided = {x1: 0.8, x2: 0.6}
        from qseal.sparsestate import SparseState

        with pytest.raises(InvalidInputError):
            SealPackage(
                NarySymmetric(2),
                16,
                SparseState(16, lopsided),
                ciphertexts=package.ciphertexts,
            )


class TestClawCheck:
    """The binary package's claw check is a width check plus x1 ^ x2 == shift."""

    def test_oracle_of_another_width_is_rejected_even_when_the_xor_matches(self):
        oracle = TcfOracle(TcfParams(8), bytes(16), BitString(8, 0x5A))
        register = uniform_superposition(
            (BitString(16, 0x1200), BitString(16, 0x1200 ^ 0x5A))
        )
        with pytest.raises(InvalidInputError, match="width"):
            SealPackage(BinaryTcf(), 16, register, tcf=oracle)

    @pytest.mark.parametrize("bit_len", range(2, 7))
    def test_agrees_with_eval_and_the_shift_on_every_pair(self, bit_len):
        rng = Random(bit_len)
        top = (1 << bit_len) - 1
        shifts = {1, top, 1 << (bit_len - 1), rng.randint(1, top)}
        salts = (bytes(16), rng.randbytes(16))
        strings = [BitString(bit_len, value) for value in range(top + 1)]
        for shift in sorted(shifts):
            for salt in salts:
                oracle = TcfOracle(TcfParams(bit_len), salt, BitString(bit_len, shift))
                images = [oracle.eval(x) for x in strings]
                for a, b in combinations(range(top + 1), 2):
                    same_image = images[a] == images[b]
                    assert same_image == (a ^ b == shift)
                    register = uniform_superposition((strings[a], strings[b]))
                    try:
                        SealPackage(BinaryTcf(), bit_len, register, tcf=oracle)
                        accepted = True
                    except ProtocolCorruptionError:
                        accepted = False
                    assert accepted == same_image, (bit_len, shift, a, b)


# ---------------------------------------------------------------------------
# opening
# ---------------------------------------------------------------------------


class TestOpen:
    def test_binary_open_always_reads_the_secret(self):
        hits = 0
        trials = 300
        for seed in range(trials):
            package, record = seal_binary(seed=seed)
            hits += bob_open(package, Random(seed + 10_000)) == record.secret
        assert hits == trials

    def test_nary_open_always_reads_the_secret(self):
        hits = 0
        trials = 300
        for seed in range(trials):
            package, record = seal_nary(k=4, seed=seed, secret=b"payload")
            hits += bob_open(package, Random(seed + 20_000)) == record.secret
        assert hits == trials

    def test_repeated_opens_read_the_same_secret(self):
        # Either branch opens to the same value, so re-opening the same
        # package can never disagree, whichever branch collapses.
        package, record = seal_binary(seed=8)
        values = {bob_open(package, Random(seed)) for seed in range(32)}
        assert values == {record.secret}
        package, record = seal_nary(k=3, seed=8)
        values = {bob_open(package, Random(seed)) for seed in range(32)}
        assert values == {record.secret}

    def test_corrupt_nary_package_fails_loudly(self):
        package, record = seal_nary(k=2)
        # Hand-build a package-like value bypassing validation.
        object_dict = {
            "mode": NarySymmetric(2),
            "bit_len": 16,
            "register": package.register,
            "tcf": None,
            "ciphertexts": (package.ciphertexts[0], package.ciphertexts[0]),
        }
        broken = object.__new__(SealPackage)
        for field, value in object_dict.items():
            object.__setattr__(broken, field, value)
        with pytest.raises(ProtocolCorruptionError):
            for seed in range(32):
                bob_open(broken, Random(seed))

    def test_unmatched_branch_is_a_corrupt_package(self):
        package, _ = seal_nary(k=2)
        stranger, _ = seal_nary(k=2, seed=1)
        broken = object.__new__(SealPackage)
        for field in ("mode", "bit_len", "register", "tcf"):
            object.__setattr__(broken, field, getattr(package, field))
        object.__setattr__(broken, "ciphertexts", stranger.ciphertexts)
        with pytest.raises(ProtocolCorruptionError):
            bob_open(broken, Random(0))

    def test_cipher_bugs_are_not_relabelled_as_corruption(self, monkeypatch):
        package, _ = seal_nary(k=2)

        def broken_find_and_dec(key, ciphertexts):
            raise RuntimeError("bug inside the cipher")

        monkeypatch.setattr(seal_module, "find_and_dec", broken_find_and_dec)
        with pytest.raises(RuntimeError, match="bug inside the cipher"):
            bob_open(package, Random(0))


# ---------------------------------------------------------------------------
# responding
# ---------------------------------------------------------------------------


class TestRespond:
    def test_strategy_kind_compatibility_table(self):
        table = {
            (CheatStrategy.HONEST, ReturnKind.QUANTUM): True,
            (CheatStrategy.HONEST, ReturnKind.CLASSICAL): True,
            (CheatStrategy.MEASURE_KEEP, ReturnKind.QUANTUM): True,
            (CheatStrategy.MEASURE_KEEP, ReturnKind.CLASSICAL): False,
            (CheatStrategy.MEASURE_RANDOM_STATE, ReturnKind.QUANTUM): True,
            (CheatStrategy.MEASURE_RANDOM_STATE, ReturnKind.CLASSICAL): False,
            (CheatStrategy.MEASURE_GUESS_MASK, ReturnKind.QUANTUM): False,
            (CheatStrategy.MEASURE_GUESS_MASK, ReturnKind.CLASSICAL): True,
        }
        for (strategy, kind), expected in table.items():
            assert compatible(strategy, kind) is expected

    def test_incompatible_pairs_raise(self):
        for package, _ in (seal_binary(), seal_nary(k=2), seal_nary(k=8)):
            for strategy in CheatStrategy:
                for kind in ReturnKind:
                    if compatible(strategy, kind):
                        continue
                    rng = Random(0)
                    before = rng.getstate()
                    with pytest.raises(UnsupportedModeError):
                        bob_respond(package, strategy, kind, rng)
                    assert rng.getstate() == before, (package.mode, strategy, kind)

    def test_honest_quantum_returns_the_register_untouched(self):
        package, _ = seal_binary()
        message = bob_respond(
            package, CheatStrategy.HONEST, ReturnKind.QUANTUM, Random(0)
        )
        assert isinstance(message, QuantumReturn)
        assert message.state == package.register
        assert hash(message) == hash(QuantumReturn(package.register))

    def test_honest_classical_masks_satisfy_the_parity_relation(self):
        rng = Random(3)
        for seed in range(100):
            package, record = seal_binary(seed=seed)
            message = bob_respond(
                package, CheatStrategy.HONEST, ReturnKind.CLASSICAL, rng
            )
            assert isinstance(message, ClassicalReturn)
            x1, x2 = record.branches
            assert message.mask.dot(x1 ^ x2) == 0

    def test_measure_keep_returns_one_branch(self):
        package, record = seal_binary()
        seen = set()
        for seed in range(40):
            message = bob_respond(
                package, CheatStrategy.MEASURE_KEEP, ReturnKind.QUANTUM, Random(seed)
            )
            assert message.state.num_branches == 1
            branch = message.state.branches[0]
            assert branch in record.branches
            seen.add(branch)
        assert seen == set(record.branches)  # both branches occur

    def test_measure_random_state_is_usually_off_support(self):
        package, record = seal_binary()
        off = 0
        for seed in range(50):
            message = bob_respond(
                package,
                CheatStrategy.MEASURE_RANDOM_STATE,
                ReturnKind.QUANTUM,
                Random(seed),
            )
            assert message.state.num_branches == 1
            off += message.state.branches[0] not in record.branches
        assert off >= 48  # collision chance 2/2^16 per trial

    def test_guess_mask_is_classical_and_width_matched(self):
        package, _ = seal_binary()
        message = bob_respond(
            package, CheatStrategy.MEASURE_GUESS_MASK, ReturnKind.CLASSICAL, Random(1)
        )
        assert isinstance(message, ClassicalReturn)
        assert message.mask.bit_len == 16


# ---------------------------------------------------------------------------
# quantum verification
# ---------------------------------------------------------------------------


class TestVerifyQuantum:
    def test_projective_accepts_honest_always(self):
        package, record = seal_binary()
        rng = Random(2)
        assert all(
            alice_verify_quantum(
                record, package.register, VerifyMethod.PROJECTIVE, rng
            )
            for _ in range(2_000)
        )

    def test_projective_accepts_collapsed_at_one_over_k(self):
        for k, seed, trials in [(2, 5, 6_000), (3, 6, 6_000), (4, 7, 6_000)]:
            package, record = seal_nary(k=k, seed=seed)
            rng = Random(seed)
            accepted = 0
            for _ in range(trials):
                branch = singleton(record.branches[0])
                accepted += alice_verify_quantum(
                    record, branch, VerifyMethod.PROJECTIVE, rng
                )
            assert abs(accepted / trials - 1.0 / k) < 3.5 * math.sqrt(
                (1 / k) * (1 - 1 / k) / trials
            ), f"k={k}"

    def test_projective_rejects_orthogonal_always(self):
        package, record = seal_binary()
        stranger = singleton(BitString(16, 0x0F0F))
        if stranger.branches[0] in record.branches:  # pragma: no cover
            pytest.skip("unlucky branch; adjust the constant")
        rng = Random(8)
        assert not any(
            alice_verify_quantum(record, stranger, VerifyMethod.PROJECTIVE, rng)
            for _ in range(2_000)
        )

    def test_helstrom_accepts_identical_return_outright(self):
        package, record = seal_binary()
        for seed in range(20):
            assert alice_verify_quantum(
                record,
                package.register,
                VerifyMethod.HELSTROM_PER_BRANCH,
                Random(seed),
            )

    def test_helstrom_detects_kept_branch_at_the_pure_state_rate(self):
        package, record = seal_binary(seed=77)
        rng = Random(78)
        trials = 40_000
        rejected = 0
        for _ in range(trials):
            branch = singleton(
                record.branches[0] if rng.random() < 0.5 else record.branches[1]
            )
            rejected += not alice_verify_quantum(
                record, branch, VerifyMethod.HELSTROM_PER_BRANCH, rng
            )
        assert abs(rejected / trials - 0.8535533905932737) < 0.006

    def test_width_mismatch_rejected(self):
        records = [seal_binary()[1], seal_nary(k=2)[1], seal_nary(k=8)[1]]
        others = [
            singleton(BitString(8, 1)),
            singleton(BitString(24, 1)),
            uniform_superposition(BitString(17, v) for v in range(3)),
        ]
        for record in records:
            for method in VerifyMethod:
                for returned in others:
                    rng = Random(0)
                    before = rng.getstate()
                    with pytest.raises(InvalidInputError, match="width"):
                        alice_verify_quantum(record, returned, method, rng)
                    assert rng.getstate() == before, (record.mode, method, returned)


class TopRandom(Random):
    """A generator whose every random() is 1 - 2^-53, the largest value
    Random.random returns."""

    def random(self) -> float:
        return 1.0 - 2.0**-53


def negated(state: SparseState) -> SparseState:
    """The same state with every amplitude's sign flipped."""
    return SparseState(state.bit_len, {k: -a for k, a in state.terms.items()})


class TestHonestReturnAcceptedExactly:
    """An unchanged register is accepted on every draw, the largest included:
    its acceptance probability is 1.0, not a float sum of k squares a few
    ulps below it.  So is the register with its global sign flipped, which
    is the same state."""

    def records(self):
        for seed in range(4):
            yield seal_binary(seed=seed)[1]
        for k in range(2, MAX_BRANCHES + 1):
            yield seal_nary(k=k, seed=k)[1]

    @pytest.mark.parametrize("method", list(VerifyMethod))
    def test_the_top_draw_accepts(self, method):
        for record in self.records():
            reg = record.original_state
            assert acceptance_probability(reg, reg, method) == 1.0, record.mode
            assert quantum_verdict(reg, reg, method, TopRandom(0)), record.mode
            assert alice_verify_quantum(record, reg, method, TopRandom(0)), (
                record.mode
            )

    @pytest.mark.parametrize("method", list(VerifyMethod))
    def test_the_negated_register_is_accepted_on_the_top_draw(self, method):
        for record in self.records():
            reg = record.original_state
            flipped = negated(reg)
            assert acceptance_probability(reg, flipped, method) == 1.0, record.mode
            assert alice_verify_quantum(record, flipped, method, TopRandom(0)), (
                record.mode
            )


# Reference copies of helstrom_discriminate and quantum_verdict.  The
# reference verdict encodes the rule of one acceptance probability and one
# draw: one width check, then a return close to the original or to its
# negation draws once and accepts (the projective path used to draw against
# its squared overlap, and the Helstrom path used to accept without a draw),
# else one draw against the method's probability.  The library must match
# them draw for draw.


def reference_helstrom(truth, h0, h1, rng):
    if not (truth.bit_len == h0.bit_len == h1.bit_len):
        raise InvalidInputError("all three states must share one width")
    if h0.isclose(h1):
        raise InvalidInputError("hypotheses are identical; nothing to discriminate")
    overlap = max(-1.0, min(1.0, inner_product(h0, h1)))
    sin_sq = 1.0 - overlap * overlap
    if sin_sq <= 1e-18:
        return 0 if rng.random() < 0.5 else 1
    sin = math.sqrt(sin_sq)
    t_e1 = inner_product(truth, h0)
    t_e2 = (inner_product(truth, h1) - overlap * t_e1) / sin
    scale = math.sqrt(2.0 * (1.0 + sin))
    v1 = (1.0 + sin) / scale
    v2 = -overlap / scale
    along = t_e1 * v1 + t_e2 * v2
    outside = max(0.0, 1.0 - t_e1 * t_e1 - t_e2 * t_e2)
    p_report_h0 = min(1.0, along * along + 0.5 * outside)
    return 0 if rng.random() < p_report_h0 else 1


def reference_quantum_verdict(original, returned, method, rng):
    if original.bit_len != returned.bit_len:
        raise InvalidInputError(
            f"returned width {returned.bit_len} does not match "
            f"original width {original.bit_len}"
        )
    if returned.isclose(original) or negated(returned).isclose(original):
        rng.random()
        return True
    if method is VerifyMethod.PROJECTIVE:
        overlap = inner_product(original, returned)
        return rng.random() < overlap * overlap
    return reference_helstrom(returned, original, returned, rng) == 0


def random_state(rng: Random, bit_len: int) -> SparseState:
    """Up to five terms on a small pool of strings, so that random states
    often share support; signs and magnitudes vary."""
    pool = min(1 << bit_len, 12)
    values = rng.sample(range(pool), rng.randint(1, min(5, pool)))
    amps = [rng.choice((-1, 1)) * rng.uniform(0.05, 1.0) for _ in values]
    norm = math.sqrt(sum(a * a for a in amps))
    return SparseState(
        bit_len, {BitString(bit_len, v): a / norm for v, a in zip(values, amps)}
    )


def related_states(rng: Random, base: SparseState) -> list[SparseState]:
    """States that meet base on the shortcut and degenerate paths."""
    kept = singleton(rng.choice(base.branches))
    wider = singleton(BitString(base.bit_len + 1, 0))
    return [base, negated(base), kept, wider, random_state(rng, base.bit_len)]


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except InvalidInputError as exc:
        return str(exc)


class TestVerdictsMatchReference:
    CASES = 600

    def test_helstrom_discriminate_draws_as_before(self):
        rng = Random(2024)
        for case in range(self.CASES):
            h0 = random_state(rng, rng.choice((3, 8, 16)))
            for h1 in related_states(rng, h0):
                for truth in (h0, h1, random_state(rng, h0.bit_len)):
                    seed = rng.getrandbits(32)
                    mine, theirs = Random(seed), Random(seed)
                    got = outcome_of(helstrom_discriminate, truth, h0, h1, mine)
                    want = outcome_of(reference_helstrom, truth, h0, h1, theirs)
                    assert got == want, case
                    assert mine.getstate() == theirs.getstate(), case

    def test_quantum_verdict_draws_as_before(self):
        rng = Random(2025)
        for case in range(self.CASES):
            original = random_state(rng, rng.choice((3, 8, 16)))
            for returned in related_states(rng, original):
                for method in VerifyMethod:
                    seed = rng.getrandbits(32)
                    mine, theirs = Random(seed), Random(seed)
                    got = outcome_of(quantum_verdict, original, returned, method, mine)
                    want = outcome_of(
                        reference_quantum_verdict, original, returned, method, theirs
                    )
                    assert got == want, case
                    assert mine.getstate() == theirs.getstate(), case


class TestGlobalSign:
    """Amplitudes are real, so a return and its negation are one state, and
    Alice accepts them with the same probability, bit for bit."""

    CASES = 1000

    def test_a_return_and_its_negation_are_accepted_alike(self):
        rng = Random(2026)
        for case in range(self.CASES):
            original = random_state(rng, rng.choice((3, 8, 16)))
            kept = singleton(rng.choice(original.branches))
            for returned in (original, kept, random_state(rng, original.bit_len)):
                for method in VerifyMethod:
                    p = acceptance_probability(original, returned, method)
                    q = acceptance_probability(original, negated(returned), method)
                    assert p.hex() == q.hex(), (case, method)


# ---------------------------------------------------------------------------
# classical verification
# ---------------------------------------------------------------------------


class TestVerifyClassical:
    def test_honest_masks_always_accepted(self):
        rng = Random(1)
        for seed in range(200):
            package, record = seal_binary(seed=seed)
            message = bob_respond(
                package, CheatStrategy.HONEST, ReturnKind.CLASSICAL, rng
            )
            assert alice_verify_classical(record, message.mask)

    def test_zero_mask_accepted(self):
        _, record = seal_binary()
        assert alice_verify_classical(record, BitString(16, 0))

    def test_odd_parity_mask_rejected(self):
        _, record = seal_binary()
        diff = record.branches[0] ^ record.branches[1]
        low = diff.value & -diff.value
        assert not alice_verify_classical(record, BitString(16, low))

    def test_nary_two_branch_seal_supports_classical(self):
        package, record = seal_nary(k=2)
        message = bob_respond(
            package, CheatStrategy.HONEST, ReturnKind.CLASSICAL, Random(4)
        )
        assert alice_verify_classical(record, message.mask)

    def test_more_than_two_branches_unsupported(self):
        for k in (3, 8, 64):
            _, record = seal_nary(k=k)
            with pytest.raises(UnsupportedModeError):
                alice_verify_classical(record, BitString(16, 0))

    def test_width_mismatch_rejected(self):
        _, record = seal_binary(bits=16)
        with pytest.raises(InvalidInputError, match="width"):
            alice_verify_classical(record, BitString(8, 0))

    def test_random_masks_accepted_half_the_time(self):
        package, record = seal_binary(seed=31)
        rng = Random(32)
        trials = 20_000
        accepted = sum(
            alice_verify_classical(record, BitString.random(16, rng))
            for _ in range(trials)
        )
        assert abs(accepted / trials - 0.5) < 0.012

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=100)
    def test_acceptance_matches_the_parity_predicate(self, mask_value):
        _, record = seal_binary(seed=63)
        mask = BitString(16, mask_value)
        diff = record.branches[0] ^ record.branches[1]
        assert alice_verify_classical(record, mask) == (mask.dot(diff) == 0)


# ---------------------------------------------------------------------------
# secret record invariants
# ---------------------------------------------------------------------------


class TestAliceSecret:
    def test_branches_must_match_state(self):
        package, record = seal_binary()
        with pytest.raises(InvalidInputError):
            AliceSecret(
                mode=BinaryTcf(),
                secret=record.secret,
                branches=(record.branches[0], record.branches[0]),
                trapdoor=record.trapdoor,
                original_state=record.original_state,
            )

    def test_binary_requires_trapdoor(self):
        package, record = seal_binary()
        with pytest.raises(InvalidInputError):
            AliceSecret(
                mode=BinaryTcf(),
                secret=record.secret,
                branches=record.branches,
                trapdoor=None,
                original_state=record.original_state,
            )

    def test_original_state_must_be_uniform(self):
        _, record = seal_binary()
        x1, x2 = sorted(record.branches)
        amp = 1.0 / math.sqrt(2.0)
        with pytest.raises(InvalidInputError, match="1/sqrt"):
            AliceSecret(
                mode=BinaryTcf(),
                secret=record.secret,
                branches=record.branches,
                trapdoor=record.trapdoor,
                original_state=SparseState(16, {x1: -amp, x2: amp}),
            )

    def test_branches_may_come_in_any_order(self):
        _, record = seal_nary(k=4)
        reordered = AliceSecret(
            mode=record.mode,
            secret=record.secret,
            branches=tuple(reversed(record.branches)),
            trapdoor=None,
            original_state=record.original_state,
        )
        assert set(reordered.branches) == set(record.branches)

    def test_branch_of_another_width_is_rejected(self):
        # Same value, wider string: not a branch of the retained state.
        _, record = seal_nary(k=3)
        first, *rest = record.branches
        with pytest.raises(InvalidInputError, match="branches"):
            AliceSecret(
                mode=record.mode,
                secret=record.secret,
                branches=(BitString(17, first.value), *rest),
                trapdoor=None,
                original_state=record.original_state,
            )

    def test_branch_count_must_match_mode(self):
        _, record = seal_nary(k=3)
        with pytest.raises(InvalidInputError):
            AliceSecret(
                mode=NarySymmetric(4),
                secret=record.secret,
                branches=record.branches,
                trapdoor=None,
                original_state=record.original_state,
            )

    def test_binary_trapdoor_must_be_the_branch_difference(self):
        _, record = seal_binary()
        wrong = record.trapdoor ^ BitString(16, 1)
        with pytest.raises(InvalidInputError, match="trapdoor"):
            AliceSecret(
                mode=BinaryTcf(),
                secret=record.secret,
                branches=record.branches,
                trapdoor=wrong,
                original_state=record.original_state,
            )

    def test_nary_secrets_retain_no_trapdoor(self):
        _, record = seal_nary(k=2)
        x1, x2 = record.branches
        with pytest.raises(InvalidInputError, match="trapdoor"):
            AliceSecret(
                mode=record.mode,
                secret=record.secret,
                branches=record.branches,
                trapdoor=x1 ^ x2,
                original_state=record.original_state,
            )
