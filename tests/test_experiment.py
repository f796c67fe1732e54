"""Monte Carlo harness: intervals, closed forms, determinism, experiments.

Closed-form constants are cross-checked against dense linear algebra here
(numpy), independently of the sparse implementation under test.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import sys
import threading
from random import Random

import numpy as np
import pytest

from qseal import experiment, seal, sparsestate
from qseal.bits import BitString
from qseal.errors import InvalidInputError, UnsupportedModeError
from qseal.experiment import (
    CSV_HEADER,
    NARY_SECRET_BYTES,
    EstimateReport,
    TrialConfig,
    _class_table,
    _run_one,
    _spawned_rng,
    curve_csv,
    fig1_curve,
    mixture_diagnostic,
    run_trials,
    theory_pcheck,
    theory_rate,
    wilson_interval,
)
from qseal.seal import (
    MAX_BIT_LEN,
    AliceSecret,
    BinaryTcf,
    CheatStrategy,
    NarySymmetric,
    ReturnKind,
    SealPackage,
    VerifyMethod,
    acceptance_probability,
    alice_seal_binary,
    alice_seal_nary,
    alice_verify_classical,
    alice_verify_quantum,
    bob_respond,
    check_challenge,
)
from qseal.sparsestate import (
    SparseState,
    hadamard_measure,
    singleton,
    uniform_superposition,
)
from qseal.symcrypto import Ciphertext
from qseal.tcf import TcfOracle, TcfParams

HELSTROM_2 = 0.8535533905932737


def config(**overrides) -> TrialConfig:
    base = dict(
        mode=BinaryTcf(),
        bit_len=16,
        strategy=CheatStrategy.MEASURE_KEEP,
        return_kind=ReturnKind.QUANTUM,
        verify_method=VerifyMethod.HELSTROM_PER_BRANCH,
        trials=2_000,
        seed=0,
    )
    base.update(overrides)
    return TrialConfig(**base)


def valid_configs(modes, bit_lens, trials: int) -> list[TrialConfig]:
    """Every valid TrialConfig over the given modes and widths."""
    found = []
    for position, (mode, bit_len, strategy, kind, method) in enumerate(
        itertools.product(
            modes, bit_lens, CheatStrategy, ReturnKind, (None, *VerifyMethod)
        )
    ):
        try:
            found.append(
                TrialConfig(mode, bit_len, strategy, kind, method, trials, position)
            )
        except InvalidInputError:
            pass
    return found


def config_id(cfg: TrialConfig) -> str:
    mode = "binary" if isinstance(cfg.mode, BinaryTcf) else f"k{cfg.mode.k}"
    method = cfg.verify_method.value if cfg.verify_method else "-"
    return (
        f"{mode}-{cfg.bit_len}-{cfg.strategy.value}-{cfg.return_kind.value}-{method}"
    )


def public_round(cfg: TrialConfig, index: int):
    """Trial ``index`` of ``cfg`` through alice_seal_*, bob_respond and
    alice_verify_*, with TcfParams built afresh: the tracked event and the
    stream it leaves behind."""
    rng = _spawned_rng(cfg.seed, "trial", index)
    if isinstance(cfg.mode, BinaryTcf):
        package, record = alice_seal_binary(TcfParams(cfg.bit_len), rng)
    else:
        secret = rng.getrandbits(8 * NARY_SECRET_BYTES).to_bytes(
            NARY_SECRET_BYTES, "big"
        )
        package, record = alice_seal_nary(cfg.mode.k, secret, cfg.bit_len, rng)
    message = bob_respond(package, cfg.strategy, cfg.return_kind, rng)
    if cfg.return_kind is ReturnKind.CLASSICAL:
        accepted = alice_verify_classical(record, message.mask)
    else:
        accepted = alice_verify_quantum(record, message.state, cfg.verify_method, rng)
    return (not accepted) if cfg.statistic == "detection" else accepted, rng


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------


class TestWilson:
    def test_interval_is_ordered_and_bounded(self):
        low, high = wilson_interval(853, 1000)
        assert 0.0 <= low < 853 / 1000 < high <= 1.0

    def test_edge_counts(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low < 1.0

    def test_known_value(self):
        # 500/1000 at z=1.96: roughly (0.469, 0.531).
        low, high = wilson_interval(500, 1000)
        assert abs(low - 0.4690) < 0.001
        assert abs(high - 0.5310) < 0.001

    def test_width_shrinks_with_trials(self):
        low1, high1 = wilson_interval(85, 100)
        low2, high2 = wilson_interval(8500, 10_000)
        assert (high2 - low2) < (high1 - low1)

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidInputError):
            wilson_interval(5, 0)
        with pytest.raises(InvalidInputError):
            wilson_interval(11, 10)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


class TestTheory:
    def test_reference_values(self):
        assert abs(theory_pcheck(2) - 0.853553) < 1e-6
        assert abs(theory_pcheck(3) - 0.908248) < 1e-6
        assert abs(theory_pcheck(4) - 0.933013) < 1e-6
        assert abs(theory_pcheck(5) - 0.947214) < 1e-6

    def test_k_one_is_a_coin_and_limit_is_one(self):
        assert theory_pcheck(1) == 0.5
        assert theory_pcheck(10**12) > 0.9999994
        with pytest.raises(InvalidInputError):
            theory_pcheck(0)

    def test_nan_k_is_refused(self):
        with pytest.raises(InvalidInputError):
            theory_pcheck(float("nan"))

    def test_strictly_increasing_in_k(self):
        values = [theory_pcheck(k) for k in range(2, 65)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_dense_linear_algebra(self):
        # Independent oracle: embed the uniform k-branch state and one kept
        # branch as dense vectors, take the trace distance from the spectrum
        # of the density-matrix difference.
        for k in (2, 3, 4, 5, 8):
            dim = 2 * k
            psi = np.zeros(dim)
            psi[:k] = 1.0 / math.sqrt(k)
            kept = np.zeros(dim)
            kept[0] = 1.0
            diff = np.outer(psi, psi) - np.outer(kept, kept)
            distance = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
            assert abs((0.5 + 0.5 * distance) - theory_pcheck(k)) < 1e-12

    def test_mixture_success_from_first_principles(self):
        # Verifier not told the branch: original vs uniform two-branch
        # mixture.  Spectrum of the difference is {+1/2, -1/2}, so the best
        # equal-prior success rate is 1/2 + 1/4 * ||diff||_1 = 3/4.
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        kept = np.eye(2)  # the two branches a cheat may keep
        rho = 0.5 * np.outer(kept[0], kept[0]) + 0.5 * np.outer(kept[1], kept[1])
        diff = np.outer(psi, psi) - rho
        eigs = np.linalg.eigvalsh(diff)
        assert np.allclose(np.sort(eigs), [-0.5, 0.5])
        assert abs((0.5 + 0.25 * np.abs(eigs).sum()) - 0.75) < 1e-12
        # The optimal test projects onto the positive eigenspace of
        # 1/2 (|o><o| - rho): the original itself, so Alice's projective
        # verifier is that test.
        values, vectors = np.linalg.eigh(0.5 * diff)
        positive = vectors[:, values > 0]
        assert positive.shape == (2, 1)
        assert abs(abs(positive[:, 0] @ psi) - 1.0) < 1e-12


class TestTheoryRate:
    def test_honest_rates_are_one(self):
        honest = config(
            strategy=CheatStrategy.HONEST, verify_method=VerifyMethod.PROJECTIVE
        )
        assert theory_rate(honest) == 1.0
        classical = config(
            strategy=CheatStrategy.HONEST,
            return_kind=ReturnKind.CLASSICAL,
            verify_method=None,
        )
        assert theory_rate(classical) == 1.0

    def test_measure_keep_rates(self):
        assert theory_rate(config()) == theory_pcheck(2)
        projective = config(verify_method=VerifyMethod.PROJECTIVE)
        assert theory_rate(projective) == 0.5
        nary = config(mode=NarySymmetric(4), verify_method=VerifyMethod.PROJECTIVE)
        assert abs(theory_rate(nary) - 0.75) < 1e-12

    def test_guess_mask_rate_is_half(self):
        guess = config(
            strategy=CheatStrategy.MEASURE_GUESS_MASK,
            return_kind=ReturnKind.CLASSICAL,
            verify_method=None,
        )
        assert theory_rate(guess) == 0.5

    def test_random_state_rate_accounts_for_collisions(self):
        fresh = config(strategy=CheatStrategy.MEASURE_RANDOM_STATE, bit_len=8)
        expected = 1.0 - (2 / 256) * (1.0 - theory_pcheck(2))
        assert abs(theory_rate(fresh) - expected) < 1e-12

    def test_random_state_rate_equals_the_exact_quotient(self):
        # Bit for bit what k / 2^n gives wherever 2^n is a float.
        for k in range(2, 65):
            for bit_len in range((4 * k - 1).bit_length(), 1024):
                helstrom, projective = (
                    config(
                        mode=NarySymmetric(k),
                        strategy=CheatStrategy.MEASURE_RANDOM_STATE,
                        bit_len=bit_len,
                        verify_method=method,
                    )
                    for method in (
                        VerifyMethod.HELSTROM_PER_BRANCH, VerifyMethod.PROJECTIVE
                    )
                )
                power = float(1 << bit_len)
                collide = k / power
                assert theory_rate(helstrom) == (
                    1.0 - collide * (1.0 - theory_pcheck(k))
                ), (k, bit_len)
                assert theory_rate(projective) == (
                    1.0 - 1.0 / power
                ), (k, bit_len)

    @pytest.mark.parametrize("method", list(VerifyMethod))
    def test_random_state_rate_beyond_the_float_range(self, method):
        wide = config(
            mode=NarySymmetric(2),
            strategy=CheatStrategy.MEASURE_RANDOM_STATE,
            verify_method=method,
            bit_len=1100,
        )
        assert theory_rate(wide) == 1.0


def exact_rate(cfg: TrialConfig, original: SparseState) -> float:
    """The configured quantum statistic for one sealed register, summed over
    Bob's response distribution, each term read from acceptance_probability.

    measure-keep returns each of the k collapses with weight 1/k;
    measure-random-state returns each branch with weight 2^-n and a string
    outside the register with weight 1 - k/2^n.  Every outside string
    scores the same, so one of them stands for all.
    """
    method, n, k = cfg.verify_method, cfg.bit_len, original.num_branches

    def accept(returned: SparseState) -> float:
        return acceptance_probability(original, returned, method)

    if cfg.strategy is CheatStrategy.HONEST:
        return accept(original)
    collapses = [accept(singleton(branch)) for branch in original.branches]
    if cfg.strategy is CheatStrategy.MEASURE_KEEP:
        accepted = sum(p / k for p in collapses)
    else:
        used = {branch.value for branch in original.branches}
        outside = singleton(BitString(n, min(set(range(k + 1)) - used)))
        accepted = sum(math.ldexp(p, -n) for p in collapses) + (
            1.0 - math.ldexp(k, -n)
        ) * accept(outside)
    return 1.0 - accepted  # a cheat's statistic is its detection rate


class TestExactRates:
    """theory_rate against exact sums over sealed instances: deterministic
    gates next to the Monte Carlo intervals, which can miss."""

    MODES = [BinaryTcf(), *(NarySymmetric(k) for k in range(2, 65))]
    INSTANCES = 4

    def registers(self, mode, bit_len: int):
        """Registers of INSTANCES seals, then one representative of k branches."""
        for seed in range(self.INSTANCES):
            rng = Random(seed)
            if isinstance(mode, BinaryTcf):
                _, record = alice_seal_binary(TcfParams(bit_len), rng)
            else:
                _, record = alice_seal_nary(mode.k, b"exact", bit_len, rng)
            yield record.original_state
        yield uniform_superposition(
            BitString(bit_len, v) for v in range(mode.k)
        )

    @pytest.mark.parametrize("bit_len", [16, 64])
    def test_sums_match_theory_for_every_quantum_config(self, bit_len):
        configs = [
            cfg
            for cfg in valid_configs(self.MODES, (bit_len,), trials=1)
            if cfg.return_kind is ReturnKind.QUANTUM
        ]
        assert len(configs) == 6 * len(self.MODES)
        for cfg in configs:
            want = theory_rate(cfg)
            for register in self.registers(cfg.mode, bit_len):
                got = exact_rate(cfg, register)
                assert abs(got - want) <= 1e-12, (config_id(cfg), got, want)

    @pytest.mark.parametrize("bit_len", [3, 16, 64])
    def test_mixture_sum_is_three_quarters(self, bit_len):
        """Equal priors: an honest return is accepted, a cheat keeps either
        branch with 1/2 and is caught when the projective verifier rejects."""
        for register in self.registers(NarySymmetric(2), bit_len):

            def accept(returned: SparseState) -> float:
                return acceptance_probability(
                    register, returned, VerifyMethod.PROJECTIVE
                )

            success = 0.5 * accept(register) + 0.5 * sum(
                0.5 * (1.0 - accept(singleton(branch)))
                for branch in register.branches
            )
            assert abs(success - 0.75) <= 1e-12, (register, success)

    def test_a_collapsed_branch_has_one_probability_per_k_and_method(self):
        """Also the register itself and a string outside it: each class's
        probability, at every width, is the one float the trial kernel's
        class table holds for k, down to the last bit.  A few k also run at
        their 4k-floor width and at MAX_BIT_LEN."""
        found: dict[tuple[int, VerifyMethod, int], set[str]] = {}
        for mode in self.MODES:
            k = mode.k
            widths = [16, 64]
            if isinstance(mode, NarySymmetric) and k in (2, 5, 17, 64):
                widths += [(4 * k - 1).bit_length(), MAX_BIT_LEN]
            for bit_len in widths:
                for register in self.registers(mode, bit_len):
                    used = {branch.value for branch in register.branches}
                    spare = (min(set(range(k + 1)) - used), (1 << bit_len) - 1)
                    classes = {
                        0: [register],
                        1: [singleton(branch) for branch in register.branches],
                        2: [
                            singleton(BitString(bit_len, v))
                            for v in spare
                            if v not in used
                        ],
                    }
                    for method in VerifyMethod:
                        table = _class_table(k, method)
                        for case, returns in classes.items():
                            hexes = found.setdefault((k, method, case), set())
                            hexes.add(table[case].hex())
                            hexes.update(
                                acceptance_probability(register, returned, method).hex()
                                for returned in returns
                            )
        assert len(found) == 63 * len(VerifyMethod) * 3
        spread = {key: hexes for key, hexes in found.items() if len(hexes) != 1}
        assert spread == {}
        itself = {hexes.pop() for (_, _, case), hexes in found.items() if case == 0}
        assert itself == {(1.0).hex()}

    @pytest.mark.parametrize("bit_len", [2, 3, 16, 64])
    def test_honest_masks_are_hadamard_draws_and_are_accepted(
        self, bit_len, monkeypatch
    ):
        """_run_one's honest classical mask is hadamard_measure's on the
        register sealed from the same stream, whichever branch was drawn
        first, and leaves the stream where hadamard_measure does;
        alice_verify_classical accepts every such mask."""
        masks = []
        orthogonal_mask = sparsestate._orthogonal_mask

        def recorded(n, diff, rng):
            masks.append(orthogonal_mask(n, diff, rng))
            return masks[-1]

        monkeypatch.setattr(experiment, "_orthogonal_mask", recorded)
        modes = [BinaryTcf()] if bit_len == 2 else [BinaryTcf(), NarySymmetric(2)]
        for mode in modes:
            cfg = config(
                mode=mode,
                bit_len=bit_len,
                strategy=CheatStrategy.HONEST,
                return_kind=ReturnKind.CLASSICAL,
                verify_method=None,
                trials=100,
            )
            params, table = run_state(cfg)
            orders = set()
            for index in range(cfg.trials):
                masks.clear()
                kernel = _spawned_rng(cfg.seed, "trial", index)
                assert _run_one(cfg, kernel, params, table), index
                public = _spawned_rng(cfg.seed, "trial", index)
                if params is not None:
                    package, record = alice_seal_binary(params, public)
                else:
                    public.getrandbits(8 * NARY_SECRET_BYTES)
                    package, record = alice_seal_nary(2, b"s", bit_len, public)
                mask = hadamard_measure(package.register, public)
                assert masks == [mask.value], index
                assert kernel.getstate() == public.getstate(), index
                assert alice_verify_classical(record, mask), index
                first, second = record.branches
                orders.add(first.value < second.value)
            assert orders == {False, True}

    @pytest.mark.parametrize("bit_len", range(2, 9))
    def test_a_guessed_mask_passes_exactly_half_the_masks(self, bit_len):
        """For every nonzero branch difference, 2^(n-1) of the 2^n masks
        pass, so a uniformly guessed mask is accepted at theory_rate."""
        guess = config(
            bit_len=bit_len,
            strategy=CheatStrategy.MEASURE_GUESS_MASK,
            return_kind=ReturnKind.CLASSICAL,
            verify_method=None,
        )
        x1 = BitString(bit_len, 0)
        for diff in range(1, 1 << bit_len):
            x2 = BitString(bit_len, diff)
            record = AliceSecret(
                BinaryTcf(), b"exact", (x1, x2), x2, uniform_superposition((x1, x2))
            )
            passed = sum(
                alice_verify_classical(record, BitString(bit_len, mask))
                for mask in range(1 << bit_len)
            )
            assert passed == 1 << (bit_len - 1), diff
            assert math.ldexp(passed, -bit_len) == theory_rate(guess)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestTrialConfig:
    def test_classical_requires_two_branches(self):
        with pytest.raises(InvalidInputError):
            config(
                mode=NarySymmetric(3),
                strategy=CheatStrategy.HONEST,
                return_kind=ReturnKind.CLASSICAL,
                verify_method=None,
            )

    def test_config_refuses_exactly_where_check_challenge_does(self):
        """Every (strategy, kind) at k = 2, 3, 8, 64: TrialConfig builds
        exactly the configurations check_challenge allows, and refuses the
        others with its error."""
        for k in (2, 3, 8, 64):
            for strategy in CheatStrategy:
                for kind in ReturnKind:
                    fields = dict(
                        mode=NarySymmetric(k),
                        strategy=strategy,
                        return_kind=kind,
                        verify_method=(
                            VerifyMethod.PROJECTIVE
                            if kind is ReturnKind.QUANTUM
                            else None
                        ),
                    )
                    try:
                        check_challenge(strategy, kind, k)
                    except UnsupportedModeError:
                        with pytest.raises(UnsupportedModeError):
                            config(**fields)
                    else:
                        config(**fields)

    def test_classical_forbids_verify_method(self):
        with pytest.raises(InvalidInputError):
            config(
                strategy=CheatStrategy.HONEST,
                return_kind=ReturnKind.CLASSICAL,
                verify_method=VerifyMethod.PROJECTIVE,
            )

    def test_quantum_requires_verify_method(self):
        with pytest.raises(InvalidInputError):
            config(verify_method=None)

    def test_honest_helstrom_is_accepted(self):
        report = run_trials(config(strategy=CheatStrategy.HONEST, trials=200))
        assert (report.statistic, report.p_hat, report.p_theory) == (
            "acceptance", 1.0, 1.0
        )

    def test_incompatible_strategy_kind(self):
        assert issubclass(UnsupportedModeError, InvalidInputError)
        with pytest.raises(InvalidInputError):
            config(
                strategy=CheatStrategy.MEASURE_GUESS_MASK,
                return_kind=ReturnKind.QUANTUM,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            *(("strategy", member.value) for member in CheatStrategy),
            *(("return_kind", member.value) for member in ReturnKind),
            *(("verify_method", member.value) for member in VerifyMethod),
        ],
    )
    def test_refuses_the_string_value_of_a_member(self, field, value):
        """The string value of any member is refused, so no run starts."""
        with pytest.raises(InvalidInputError, match="unknown|verify method"):
            config(mode=NarySymmetric(4), **{field: value})

    @pytest.mark.parametrize(
        "mode, bit_len",
        [
            (NarySymmetric(2), -1),
            (NarySymmetric(2), 2),
            (BinaryTcf(), -1),
            (BinaryTcf(), 1),
        ],
    )
    def test_rejects_widths_too_small_for_the_mode(self, mode, bit_len):
        with pytest.raises(InvalidInputError):
            config(mode=mode, bit_len=bit_len)

    def test_statistic_labels(self):
        assert config().statistic == "detection"
        assert (
            config(
                strategy=CheatStrategy.HONEST,
                verify_method=VerifyMethod.PROJECTIVE,
            ).statistic
            == "acceptance"
        )
        assert (
            config(
                strategy=CheatStrategy.MEASURE_GUESS_MASK,
                return_kind=ReturnKind.CLASSICAL,
                verify_method=None,
            ).statistic
            == "acceptance"
        )


# ---------------------------------------------------------------------------
# trial streams and determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_spawned_streams_differ_by_index_and_seed(self):
        a = _spawned_rng(0, "trial", 0).random()
        b = _spawned_rng(0, "trial", 1).random()
        c = _spawned_rng(1, "trial", 0).random()
        assert len({a, b, c}) == 3

    def test_spawned_streams_reproduce(self):
        assert _spawned_rng(5, "trial", 7).random() == _spawned_rng(
            5, "trial", 7
        ).random()

    def test_seed_range_is_signed_64_bit(self):
        for seed in (2**63 - 1, -(2**63)):
            _spawned_rng(seed, "trial", 0)
        for seed in (2**63, -(2**63) - 1):
            with pytest.raises(InvalidInputError):
                _spawned_rng(seed, "trial", 0)
            with pytest.raises(InvalidInputError):
                run_trials(config(trials=1, seed=seed))

    def test_reports_reproduce_exactly(self):
        cfg = config(trials=1_500, seed=99)
        assert run_trials(cfg) == run_trials(cfg)

    @pytest.mark.parametrize(
        "strategy, kind, method",
        [
            ("measure-keep", "quantum", "helstrom"),
            ("measure-keep", "quantum", "projective"),
            ("measure-random-state", "quantum", "projective"),
            ("honest", "classical", None),
            ("measure-guess-d", "classical", None),
        ],
    )
    def test_binary_counts_match_rounds_sealed_with_fresh_params(
        self, strategy, kind, method
    ):
        """run_trials builds TcfParams once per run; rounds that build it per
        trial, from public calls, count the same events."""
        cfg = config(
            strategy=CheatStrategy(strategy),
            return_kind=ReturnKind(kind),
            verify_method=None if method is None else VerifyMethod(method),
            trials=300,
            seed=41,
        )
        events = sum(public_round(cfg, index)[0] for index in range(cfg.trials))
        assert run_trials(cfg).p_hat == events / cfg.trials

    def test_different_seeds_change_counts(self):
        a = run_trials(config(trials=2_000, seed=0))
        b = run_trials(config(trials=2_000, seed=1))
        assert a.p_hat != b.p_hat  # equal would be a one-in-thousands fluke


# ---------------------------------------------------------------------------
# the trial kernel: the public path's verdicts from branch values and a class table
# ---------------------------------------------------------------------------

# At 3 and 5 bits a random-state string lands in the register about one
# trial in four, so the in-support class is exercised; at 16 and 64 bits
# it almost never is.
COLLISION_CONFIGS = valid_configs(
    [BinaryTcf(), NarySymmetric(2)], (3,), trials=300
) + valid_configs([NarySymmetric(8)], (5,), trials=300)
EQUIVALENCE_CONFIGS = (
    valid_configs(
        [BinaryTcf(), NarySymmetric(2), NarySymmetric(8), NarySymmetric(64)],
        (16, 64),
        trials=300,
    )
    + COLLISION_CONFIGS
)


def run_state(cfg: TrialConfig):
    """The per-run arguments run_trials passes _run_one for ``cfg``."""
    params = TcfParams(cfg.bit_len) if isinstance(cfg.mode, BinaryTcf) else None
    if cfg.verify_method is None:
        return params, None
    return params, _class_table(cfg.mode.k, cfg.verify_method)


class TestTrialKernel:
    def test_every_valid_combination_is_covered(self):
        # Per mode and width: 6 quantum combinations, plus 2 classical ones
        # (honest and measure-guess-d) for the two-branch modes.
        assert len(EQUIVALENCE_CONFIGS) == 2 * (8 + 8 + 6 + 6) + (8 + 8 + 6)
        classical_k2 = {
            (cfg.bit_len, cfg.strategy)
            for cfg in EQUIVALENCE_CONFIGS
            if cfg.mode == NarySymmetric(2) and cfg.return_kind is ReturnKind.CLASSICAL
        }
        assert classical_k2 == {
            (bit_len, strategy)
            for bit_len in (3, 16, 64)
            for strategy in (CheatStrategy.HONEST, CheatStrategy.MEASURE_GUESS_MASK)
        }

    @pytest.mark.parametrize("cfg", EQUIVALENCE_CONFIGS, ids=config_id)
    def test_verdicts_and_stream_match_the_public_roles(self, cfg):
        params, table = run_state(cfg)
        for index in range(cfg.trials):
            rng = _spawned_rng(cfg.seed, "trial", index)
            accepted = _run_one(cfg, rng, params, table)
            expected, public_rng = public_round(cfg, index)
            event = (not accepted) if cfg.statistic == "detection" else accepted
            assert event == expected, index
            # Both left the trial's stream at the same place.
            assert rng.getrandbits(64) == public_rng.getrandbits(64), index

    @pytest.mark.parametrize(
        "cfg",
        [
            cfg
            for cfg in COLLISION_CONFIGS
            if cfg.strategy is CheatStrategy.MEASURE_RANDOM_STATE
        ],
        ids=config_id,
    )
    def test_small_widths_hit_the_in_support_class(self, cfg):
        """The public roles return a string inside the register in at least
        10 of the 300 trials, so the kernel's in-support class is compared."""
        hits = 0
        for index in range(cfg.trials):
            rng = _spawned_rng(cfg.seed, "trial", index)
            if isinstance(cfg.mode, BinaryTcf):
                package, record = alice_seal_binary(TcfParams(cfg.bit_len), rng)
            else:
                rng.getrandbits(8 * NARY_SECRET_BYTES)
                package, record = alice_seal_nary(cfg.mode.k, b"s", cfg.bit_len, rng)
            message = bob_respond(package, cfg.strategy, cfg.return_kind, rng)
            hits += message.state.branches[0] in record.branches
        assert hits >= 10

    @pytest.mark.parametrize(
        "mode",
        [BinaryTcf(), NarySymmetric(2), NarySymmetric(8), NarySymmetric(32)],
        ids=["binary", "k2", "k8", "k32"],
    )
    def test_a_run_hashes_once_and_builds_no_seal_objects(self, monkeypatch, mode):
        """The one SHA-256 call per run is its stream prefix; trials copy it.
        No ciphertext, claw image, package, record or function instance is
        built."""
        hashes = 0
        real_sha256 = hashlib.sha256

        def counting_sha256(*args, **kwargs):
            nonlocal hashes
            hashes += 1
            return real_sha256(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a Monte Carlo trial built an output-only object")

        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        for cfg in valid_configs([mode], (16,), trials=20):
            hashes = 0
            run_trials(cfg)
            assert hashes == 1, config_id(cfg)
        hashes = 0
        mixture_diagnostic(16, trials=20, seed=3)
        assert hashes == 1
        for cls in (SealPackage, AliceSecret):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        monkeypatch.setattr(Ciphertext, "__init__", refuse)
        instances = 0
        real_check = TcfOracle.__post_init__

        def counting_check(self):
            nonlocal instances
            instances += 1
            real_check(self)

        monkeypatch.setattr(TcfOracle, "__post_init__", counting_check)
        for cfg in valid_configs([mode], (16,), trials=20):
            instances = 0
            run_trials(cfg)
            assert instances == 0, config_id(cfg)

    @pytest.mark.parametrize("run", ["binary", "k2", "k8", "k32", "mixture", "curve"])
    def test_trials_build_no_states_or_bit_strings(self, monkeypatch, run):
        """A run builds no state and no bit string, neither per trial nor in
        its setup or class table, at 50 and at 500 trials: every valid config
        of each mode, the mixture diagnostic and a k <= 8 curve."""
        built = {SparseState: 0, BitString: 0}

        def counting(cls):
            real_check = cls.__post_init__

            def counting_check(self):
                built[cls] += 1
                real_check(self)

            return counting_check

        for cls in built:
            monkeypatch.setattr(cls, "__post_init__", counting(cls))
        if run == "mixture":
            runs = {run: lambda trials: mixture_diagnostic(16, trials, seed=4)}
        elif run == "curve":
            runs = {run: lambda trials: fig1_curve(8, trials)}
        else:
            mode = BinaryTcf() if run == "binary" else NarySymmetric(int(run[1:]))
            runs = {
                config_id(cfg): lambda trials, cfg=cfg: run_trials(
                    TrialConfig(
                        cfg.mode, cfg.bit_len, cfg.strategy, cfg.return_kind,
                        cfg.verify_method, trials, cfg.seed,
                    )
                )
                for cfg in valid_configs([mode], (16,), trials=50)
            }
        for name, execute in runs.items():
            for trials in (50, 500):
                built.update(dict.fromkeys(built, 0))
                execute(trials)
                assert built == {SparseState: 0, BitString: 0}, (name, trials)
        # The counters are live: one seal under the same patches counts both.
        built.update(dict.fromkeys(built, 0))
        alice_seal_nary(4, b"s", 16, Random(0))
        assert all(built.values()), built

    @pytest.fixture
    def verdict_calls(self, monkeypatch) -> dict[str, int]:
        """Counts of SparseState.isclose and inner_product calls."""
        calls = {"isclose": 0, "inner_product": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(
            SparseState, "isclose", counting("isclose", SparseState.isclose)
        )
        counted_inner = counting("inner_product", sparsestate.inner_product)
        monkeypatch.setattr(sparsestate, "inner_product", counted_inner)
        monkeypatch.setattr(seal, "inner_product", counted_inner)
        return calls

    def test_helstrom_verdicts_test_no_closeness_or_overlap(self, verdict_calls):
        """The class table computes its floats from k: no run, whatever its
        trial count, tests a closeness or takes an overlap."""
        for mode in (BinaryTcf(), NarySymmetric(8)):
            for trials in (50, 500):
                verdict_calls.update(isclose=0, inner_product=0)
                run_trials(config(mode=mode, trials=trials))
                assert verdict_calls == {"isclose": 0, "inner_product": 0}
        self.assert_counted(verdict_calls, VerifyMethod.HELSTROM_PER_BRANCH, 2)

    def test_mixture_verdicts_test_no_closeness_or_overlap(self, verdict_calls):
        """Projective, as the mixture diagnostic verifies: none either."""
        for trials in (200, 2_000):
            verdict_calls.update(isclose=0, inner_product=0)
            mixture_diagnostic(16, trials, seed=4)
            assert verdict_calls == {"isclose": 0, "inner_product": 0}
        self.assert_counted(verdict_calls, VerifyMethod.PROJECTIVE, 1)

    @staticmethod
    def assert_counted(calls, method: VerifyMethod, overlaps: int) -> None:
        """The counters are live: one verdict on a collapsed branch counts."""
        calls.update(isclose=0, inner_product=0)
        register = uniform_superposition(BitString(16, v) for v in range(2))
        acceptance_probability(register, singleton(BitString(16, 0)), method)
        assert calls == {"isclose": 1, "inner_product": overlaps}

    def test_runs_in_four_threads_match_serial_runs(self):
        """Runs interleaved with each other's trials give the serial
        reports: each run's generator is its own.  No run draws from or
        reseeds the global generator."""
        jobs = [
            lambda: run_trials(config(trials=3_000, seed=21)),
            lambda: run_trials(config(mode=NarySymmetric(8), trials=3_000, seed=22)),
            lambda: mixture_diagnostic(16, 3_000, seed=23),
            lambda: fig1_curve(6, 600, seed=24),
        ]
        global_state = random.getstate()
        serial = [job() for job in jobs]
        assert random.getstate() == global_state
        start = threading.Barrier(len(jobs), timeout=60)
        results: list[list] = [[] for _ in jobs]

        def worker(slot: int) -> None:
            start.wait()
            results[slot] = [job() for job in jobs[slot:] + jobs[:slot]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial[i:] + serial[:i] for i in range(len(jobs))]
        assert random.getstate() == global_state


class TestStreamPrefix:
    """A run hashes its (seed, label) prefix once and derives each trial's
    seed from a copy, then reseeds its one generator with it: exactly the
    stream _spawned_rng gives that trial."""

    SEEDS = (0, -1, -(2**63), 2**63 - 1, 0x5EED_1E55_C0FF_EE15 - 2**63)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("label", ["trial", "mixture"])
    def test_each_trial_gets_its_spawned_stream(self, monkeypatch, seed, label):
        trials = 1_000
        expected = [_spawned_rng(seed, label, i).getstate() for i in range(trials)]
        counts, generators, states = [], [], []
        real_trial_streams = experiment._trial_streams

        def recording_trial_streams(prefix, count):
            counts.append(count)
            for rng in real_trial_streams(prefix, count):
                generators.append(rng)
                states.append(rng.getstate())
                yield rng

        monkeypatch.setattr(experiment, "_trial_streams", recording_trial_streams)
        if label == "trial":
            run_trials(config(trials=trials, seed=seed))
        else:
            mixture_diagnostic(trials=trials, seed=seed)
        assert counts == [trials]
        # One generator per run, reseeded for every trial.
        assert all(rng is generators[0] for rng in generators)
        # Equal generator states: every draw of the trial agrees.
        assert states == expected

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 16.0, "16", True, None])
    def test_an_out_of_range_seed_fails_before_any_trial(self, monkeypatch, seed):
        """Seeds are ints in [-2^63, 2^63): a TrialConfig refuses any other at
        construction, and mixture_diagnostic and fig1_curve before a trial."""

        def refuse(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "_trial_streams", refuse)
        message = re.escape(
            f"seed must be an int in [{-(2**63)}, {2**63 - 1}], got {seed!r}"
        )
        with pytest.raises(InvalidInputError, match=message):
            config(trials=5, seed=seed)
        with pytest.raises(InvalidInputError, match=message):
            mixture_diagnostic(trials=5, seed=seed)
        with pytest.raises(InvalidInputError, match=message):
            fig1_curve(3, 5, seed=seed)


# ---------------------------------------------------------------------------
# estimated rates per channel
# ---------------------------------------------------------------------------


class TestRates:
    def test_binary_helstrom_detection(self):
        report = run_trials(config(trials=20_000, seed=2))
        assert report.statistic == "detection"
        assert report.p_theory == HELSTROM_2
        se = math.sqrt(HELSTROM_2 * (1 - HELSTROM_2) / report.trials)
        assert abs(report.p_hat - HELSTROM_2) < 4 * se
        assert report.ci_low < HELSTROM_2 < report.ci_high

    def test_honest_channels_accept_everything(self):
        quantum = run_trials(
            config(
                strategy=CheatStrategy.HONEST,
                verify_method=VerifyMethod.PROJECTIVE,
                trials=3_000,
                seed=3,
            )
        )
        assert quantum.p_hat == 1.0
        classical = run_trials(
            config(
                strategy=CheatStrategy.HONEST,
                return_kind=ReturnKind.CLASSICAL,
                verify_method=None,
                trials=3_000,
                seed=4,
            )
        )
        assert classical.p_hat == 1.0

    def test_guess_mask_acceptance_near_half(self):
        report = run_trials(
            config(
                strategy=CheatStrategy.MEASURE_GUESS_MASK,
                return_kind=ReturnKind.CLASSICAL,
                verify_method=None,
                trials=10_000,
                seed=5,
            )
        )
        assert report.statistic == "acceptance"
        assert abs(report.p_hat - 0.5) < 0.015

    def test_nary_projective_detection_tracks_one_minus_one_over_k(self):
        for k, seed in [(2, 6), (3, 7), (4, 8)]:
            report = run_trials(
                config(
                    mode=NarySymmetric(k),
                    verify_method=VerifyMethod.PROJECTIVE,
                    trials=8_000,
                    seed=seed,
                )
            )
            expected = 1.0 - 1.0 / k
            se = math.sqrt(expected * (1 - expected) / report.trials)
            assert abs(report.p_hat - expected) < 4 * se, f"k={k}"

    def test_random_state_is_nearly_always_detected(self):
        report = run_trials(
            config(
                strategy=CheatStrategy.MEASURE_RANDOM_STATE,
                bit_len=8,
                trials=5_000,
                seed=9,
            )
        )
        assert report.p_hat >= 0.99

    def test_nary_two_matches_binary_theory(self):
        # Same closed form regardless of how the two branches were sealed.
        binary = run_trials(config(trials=10_000, seed=10))
        nary = run_trials(
            config(mode=NarySymmetric(2), trials=10_000, seed=10)
        )
        assert binary.p_theory == nary.p_theory == HELSTROM_2
        assert abs(binary.p_hat - nary.p_hat) < 0.02


# ---------------------------------------------------------------------------
# curve and mixture experiments
# ---------------------------------------------------------------------------


class TestCurve:
    def test_points_cover_the_requested_range(self):
        points = fig1_curve(k_max=4, trials_per_point=1_500, seed=11)
        assert [pt.k for pt in points] == [2, 3, 4]
        for pt in points:
            assert pt.p_theory == theory_pcheck(pt.k)
            assert pt.trials == 1_500
            assert 0.0 <= pt.ci_low <= pt.p_hat <= pt.ci_high <= 1.0

    def test_empirical_points_near_theory(self):
        points = fig1_curve(k_max=5, trials_per_point=4_000, seed=12)
        for pt in points:
            se = math.sqrt(pt.p_theory * (1 - pt.p_theory) / pt.trials)
            assert abs(pt.p_hat - pt.p_theory) < 4 * se, f"k={pt.k}"

    def test_curve_reproduces_and_ignores_worker_count(self):
        a = fig1_curve(k_max=3, trials_per_point=1_000, seed=13, workers=1)
        b = fig1_curve(k_max=3, trials_per_point=1_000, seed=13, workers=3)
        assert a == b

    def test_rejects_k_max_below_two(self):
        with pytest.raises(InvalidInputError):
            fig1_curve(k_max=1, trials_per_point=10)

    @pytest.mark.parametrize("k_max, bit_len", [(65, 16), (4, 3), (2, -1)])
    def test_rejects_k_max_before_the_first_point(self, monkeypatch, k_max, bit_len):
        def no_trials(*args, **kwargs):
            raise AssertionError("a point ran before k_max was checked")

        monkeypatch.setattr(experiment, "run_trials", no_trials)
        with pytest.raises(InvalidInputError):
            fig1_curve(k_max=k_max, trials_per_point=10, bit_len=bit_len)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one_before_the_first_point(
        self, monkeypatch, workers
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("a point ran before workers was checked")

        monkeypatch.setattr(experiment, "run_trials", no_trials)
        with pytest.raises(InvalidInputError, match="workers"):
            fig1_curve(k_max=3, trials_per_point=10, workers=workers)

    def test_huge_worker_count_starts_at_most_one_thread_per_point(
        self, monkeypatch
    ):
        serial = fig1_curve(k_max=3, trials_per_point=50, seed=19, workers=1)
        run_point = experiment.run_trials
        seen: list[int] = []

        def counting(*args, **kwargs):
            seen.append(threading.active_count())
            return run_point(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_trials", counting)
        before = threading.active_count()
        threaded = fig1_curve(k_max=3, trials_per_point=50, seed=19, workers=10**6)
        assert threaded == serial
        assert len(seen) == 2 and max(seen) - before <= 2

    def test_every_point_runs_in_the_calling_thread(self, monkeypatch):
        serial = fig1_curve(k_max=4, trials_per_point=20, seed=3, workers=1)
        run_point = experiment.run_trials
        threads: list[int] = []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return run_point(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_trials", recording)
        points = fig1_curve(k_max=4, trials_per_point=20, seed=3, workers=4)
        assert points == serial
        assert threads == [threading.get_ident()] * 3

    def test_points_are_run_trials_reports(self):
        points = fig1_curve(k_max=4, trials_per_point=300, seed=18)
        for pt in points:
            point_config = TrialConfig(
                mode=NarySymmetric(pt.k),
                bit_len=experiment.DEFAULT_BIT_LEN,
                strategy=CheatStrategy.MEASURE_KEEP,
                return_kind=ReturnKind.QUANTUM,
                verify_method=VerifyMethod.HELSTROM_PER_BRANCH,
                trials=300,
                seed=_spawned_rng(18, "curve", pt.k).getrandbits(63),
            )
            assert pt == run_trials(point_config)

    def test_csv_shape(self):
        points = [
            EstimateReport(
                statistic="detection", k=2, p_hat=0.8531, ci_low=0.8449,
                ci_high=0.8610, trials=5000, p_theory=0.8535533905932737,
            ),
            EstimateReport(
                statistic="detection", k=3, p_hat=0.9091, ci_low=0.9008,
                ci_high=0.9166, trials=5000, p_theory=0.908248290463863,
            ),
        ]
        text = curve_csv(points)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "2,0.853553,0.853100,0.844900,0.861000,5000"
        assert lines[2] == "3,0.908248,0.909100,0.900800,0.916600,5000"
        assert text.endswith("\n")


class TestMixture:
    def test_success_rate_near_three_quarters(self):
        report = mixture_diagnostic(bit_len=16, trials=20_000, seed=14)
        assert report.statistic == "discrimination_success"
        assert report.p_theory == 0.75
        assert abs(report.p_hat - 0.75) < 0.012

    def test_reproducible(self):
        assert mixture_diagnostic(8, 2_000, 15) == mixture_diagnostic(8, 2_000, 15)

    def test_sits_below_the_per_branch_figure(self):
        report = mixture_diagnostic(bit_len=12, trials=20_000, seed=16)
        assert report.p_hat < HELSTROM_2 - 0.05

    def test_an_honest_trial_succeeds_on_the_top_draw(self, monkeypatch):
        """Every trial's coin says honest and every later random() is
        1 - 2^-53, the largest value it returns: an unchanged register is
        accepted with probability 1.0, so every trial succeeds."""

        class HonestThenTop(Random):
            coin_drawn = False

            def random(self) -> float:
                if not self.coin_drawn:
                    self.coin_drawn = True
                    return 0.25
                return 1.0 - 2.0**-53

        monkeypatch.setattr(
            experiment,
            "_trial_streams",
            lambda prefix, trials: map(HonestThenTop, range(trials)),
        )
        assert mixture_diagnostic(16, 50, seed=1).p_hat == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            mixture_diagnostic(bit_len=2, trials=10)
        with pytest.raises(InvalidInputError):
            mixture_diagnostic(bit_len=8, trials=0)


class TestReportShape:
    def test_report_fields(self):
        report = run_trials(config(trials=1_000, seed=17))
        assert isinstance(report, EstimateReport)
        assert report.trials == 1_000
        assert 0.0 <= report.ci_low <= report.p_hat <= report.ci_high <= 1.0
