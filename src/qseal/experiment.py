"""Monte Carlo estimation of acceptance and detection rates.

A trial makes the draws of alice_seal_*, bob_respond and alice_verify_*, in
their order and through their draw helpers, on branch values: it builds no
BitString, SparseState or TcfOracle.  A quantum verdict is one random() below
the acceptance probability of the return's class (the register, a string in
it, a string outside it), one float per class for the run's k at any width,
which the run reads from a table.  A classical verdict is the parity of the
mask against the branch difference; an honest mask is drawn as
hadamard_measure draws it on the register, from the branch values alone.
Each trial's stream is seeded by hashing the master seed with the trial
index, so results are reproducible bit-for-bit and independent of how
trials are scheduled.  Every run is serial, in the calling thread.  A run
hashes the (seed, label) prefix once, extends a copy of it by each trial's
index, and reseeds one random.Random of its own with the result, which gives
each trial exactly the stream _spawned_rng(seed, label, index) derives on
its own.

Reported intervals are 95% Wilson score intervals.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Iterator
from random import Random

from .errors import InvalidInputError
from .seal import (
    BinaryTcf,
    CheatStrategy,
    NarySymmetric,
    ReturnKind,
    SealMode,
    VerifyMethod,
    check_challenge,
    check_width,
    cheat_draws,
    draw_branches,
    draw_claw,
)
from .sparsestate import _orthogonal_mask, helstrom_p_report_h0
from .tcf import TcfParams
from .value import Value, check_int, set_field

Z95 = 1.959963984540054

DEFAULT_BIT_LEN = 16
NARY_SECRET_BYTES = 16

CSV_HEADER = "k,p_theory,p_hat,ci_low,ci_high,trials"

# Master seeds are signed 64-bit ints.
SEED_RANGE = (-(1 << 63), (1 << 63) - 1)

_pack_index = struct.Struct(">cq").pack  # a stream's b"i" and index
_unpack_seed = struct.Struct(">Q").unpack_from  # its seed: 8 digest bytes


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    check_int("trials", trials, 1)
    check_int("successes", successes, 0, trials)
    p_hat = successes / trials
    z = Z95
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    # Observed extremes can never be excluded; pin them despite rounding.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def theory_pcheck(k: int) -> float:
    """Closed-form per-branch detection probability for k branches."""
    check_int("k", k, 1)
    return 0.5 + 0.5 * math.sqrt(1.0 - 1.0 / k)


class TrialConfig(Value):
    __slots__ = (
        "mode", "bit_len", "strategy", "return_kind", "verify_method", "trials", "seed"
    )

    def __init__(
        self, mode: SealMode, bit_len: int, strategy: CheatStrategy,
        return_kind: ReturnKind, verify_method: VerifyMethod | None, trials: int,
        seed: int,
    ) -> None:
        set_field(self, "mode", mode)
        set_field(self, "bit_len", bit_len)
        set_field(self, "strategy", strategy)
        set_field(self, "return_kind", return_kind)
        set_field(self, "verify_method", verify_method)
        set_field(self, "trials", trials)
        set_field(self, "seed", seed)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int("trials", self.trials, 1)
        check_int("seed", self.seed, *SEED_RANGE)
        check_width(self.mode, self.bit_len)
        check_challenge(self.strategy, self.return_kind, self.mode.k)
        wanted = VerifyMethod if self.return_kind is ReturnKind.QUANTUM else type(None)
        if not isinstance(self.verify_method, wanted):
            raise InvalidInputError(
                "a quantum challenge needs a verify method and a classical one "
                "takes none"
            )

    @property
    def statistic(self) -> str:
        """Which rate run_trials reports for this configuration."""
        if (
            self.return_kind is ReturnKind.QUANTUM
            and self.strategy is not CheatStrategy.HONEST
        ):
            return "detection"
        return "acceptance"


class EstimateReport(Value):
    """One rate estimate for a k-branch seal; one report is one CSV row.

    p_hat comes with its 95% Wilson interval; p_theory is the exact rate.
    """

    __slots__ = ("statistic", "k", "p_hat", "ci_low", "ci_high", "trials", "p_theory")

    def __init__(
        self, statistic: str, k: int, p_hat: float, ci_low: float, ci_high: float,
        trials: int, p_theory: float,
    ) -> None:
        set_field(self, "statistic", statistic)
        set_field(self, "k", k)
        set_field(self, "p_hat", p_hat)
        set_field(self, "ci_low", ci_low)
        set_field(self, "ci_high", ci_high)
        set_field(self, "trials", trials)
        set_field(self, "p_theory", p_theory)


def _report(
    statistic: str, k: int, successes: int, trials: int, p_theory: float
) -> EstimateReport:
    low, high = wilson_interval(successes, trials)
    return EstimateReport(statistic, k, successes / trials, low, high, trials, p_theory)


def _stream_hash(master_seed: int, label: str) -> hashlib._Hash:
    """SHA-256 state over a signed 64-bit master seed and a stream label.

    _stream_seed extends it by an index into one stream's seed; a run hashes
    its (seed, label) prefix once and branches it per trial.
    """
    check_int("seed", master_seed, *SEED_RANGE)
    h = hashlib.sha256(b"qseal/rng" + struct.pack(">q", master_seed))
    data = label.encode()
    h.update(b"s" + struct.pack(">I", len(data)) + data)
    return h


def _stream_seed(prefix: hashlib._Hash, index: int) -> int:
    """The seed of ``prefix`` extended by ``index``; ``prefix`` is not changed."""
    h = prefix.copy()
    h.update(_pack_index(b"i", index))
    return _unpack_seed(h.digest())[0]


def _spawned_rng(master_seed: int, label: str, index: int) -> Random:
    """Independent stream derived from a signed 64-bit master seed, a label
    and an index."""
    return Random(_stream_seed(_stream_hash(master_seed, label), index))


def _trial_streams(prefix: hashlib._Hash, trials: int) -> Iterator[Random]:
    """Trial i's stream for i in range(trials), in one generator reseeded in
    place: a trial must be done with it before the next is drawn."""
    rng = Random(_stream_seed(prefix, 0))
    # The C-level seed: for an int seed it is all Random.seed does besides
    # clearing gauss_next, which no trial sets.
    reseed = super(Random, rng).seed
    for index in range(trials):
        if index:
            reseed(_stream_seed(prefix, index))
        yield rng


def theory_rate(config: TrialConfig) -> float:
    """Exact expected rate for the configured statistic."""
    k = config.mode.k
    if config.return_kind is ReturnKind.CLASSICAL:
        if config.strategy is CheatStrategy.HONEST:
            return 1.0
        return 0.5  # a random mask hits the orthogonal half exactly
    if config.strategy is CheatStrategy.HONEST:
        return 1.0
    if config.strategy is CheatStrategy.MEASURE_KEEP:
        if config.verify_method is VerifyMethod.HELSTROM_PER_BRANCH:
            return theory_pcheck(k)
        return 1.0 - 1.0 / k
    # MEASURE_RANDOM_STATE: the fresh string collides with a branch with
    # probability k/2^n, in which case it looks like a kept measurement.
    # ldexp, not k / float(1 << n): 2^n has no float from n = 1024 on.
    collide = math.ldexp(k, -config.bit_len)
    if config.verify_method is VerifyMethod.HELSTROM_PER_BRANCH:
        return 1.0 - collide * (1.0 - theory_pcheck(k))
    return 1.0 - math.ldexp(1.0, -config.bit_len)


def _class_table(k: int, method: VerifyMethod) -> tuple[float, ...]:
    """What acceptance_probability gives the register (1.0), a branch (overlap
    amp) and an outside string (overlap 0.0) against any k-branch register."""
    amp = 1.0 / math.sqrt(k)
    if method is VerifyMethod.PROJECTIVE:
        return 1.0, amp * amp, 0.0
    return 1.0, helstrom_p_report_h0(amp, amp, 1.0), helstrom_p_report_h0(0.0, 0.0, 1.0)


def _run_one(config: TrialConfig, rng: Random, params, table) -> bool:
    """One seal/respond/verify round on the trial's stream; True = accepted.
    ``params`` is the run's TcfParams (binary mode) or None, ``table`` its
    _class_table (quantum return) or None; a run builds both once."""
    bit_len, strategy = config.bit_len, config.strategy
    if params is not None:
        _, shift, x1 = draw_claw(params, rng)
        branches = [x1, x1 ^ shift]
    else:
        rng.getrandbits(8 * NARY_SECRET_BYTES)  # the secret a seal would draw
        branches = draw_branches(config.mode.k, bit_len, rng)
    honest = strategy is CheatStrategy.HONEST
    if table is not None:
        if not honest:
            _, fresh = cheat_draws(strategy, bit_len, rng)
        case = 0 if honest else 1 if fresh is None or fresh in branches else 2
        return rng.random() < table[case]
    x1, x2 = branches
    if honest:  # hadamard_measure's draw: equal amplitudes leave d.diff = 0
        mask = _orthogonal_mask(bit_len, x1 ^ x2, rng)
    else:
        _, mask = cheat_draws(strategy, bit_len, rng)
    return not (mask & (x1 ^ x2)).bit_count() & 1


def run_trials(config: TrialConfig) -> EstimateReport:
    """Estimate the configured statistic over config.trials rounds, serially.

    Round i runs on the stream _spawned_rng(config.seed, "trial", i), taken
    from one hash of the (seed, "trial") prefix per run and put into the
    run's one generator by reseeding it.  Each round's verdict is that of
    sealing, responding and verifying through the public roles on that
    stream.
    """
    k, method = config.mode.k, config.verify_method
    params = TcfParams(config.bit_len) if isinstance(config.mode, BinaryTcf) else None
    table = None if method is None else _class_table(k, method)
    prefix = _stream_hash(config.seed, "trial")
    accepted = sum(
        _run_one(config, rng, params, table)
        for rng in _trial_streams(prefix, config.trials)
    )
    statistic = config.statistic
    successes = config.trials - accepted if statistic == "detection" else accepted
    return _report(statistic, k, successes, config.trials, theory_rate(config))


def fig1_curve(
    k_max: int,
    trials_per_point: int,
    bit_len: int = DEFAULT_BIT_LEN,
    seed: int = 0,
    workers: int = 1,
) -> list[EstimateReport]:
    """Detection-vs-branch-count sweep for the kept-measurement cheater.

    One report per k in [2, k_max], each exactly what run_trials returns for
    that point: n-ary seal, quantum return, per-branch Helstrom verification,
    with p_theory = theory_pcheck(k).  The points run one after another in
    the calling thread.  ``workers`` must be >= 1 and is otherwise unused;
    no library or CLI path passes it, and it goes once the benchmark stops
    passing it (ROADMAP item 1).
    """
    check_int("workers", workers, 1)
    check_int("trials_per_point", trials_per_point, 1)
    check_width(NarySymmetric(k_max), bit_len)  # then every smaller k fits too
    return [
        run_trials(
            TrialConfig(
                mode=NarySymmetric(k),
                bit_len=bit_len,
                strategy=CheatStrategy.MEASURE_KEEP,
                return_kind=ReturnKind.QUANTUM,
                verify_method=VerifyMethod.HELSTROM_PER_BRANCH,
                trials=trials_per_point,
                seed=_spawned_rng(seed, "curve", k).getrandbits(63),
            )
        )
        for k in range(2, k_max + 1)
    ]


def curve_csv(points: list[EstimateReport]) -> str:
    """Render reports as CSV rows under CSV_HEADER, reals to 6 decimals."""
    lines = [CSV_HEADER]
    for pt in points:
        lines.append(
            f"{pt.k},{pt.p_theory:.6f},{pt.p_hat:.6f},"
            f"{pt.ci_low:.6f},{pt.ci_high:.6f},{pt.trials}"
        )
    return "\n".join(lines) + "\n"


def mixture_diagnostic(
    bit_len: int = DEFAULT_BIT_LEN, trials: int = 100_000, seed: int = 0
) -> EstimateReport:
    """Discrimination success when the verifier is NOT told the branch.

    Each trial flips a fair coin between an honest return (the original
    two-branch state |o>) and a read-then-keep cheat (a collapsed branch),
    and calls it honest when Alice's projective verifier accepts.  That is
    the optimal test of |o> against the uniform branch mixture rho (Helstrom
    1976): in the branches' span rho = 1/2 |o><o| + 1/2 |c><c|, |c> the
    complement of |o>, so the positive eigenspace of 1/2 (|o><o| - rho) is
    |o>.  The equal-prior success rate is 1/2 * 1 + 1/2 * 1/2 = 3/4, below
    the per-branch detection figure because nobody tells the verifier which
    branch the cheater kept.  The pair is drawn as a two-branch n-ary seal
    draws it, the cheat draws as bob_respond's measure-keep does, and the
    verdict reads the run's class table; widths run from 3 to MAX_BIT_LEN.
    """
    check_width(NarySymmetric(2), bit_len)
    check_int("trials", trials, 1)
    prefix = _stream_hash(seed, "mixture")
    p_honest, p_kept, _ = _class_table(2, VerifyMethod.PROJECTIVE)
    successes = 0
    for rng in _trial_streams(prefix, trials):
        draw_branches(2, bit_len, rng)
        honest = rng.random() < 0.5
        # An honest quantum return is the register itself and draws nothing.
        if not honest:
            cheat_draws(CheatStrategy.MEASURE_KEEP, bit_len, rng)
        if (rng.random() < (p_honest if honest else p_kept)) == honest:
            successes += 1
    return _report("discrimination_success", 2, successes, trials, 0.75)
