"""Monte Carlo estimation of acceptance and detection rates.

Every trial draws exactly what a seal draws, runs one respond/verify round,
and counts the outcome.  It builds only the register and what the verdict
reads, through the same draw helpers and role cores that alice_seal_*,
bob_respond and alice_verify_* wrap; ciphertexts, claw images, packages and
records draw nothing and are never read by a verdict, so no trial makes
them.  Trials get their own random.Random seeded by hashing the master seed
with the trial index, so results are reproducible bit-for-bit and
independent of how trials are scheduled.  Every run is serial, in the
calling thread.  A run hashes the (seed, label) prefix once and extends a
copy of it by each trial's index, which gives each trial exactly the stream
_spawned_rng(seed, label, index) derives on its own.

Reported intervals are 95% Wilson score intervals.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from random import Random

from .errors import InvalidInputError
from .seal import (
    BinaryTcf,
    CheatStrategy,
    NarySymmetric,
    ReturnKind,
    SealMode,
    VerifyMethod,
    branch_count,
    check_width,
    classical_verdict,
    compatible,
    draw_branches,
    draw_claw,
    quantum_verdict,
    register_response,
)
from .sparsestate import uniform_superposition
from .tcf import TcfParams

Z95 = 1.959963984540054

DEFAULT_BIT_LEN = 16
NARY_SECRET_BYTES = 16

CSV_HEADER = "k,p_theory,p_hat,ci_low,ci_high,trials"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise InvalidInputError("successes must lie in [0, trials]")
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
    if not k >= 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    return 0.5 + 0.5 * math.sqrt(1.0 - 1.0 / k)


@dataclass(frozen=True)
class TrialConfig:
    mode: SealMode
    bit_len: int
    strategy: CheatStrategy
    return_kind: ReturnKind
    verify_method: VerifyMethod | None
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if not compatible(self.strategy, self.return_kind):
            raise InvalidInputError(
                f"strategy {self.strategy.value} cannot answer a "
                f"{self.return_kind.value} challenge"
            )
        if self.return_kind is ReturnKind.CLASSICAL:
            if self.verify_method is not None:
                raise InvalidInputError(
                    "classical challenges have a fixed check and take no "
                    "verify method"
                )
            if branch_count(self.mode) != 2:
                raise InvalidInputError(
                    "classical challenges are defined only for two branches"
                )
        elif self.verify_method is None:
            raise InvalidInputError("quantum challenges need a verify_method")
        check_width(self.mode, self.bit_len)

    @property
    def statistic(self) -> str:
        """Which rate run_trials reports for this configuration."""
        if (
            self.return_kind is ReturnKind.QUANTUM
            and self.strategy is not CheatStrategy.HONEST
        ):
            return "detection"
        return "acceptance"


@dataclass(frozen=True, slots=True)
class EstimateReport:
    """One rate estimate for a k-branch seal; one report is one CSV row.

    p_hat comes with its 95% Wilson interval; p_theory is the exact rate.
    """

    statistic: str
    k: int
    p_hat: float
    ci_low: float
    ci_high: float
    trials: int
    p_theory: float


def _report(
    statistic: str, k: int, successes: int, trials: int, p_theory: float
) -> EstimateReport:
    low, high = wilson_interval(successes, trials)
    return EstimateReport(statistic, k, successes / trials, low, high, trials, p_theory)


def _stream_hash(master_seed: int, label: str) -> hashlib._Hash:
    """SHA-256 state over a signed 64-bit master seed and a stream label.

    _branch_rng extends it by an index into one stream; a run hashes its
    (seed, label) prefix once and branches it per trial.
    """
    try:
        h = hashlib.sha256(b"qseal/rng" + struct.pack(">q", master_seed))
    except struct.error as exc:
        raise InvalidInputError(
            f"seed must be in [-2^63, 2^63), got {master_seed}"
        ) from exc
    data = label.encode()
    h.update(b"s" + struct.pack(">I", len(data)) + data)
    return h


def _branch_rng(prefix: hashlib._Hash, index: int) -> Random:
    """The stream of ``prefix`` extended by ``index``; ``prefix`` is not changed."""
    h = prefix.copy()
    h.update(b"i" + struct.pack(">q", index))
    return Random(int.from_bytes(h.digest()[:8], "big"))


def _spawned_rng(master_seed: int, label: str, index: int) -> Random:
    """Independent stream derived from a signed 64-bit master seed, a label
    and an index."""
    return _branch_rng(_stream_hash(master_seed, label), index)


def theory_rate(config: TrialConfig) -> float:
    """Exact expected rate for the configured statistic."""
    k = branch_count(config.mode)
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


def _run_one(config: TrialConfig, rng: Random, params: TcfParams | None) -> bool:
    """One seal/respond/verify round on the trial's stream; True = accepted.

    The round makes the RNG calls of alice_seal_*, bob_respond and
    alice_verify_* in their order, so its verdict is theirs, but builds only
    the register and its branches.  The register is uniform over k distinct
    branches, so check_register could not fail on it and is not called.
    ``params`` is TcfParams(config.bit_len) in binary mode, built once per
    run, and None in n-ary mode.
    """
    if params is not None:
        _, *branches = draw_claw(params, rng)
    else:
        rng.getrandbits(8 * NARY_SECRET_BYTES)  # the secret a seal would draw
        branches = draw_branches(config.mode.k, config.bit_len, rng)
    register = uniform_superposition(branches)
    answer = register_response(register, config.strategy, config.return_kind, rng)
    if config.return_kind is ReturnKind.CLASSICAL:
        x1, x2 = branches
        return classical_verdict(x1, x2, answer)
    return quantum_verdict(register, answer, config.verify_method, rng)


def run_trials(config: TrialConfig) -> EstimateReport:
    """Estimate the configured statistic over config.trials rounds, serially.

    Round i runs on the stream _spawned_rng(config.seed, "trial", i), taken
    from one hash of the (seed, "trial") prefix per run.  Each round's
    verdict is that of sealing, responding and verifying through the public
    roles on that stream; the round draws what they draw but builds only
    the register and what the verdict reads.
    """
    params = TcfParams(config.bit_len) if isinstance(config.mode, BinaryTcf) else None
    prefix = _stream_hash(config.seed, "trial")
    accepted = sum(
        _run_one(config, _branch_rng(prefix, index), params)
        for index in range(config.trials)
    )
    statistic = config.statistic
    successes = config.trials - accepted if statistic == "detection" else accepted
    k = branch_count(config.mode)
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
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
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
    draws it, the cheat collapses it as bob_respond's measure-keep does;
    widths run from 3 to MAX_BIT_LEN.
    """
    check_width(NarySymmetric(2), bit_len)
    prefix = _stream_hash(seed, "mixture")
    successes = 0
    for index in range(trials):
        rng = _branch_rng(prefix, index)
        original = uniform_superposition(draw_branches(2, bit_len, rng))
        honest = rng.random() < 0.5
        # An honest quantum return is the register itself and draws nothing.
        strategy = CheatStrategy.HONEST if honest else CheatStrategy.MEASURE_KEEP
        truth = register_response(original, strategy, ReturnKind.QUANTUM, rng)
        if quantum_verdict(original, truth, VerifyMethod.PROJECTIVE, rng) == honest:
            successes += 1
    return _report("discrimination_success", 2, successes, trials, 0.75)
