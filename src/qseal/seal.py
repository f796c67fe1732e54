"""Seal-and-verify protocol roles.

Alice seals a secret into a superposition register and hands Bob a package.
Reading the secret is always possible: Bob measures the register and either
evaluates the committed function on the outcome (binary mode) or decrypts
the matching ciphertext (n-ary mode).  Reading is also destructive, which is
what verification leans on.  Alice can demand the register back and test it
against her retained copy, or demand a Hadamard-basis measurement outcome
and check it against the branch difference.

Cheat strategies model a Bob who reads before responding.  The catalogue is
deliberately small and explicit; each strategy says exactly what is measured
and what goes back on the wire.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from random import Random

from .bits import BitString
from .errors import (
    AmbiguousTagError,
    InvalidInputError,
    ProtocolCorruptionError,
    TagNotFoundError,
    UnsupportedModeError,
)
from .sparsestate import (
    AMP_TOL,
    SparseState,
    hadamard_measure,
    helstrom_p_report_h0,
    inner_product,
    measure_outcome,
    singleton,
    uniform_superposition,
)
from .symcrypto import Ciphertext, enc, find_and_dec, key_tag
from .tcf import TcfOracle, TcfParams, keygen

# Upper bound on superposition branches in n-ary mode.
MAX_BRANCHES = 64

# Upper bound on branch width for sealing and simulation.  Past 64 bits the
# collision term k/2^n of every rate is below float resolution, so wider
# branches change no figure; the cap keeps each draw at most 512 bytes and
# makes widths that Random.getrandbits cannot take (2^31 and up) a usage error.
MAX_BIT_LEN = 4096


@dataclass(frozen=True, slots=True)
class BinaryTcf:
    """Two branches forming a claw of a committed 2-to-1 function."""


@dataclass(frozen=True, slots=True)
class NarySymmetric:
    """k random branches, each keying a ciphertext of the secret."""

    k: int

    def __post_init__(self) -> None:
        if not 2 <= self.k <= MAX_BRANCHES:
            raise InvalidInputError(
                f"branch count must be in [2, {MAX_BRANCHES}], got {self.k}"
            )


SealMode = BinaryTcf | NarySymmetric


def branch_count(mode: SealMode) -> int:
    return 2 if isinstance(mode, BinaryTcf) else mode.k


def check_width(mode: SealMode, bit_len: int) -> None:
    """Raise InvalidInputError unless ``bit_len``-bit branches can carry ``mode``:
    binary widths are those TcfParams takes, n-ary widths at most MAX_BIT_LEN."""
    if isinstance(mode, BinaryTcf):
        TcfParams(bit_len)
        return
    if bit_len > MAX_BIT_LEN:
        raise InvalidInputError(f"bit_len {bit_len} exceeds the maximum {MAX_BIT_LEN}")
    if bit_len < (4 * mode.k - 1).bit_length():
        # That is 2^bit_len < 4k, negative widths included.  The 4k floor
        # keeps rejection sampling of distinct branches fast and collisions rare.
        raise InvalidInputError(
            f"bit_len {bit_len} too small for {mode.k} branches; need 2^bit_len >= 4k"
        )


def check_register(mode: SealMode, state: SparseState) -> None:
    """Raise InvalidInputError unless ``state`` is a register ``mode`` seals:
    k = ``branch_count(mode)`` branches, each with amplitude 1/sqrt(k)."""
    k = branch_count(mode)
    if state.num_branches != k:
        raise InvalidInputError(f"register must have {k} branches")
    expected_amp = 1.0 / math.sqrt(k)
    for amp in state.terms.values():
        if not abs(amp - expected_amp) <= AMP_TOL:  # NaN fails too
            raise InvalidInputError(f"register amplitudes must all be 1/sqrt({k})")


class CheatStrategy(Enum):
    HONEST = "honest"
    # Read the register, send back whatever it collapsed to.
    MEASURE_KEEP = "measure-keep"
    # Read the register, send back a fresh uniformly random basis state.
    MEASURE_RANDOM_STATE = "measure-random-state"
    # Read the register, answer the Hadamard challenge with a random guess.
    MEASURE_GUESS_MASK = "measure-guess-d"


class ReturnKind(Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"


class VerifyMethod(Enum):
    PROJECTIVE = "projective"
    HELSTROM_PER_BRANCH = "helstrom"


def compatible(strategy: CheatStrategy, kind: ReturnKind) -> bool:
    """Which strategies can answer which challenge kinds."""
    if strategy is CheatStrategy.HONEST:
        return True
    if strategy is CheatStrategy.MEASURE_GUESS_MASK:
        return kind is ReturnKind.CLASSICAL
    return kind is ReturnKind.QUANTUM


@dataclass(frozen=True)
class SealPackage:
    """What Bob receives: the register plus the opening material.

    A binary package's register must be a claw of its function: the
    register has the function's width (InvalidInputError otherwise) and its
    branches x1, x2 satisfy x1 ^ x2 == shift (ProtocolCorruptionError
    otherwise).  For this family that is eval(x1) == eval(x2) up to hash
    collisions, which the shift test never admits; the check computes no
    hash.  An n-ary package's branches must each match exactly one
    ciphertext's key tag.
    """

    mode: SealMode
    bit_len: int
    register: SparseState
    tcf: TcfOracle | None = None
    ciphertexts: tuple[Ciphertext, ...] | None = None

    def __post_init__(self) -> None:
        if self.register.bit_len != self.bit_len:
            raise InvalidInputError("register width does not match bit_len")
        check_register(self.mode, self.register)
        if isinstance(self.mode, BinaryTcf):
            if self.tcf is None or self.ciphertexts is not None:
                raise InvalidInputError(
                    "binary packages carry a function handle and no ciphertexts"
                )
            # eval(x) hashes min(x, x ^ shift): distinct branches share an
            # image exactly when they differ by the shift.  eval also refuses
            # inputs of another width, so that check comes first.
            width = self.tcf.params.bit_len
            if self.bit_len != width:
                raise InvalidInputError(
                    f"input width {self.bit_len} does not match instance width {width}"
                )
            first, second = self.register.branches
            if first.value ^ second.value != self.tcf.shift.value:
                raise ProtocolCorruptionError(
                    "register branches do not form a claw"
                )
        else:
            if self.ciphertexts is None or self.tcf is not None:
                raise InvalidInputError(
                    "n-ary packages carry ciphertexts and no function handle"
                )
            k = self.mode.k
            if len(self.ciphertexts) != k:
                raise InvalidInputError(
                    f"need {k} ciphertexts, found {len(self.ciphertexts)}"
                )
            tag_counts = Counter(ct.key_tag for ct in self.ciphertexts)
            for branch in self.register.branches:
                if tag_counts[key_tag(branch)] != 1:
                    raise ProtocolCorruptionError(
                        f"branch {branch.hex()} must match exactly one ciphertext"
                    )


@dataclass(frozen=True)
class AliceSecret:
    """Alice's retained record of one sealing."""

    mode: SealMode
    secret: bytes
    branches: tuple[BitString, ...]
    trapdoor: BitString | None
    original_state: SparseState

    def __post_init__(self) -> None:
        check_register(self.mode, self.original_state)
        # The state's terms share one width and are in value order; sorting
        # by value reproduces that order exactly when these are its branches.
        by_value = sorted(self.branches, key=attrgetter("value"))
        if by_value != list(self.original_state.branches):
            raise InvalidInputError("branches must be those of the retained state")
        binary = isinstance(self.mode, BinaryTcf)
        if self.trapdoor != (self.branches[0] ^ self.branches[1] if binary else None):
            raise InvalidInputError("trapdoor must be x1 xor x2 (binary) or None")

    @property
    def bit_len(self) -> int:
        return self.original_state.bit_len


@dataclass(frozen=True, slots=True)
class QuantumReturn:
    state: SparseState


@dataclass(frozen=True, slots=True)
class ClassicalReturn:
    mask: BitString


ReturnMessage = QuantumReturn | ClassicalReturn


# ---------------------------------------------------------------------------
# Alice: sealing
# ---------------------------------------------------------------------------


def draw_claw(
    params: TcfParams, rng: Random
) -> tuple[TcfOracle, BitString, BitString]:
    """Every draw of a binary seal: a fresh instance, then a uniform claw
    (x1, x1 ^ shift) of it."""
    tcf = keygen(params, rng)
    x1 = BitString.random(params.bit_len, rng)
    return tcf, x1, x1 ^ tcf.shift


def draw_branches(k: int, bit_len: int, rng: Random) -> list[BitString]:
    """Every draw of an n-ary seal after its secret: k distinct ``bit_len``-bit
    branches, in the order first drawn."""
    # Rejection sampling: a repeated draw leaves the dict, and the order of
    # first draws, unchanged.
    values: dict[int, None] = {}
    while len(values) < k:
        values[rng.getrandbits(bit_len)] = None
    return [BitString(bit_len, value) for value in values]


def alice_seal_binary(
    params: TcfParams, rng: Random
) -> tuple[SealPackage, AliceSecret]:
    """Commit a fresh 2-to-1 instance and seal a claw superposition.

    The sealed secret is the claw's image.
    """
    tcf, x1, x2 = draw_claw(params, rng)
    register = uniform_superposition((x1, x2))
    package = SealPackage(
        mode=BinaryTcf(),
        bit_len=params.bit_len,
        register=register,
        tcf=tcf,
    )
    record = AliceSecret(
        mode=BinaryTcf(),
        secret=tcf.eval(x1),
        branches=(x1, x2),
        trapdoor=tcf.shift,
        original_state=register,
    )
    return package, record


def alice_seal_nary(
    k: int, secret: bytes, bit_len: int, rng: Random
) -> tuple[SealPackage, AliceSecret]:
    """Seal ``secret`` under k fresh random branch keys.

    Each branch string keys one ciphertext of the secret, so any
    computational-basis readout of the register opens the seal.
    """
    mode = NarySymmetric(k)
    if not secret:
        raise InvalidInputError("secret must be nonempty")
    check_width(mode, bit_len)
    chosen = draw_branches(k, bit_len, rng)
    register = uniform_superposition(chosen)
    package = SealPackage(
        mode=mode,
        bit_len=bit_len,
        register=register,
        ciphertexts=tuple(enc(branch, secret) for branch in chosen),
    )
    record = AliceSecret(
        mode=mode,
        secret=secret,
        branches=tuple(chosen),
        trapdoor=None,
        original_state=register,
    )
    return package, record


# ---------------------------------------------------------------------------
# Bob: opening and responding
# ---------------------------------------------------------------------------


def bob_open(package: SealPackage, rng: Random) -> bytes:
    """Read the sealed secret by measuring the register.

    Succeeds with certainty on honest packages: every branch opens to the
    same secret.  The register in the package value is untouched; opening an
    already collapsed register is deterministic.
    """
    outcome = measure_outcome(package.register, rng)
    if isinstance(package.mode, BinaryTcf):
        assert package.tcf is not None
        return package.tcf.eval(outcome)
    assert package.ciphertexts is not None
    try:
        return find_and_dec(outcome, package.ciphertexts)
    except (TagNotFoundError, AmbiguousTagError) as exc:
        raise ProtocolCorruptionError(
            "measured branch does not open any ciphertext"
        ) from exc


def bob_respond(
    package: SealPackage,
    strategy: CheatStrategy,
    kind: ReturnKind,
    rng: Random,
) -> ReturnMessage:
    """Produce Bob's answer to Alice's return challenge.

    The register travels back inside the message (quantum) or is consumed
    by the Hadamard measurement (classical); either way this call is the
    single use of the package in a trial.
    """
    if not compatible(strategy, kind):
        raise UnsupportedModeError(
            f"strategy {strategy.value} cannot answer a {kind.value} challenge"
        )
    answer = register_response(package.register, strategy, kind, rng)
    if kind is ReturnKind.QUANTUM:
        return QuantumReturn(answer)
    return ClassicalReturn(answer)


def register_response(
    register: SparseState,
    strategy: CheatStrategy,
    kind: ReturnKind,
    rng: Random,
) -> SparseState | BitString:
    """Core of bob_respond for a compatible strategy and kind: the returned
    state (quantum) or mask (classical), read off the register alone."""
    if strategy is CheatStrategy.HONEST:
        if kind is ReturnKind.QUANTUM:
            return register
        return hadamard_measure(register, rng)
    # Every cheating strategy reads the register first.
    outcome = measure_outcome(register, rng)
    if strategy is CheatStrategy.MEASURE_KEEP:
        return singleton(outcome)
    if strategy is CheatStrategy.MEASURE_RANDOM_STATE:
        return singleton(BitString.random(register.bit_len, rng))
    return BitString.random(register.bit_len, rng)


# ---------------------------------------------------------------------------
# Alice: verification
# ---------------------------------------------------------------------------


def alice_verify_quantum(
    record: AliceSecret,
    returned: SparseState,
    method: VerifyMethod,
    rng: Random,
) -> bool:
    """Test a returned register against the retained original.  True = accept.

    Accepts with acceptance_probability(record.original_state, returned,
    method), on one rng.random() draw.  A state of another width raises
    InvalidInputError before any draw.
    """
    return quantum_verdict(record.original_state, returned, method, rng)


def quantum_verdict(
    original: SparseState,
    returned: SparseState,
    method: VerifyMethod,
    rng: Random,
) -> bool:
    """Core of alice_verify_quantum: reads only the original state."""
    # Before the draw, so that a width error leaves rng untouched.
    p_accept = acceptance_probability(original, returned, method)
    return rng.random() < p_accept


def acceptance_probability(
    original: SparseState, returned: SparseState, method: VerifyMethod
) -> float:
    """Probability that Alice accepts ``returned`` against ``original``.

    PROJECTIVE measures {|psi><psi|, 1 - |psi><psi|} and accepts on the
    first outcome: the squared overlap.

    HELSTROM_PER_BRANCH runs the optimal two-hypothesis test (Helstrom 1976)
    between the original and the returned state itself, accepting when the
    original is reported, as helstrom_discriminate(returned, original,
    returned, rng) == 0 would; this models a verifier told what a cheater
    would have sent.

    Against one collapsed branch of a k-branch original, PROJECTIVE accepts
    with 1/k and HELSTROM_PER_BRANCH with 1/2 - 1/2 D, where D = sqrt(1 -
    1/k) is the trace distance of the two states and 1/2 + 1/2 D the
    Helstrom success rate.

    A return equal to the original up to a global sign is accepted with
    probability 1.0 exactly by both methods: amplitudes are real, so -psi is
    the state psi.  A state of another width raises InvalidInputError.
    inner_product is symmetric bit for bit, so one overlap serves as
    <original|returned> and <returned|original>.
    """
    if original.bit_len != returned.bit_len:
        raise InvalidInputError(
            f"returned width {returned.bit_len} does not match "
            f"original width {original.bit_len}"
        )
    if returned.isclose(original):
        return 1.0
    overlap = inner_product(original, returned)
    if overlap < 0.0:  # only then can the return be -original
        negated = {key: -amp for key, amp in returned.terms.items()}
        if SparseState(returned.bit_len, negated).isclose(original):
            return 1.0
    if method is VerifyMethod.PROJECTIVE:
        return overlap * overlap
    return helstrom_p_report_h0(overlap, overlap, inner_product(returned, returned))


def alice_verify_classical(record: AliceSecret, mask: BitString) -> bool:
    """Check a Hadamard-basis outcome against the branch difference.

    For a two-branch seal every honest outcome satisfies
    mask . (x1 xor x2) = 0 over GF(2); accept exactly when that holds.
    The all-zero mask is a valid honest outcome and is accepted; a mask of
    another width raises InvalidInputError.
    """
    if len(record.branches) != 2:
        raise UnsupportedModeError(
            "classical verification is defined only for two-branch seals"
        )
    x1, x2 = record.branches
    return classical_verdict(x1, x2, mask)


def classical_verdict(x1: BitString, x2: BitString, mask: BitString) -> bool:
    """Core of alice_verify_classical: reads only the two branches."""
    return mask.dot(x1 ^ x2) == 0
