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
from enum import Enum
from itertools import repeat
from operator import attrgetter
from random import Random

from .bits import BitString, check_same_width
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
from .value import Value, check_int, set_field

# Upper bound on superposition branches in n-ary mode.
MAX_BRANCHES = 64

# Upper bound on branch width for sealing and simulation.  Past 64 bits the
# collision term k/2^n of every rate is below float resolution, so wider
# branches change no figure; the cap keeps each draw at most 512 bytes and
# makes widths that Random.getrandbits cannot take (2^31 and up) a usage error.
MAX_BIT_LEN = 4096


class BinaryTcf(Value):
    """Two branches forming a claw of a committed 2-to-1 function."""

    __slots__ = ()
    k = 2  # a class constant, not a field: every binary seal has two branches


class NarySymmetric(Value):
    """k random branches, each keying a ciphertext of the secret.  A k outside
    [2, MAX_BRANCHES] or not an int (3.0, True) is InvalidInputError."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        set_field(self, "k", k)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int("branch count", self.k, 2, MAX_BRANCHES)


SealMode = BinaryTcf | NarySymmetric


def check_width(mode: SealMode, bit_len: int) -> None:
    """Raise InvalidInputError unless ``mode`` is a seal mode and ``bit_len``-bit
    branches can carry it: binary widths are those TcfParams takes, n-ary
    widths those with 2^bit_len >= 4k, up to MAX_BIT_LEN."""
    if isinstance(mode, BinaryTcf):
        TcfParams(bit_len)
    elif isinstance(mode, NarySymmetric):
        # The floor is the least width with 2^bit_len >= 4k, which keeps
        # rejection sampling of distinct branches fast and collisions rare.
        check_int("bit_len", bit_len, (4 * mode.k - 1).bit_length(), MAX_BIT_LEN)
    else:
        raise InvalidInputError(f"not a seal mode: {mode!r}")


def check_register(mode: SealMode, state: SparseState) -> None:
    """Raise InvalidInputError unless ``state`` is a register ``mode`` seals:
    k = ``mode.k`` branches, each with amplitude 1/sqrt(k)."""
    k = mode.k
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


def check_challenge(strategy: CheatStrategy, kind: ReturnKind, k: int) -> None:
    """Raise UnsupportedModeError unless ``strategy`` can answer a ``kind``
    challenge to a k-branch seal: a guessed mask answers only classical
    challenges, a measured register only quantum ones, and the Hadamard
    check mask . (x1 xor x2) = 0 is defined only for two branches.  A
    strategy or kind that is no member (its string value) is InvalidInputError."""
    if not (isinstance(strategy, CheatStrategy) and isinstance(kind, ReturnKind)):
        raise InvalidInputError(f"unknown strategy {strategy!r} or kind {kind!r}")
    guesses = strategy is CheatStrategy.MEASURE_GUESS_MASK
    if strategy is not CheatStrategy.HONEST and guesses is (kind is ReturnKind.QUANTUM):
        raise UnsupportedModeError(
            f"strategy {strategy.value} cannot answer a {kind.value} challenge"
        )
    if kind is ReturnKind.CLASSICAL and k != 2:
        raise UnsupportedModeError(
            "classical challenges are defined only for two-branch seals"
        )


class SealPackage(Value):
    """What Bob receives: the register plus the opening material.

    A binary package's register must be a claw of its function: the
    register has the function's width (InvalidInputError otherwise) and its
    branches x1, x2 satisfy x1 ^ x2 == shift (ProtocolCorruptionError
    otherwise).  For this family that is eval(x1) == eval(x2) up to hash
    collisions, which the shift test never admits; the check computes no
    hash.  An n-ary package's branches must each match exactly one
    ciphertext's key tag.
    """

    __slots__ = ("mode", "bit_len", "register", "tcf", "ciphertexts")

    def __init__(
        self, mode: SealMode, bit_len: int, register: SparseState,
        tcf: TcfOracle | None = None, ciphertexts: tuple[Ciphertext, ...] | None = None,
    ) -> None:
        set_field(self, "mode", mode)
        set_field(self, "bit_len", bit_len)
        set_field(self, "register", register)
        set_field(self, "tcf", tcf)
        set_field(self, "ciphertexts", ciphertexts)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int("bit_len", self.bit_len, 1)
        check_same_width(self.register, self)
        check_register(self.mode, self.register)
        if isinstance(self.mode, BinaryTcf):
            if self.tcf is None or self.ciphertexts is not None:
                raise InvalidInputError(
                    "binary packages carry a function handle and no ciphertexts"
                )
            # eval(x) hashes min(x, x ^ shift): distinct branches share an
            # image exactly when they differ by the shift.  eval also refuses
            # inputs of another width, so that check comes first.
            check_same_width(self, self.tcf.params)
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


class AliceSecret(Value):
    """Alice's retained record of one sealing."""

    __slots__ = ("mode", "secret", "branches", "trapdoor", "original_state")

    def __init__(
        self, mode: SealMode, secret: bytes, branches: tuple[BitString, ...],
        trapdoor: BitString | None, original_state: SparseState,
    ) -> None:
        set_field(self, "mode", mode)
        set_field(self, "secret", secret)
        set_field(self, "branches", branches)
        set_field(self, "trapdoor", trapdoor)
        set_field(self, "original_state", original_state)
        self.__post_init__()

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


class QuantumReturn(Value):
    __slots__ = ("state",)

    def __init__(self, state: SparseState) -> None:
        set_field(self, "state", state)


class ClassicalReturn(Value):
    __slots__ = ("mask",)

    def __init__(self, mask: BitString) -> None:
        set_field(self, "mask", mask)


ReturnMessage = QuantumReturn | ClassicalReturn


# ---------------------------------------------------------------------------
# Alice: sealing
# ---------------------------------------------------------------------------


def draw_claw(params: TcfParams, rng: Random) -> tuple[bytes, int, int]:
    """Every draw of a binary seal: a fresh instance's salt and shift, then
    the value x1 of a uniform claw (x1, x1 ^ shift) of it."""
    salt, shift = keygen(params, rng)
    return salt, shift, rng.getrandbits(params.bit_len)


def draw_branches(k: int, bit_len: int, rng: Random) -> list[int]:
    """Every draw of an n-ary seal after its secret: the values of k distinct
    ``bit_len``-bit branches, in the order first drawn."""
    # Rejection sampling: k distinct values take k draws at least, so those come
    # in one pass; a repeat leaves the dict, and the order of first draws, as is.
    draw = rng.getrandbits
    first = list(map(draw, repeat(bit_len, k)))
    if len(set(first)) == k:
        return first
    values = dict.fromkeys(first)
    while len(values) < k:
        values[draw(bit_len)] = None
    return list(values)


def alice_seal_binary(
    params: TcfParams, rng: Random
) -> tuple[SealPackage, AliceSecret]:
    """Commit a fresh 2-to-1 instance and seal a claw superposition.

    The sealed secret is the claw's image.
    """
    salt, shift, value = draw_claw(params, rng)
    tcf = TcfOracle(params, salt, BitString(params.bit_len, shift))
    x1, x2 = BitString(params.bit_len, value), BitString(params.bit_len, value ^ shift)
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
    # bytes only: the record hashes the secret and its document writes hex.
    if not isinstance(secret, bytes) or not secret:
        raise InvalidInputError("secret must be nonempty bytes")
    check_width(mode, bit_len)
    chosen = [BitString(bit_len, value) for value in draw_branches(k, bit_len, rng)]
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
    outcome = measure_outcome(package.register, rng.random())
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
    single use of the package in a trial.  A pair check_challenge refuses,
    such as a classical challenge to a seal of more than two branches,
    raises UnsupportedModeError before any draw.
    """
    check_challenge(strategy, kind, package.mode.k)
    register = package.register
    if strategy is CheatStrategy.HONEST:
        if kind is ReturnKind.QUANTUM:
            return QuantumReturn(register)
        return ClassicalReturn(hadamard_measure(register, rng))
    r, fresh = cheat_draws(strategy, register.bit_len, rng)
    if fresh is None:
        return QuantumReturn(singleton(measure_outcome(register, r)))
    if kind is ReturnKind.QUANTUM:
        return QuantumReturn(singleton(BitString(register.bit_len, fresh)))
    return ClassicalReturn(BitString(register.bit_len, fresh))


def cheat_draws(
    strategy: CheatStrategy, bit_len: int, rng: Random
) -> tuple[float, int | None]:
    """Every draw of a cheat, in order: the random() on which Bob measures the
    register, then the fresh value that measure-random-state returns and
    measure-guess-d sends as its mask (None for measure-keep)."""
    r = rng.random()
    if strategy is CheatStrategy.MEASURE_KEEP:
        return r, None
    return r, rng.getrandbits(bit_len)


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
    method), on one rng.random() draw; the record is read for its original
    state alone.  A state of another width raises InvalidInputError before
    any draw.
    """
    # Before the draw, so that a width error leaves rng untouched.
    p_accept = acceptance_probability(record.original_state, returned, method)
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
    the state psi.  A state of another width (inner_product's check), or a
    method not in VerifyMethod, raises InvalidInputError.  inner_product is
    symmetric bit for bit, so one overlap serves as <original|returned> and
    <returned|original>.
    """
    if not isinstance(method, VerifyMethod):
        raise InvalidInputError(f"unknown verify method {method!r}")
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
    another width raises InvalidInputError, and a record of another branch
    count UnsupportedModeError (check_challenge).
    """
    check_challenge(CheatStrategy.HONEST, ReturnKind.CLASSICAL, record.mode.k)
    x1, x2 = record.branches
    return mask.dot(x1 ^ x2) == 0
