"""Sparse statevectors over computational-basis bit strings.

States here are real-amplitude superpositions of a handful of basis strings,
stored as a read-only map from BitString to amplitude.  All protocol states
have at most a few dozen branches, so nothing ever materializes a dense 2^n
vector: the Hadamard-basis sampler weighs the 2^r syndromes of the branch
differences, r <= k - 1 their rank, and is capped at MAX_SYNDROME_RANK.

Measurement routines draw from a caller-supplied random.Random so every
sampling decision is reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping

from .bits import BitString
from .errors import CapacityError, InvalidInputError

# Tolerance for the sum of squared amplitudes.
NORM_TOL = 1e-9
# Tolerance when comparing individual amplitudes.
AMP_TOL = 1e-12
# hadamard_measure weighs 2^r syndromes, r the rank of the branch
# differences; refuse beyond this rank.
MAX_SYNDROME_RANK = 20


@dataclass(frozen=True, slots=True)
class SparseState:
    """Normalized sparse state.  Terms are read-only, sorted by basis string."""

    bit_len: int
    terms: Mapping[BitString, float]

    def __post_init__(self) -> None:
        if self.bit_len < 1:
            raise InvalidInputError(f"bit_len must be >= 1, got {self.bit_len}")
        if not self.terms:
            raise InvalidInputError("state needs at least one term")
        norm_sq = 0.0
        for key, amp in self.terms.items():
            if key.bit_len != self.bit_len:
                raise InvalidInputError(
                    f"term {key} has width {key.bit_len}, state has {self.bit_len}"
                )
            if amp == 0.0:
                raise InvalidInputError(f"term {key} has zero amplitude")
            norm_sq += amp * amp
        # Negated so that a NaN or infinite amplitude, which makes norm_sq
        # non-finite, fails the test too.
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise InvalidInputError(
                f"squared amplitudes sum to {norm_sq!r}, expected 1"
            )
        # Canonical iteration order regardless of how the dict was built.
        # Every key has this state's width, so value order is BitString order.
        ordered = dict(sorted(self.terms.items(), key=lambda term: term[0].value))
        object.__setattr__(self, "terms", MappingProxyType(ordered))

    def __hash__(self) -> int:
        # Terms are in canonical order, so equal states give equal tuples.
        return hash((self.bit_len, tuple(self.terms.items())))

    @property
    def num_branches(self) -> int:
        return len(self.terms)

    @property
    def branches(self) -> tuple[BitString, ...]:
        return tuple(self.terms)

    def amplitude(self, key: BitString) -> float:
        return self.terms.get(key, 0.0)

    def isclose(self, other: SparseState) -> bool:
        """True when the states agree within AMP_TOL on every basis string.

        A string missing from one state counts as amplitude 0 there.
        """
        if self.bit_len != other.bit_len:
            return False
        mine, theirs = self.terms, other.terms
        return all(
            abs(amp - theirs.get(key, 0.0)) <= AMP_TOL for key, amp in mine.items()
        ) and all(abs(amp) <= AMP_TOL or key in mine for key, amp in theirs.items())


def singleton(key: BitString) -> SparseState:
    """The basis state |key> with amplitude 1."""
    return SparseState(key.bit_len, {key: 1.0})


def uniform_superposition(strings: Iterable[BitString]) -> SparseState:
    """Equal-amplitude superposition of the given distinct basis strings."""
    keys = list(strings)
    if not keys:
        raise InvalidInputError("need at least one basis string")
    terms = dict.fromkeys(keys, 1.0 / math.sqrt(len(keys)))
    if len(terms) != len(keys):
        raise InvalidInputError("basis strings must be distinct")
    return SparseState(keys[0].bit_len, terms)


def inner_product(a: SparseState, b: SparseState) -> float:
    if a.bit_len != b.bit_len:
        raise InvalidInputError(
            f"width mismatch: {a.bit_len} vs {b.bit_len}"
        )
    if len(b.terms) < len(a.terms):
        a, b = b, a
    return sum(amp * b.terms.get(key, 0.0) for key, amp in a.terms.items())


def measure_computational(
    state: SparseState, rng: Random
) -> tuple[BitString, SparseState]:
    """Projective measurement in the computational basis.

    Returns the sampled string together with the post-measurement state,
    which is the matching basis state.  The input is not mutated.
    """
    outcome = measure_outcome(state, rng.random())
    return outcome, singleton(outcome)


def measure_outcome(state: SparseState, r: float) -> BitString:
    """The string measure_computational samples on its one draw
    ``r = rng.random()``, without building the post-measurement state."""
    acc = 0.0
    for key, amp in state.terms.items():
        acc += amp * amp
        if r < acc:
            return key
    return key  # r landed in the normalization slack: the last term


def hadamard_measure(state: SparseState, rng: Random) -> BitString:
    """Measure every qubit in the Hadamard basis; return the outcome string.

    The outcome d appears with probability proportional to
    (sum_j amp_j * (-1)^(d.x_j))^2 over the state's terms x_j, which depends
    on d only through its syndrome: its parities against a basis of the
    differences x_j xor x_1, whose 2^r values have equally many preimages.
    Raises CapacityError when r exceeds MAX_SYNDROME_RANK.
    """
    table = syndrome_table([(key.value, amp) for key, amp in state.terms.items()])
    return BitString(state.bit_len, hadamard_draw(state.bit_len, table, rng))


def syndrome_table(pairs: list[tuple[int, float]]) -> tuple[list, list, list]:
    """A reduced basis of the differences of the (value, amplitude) terms,
    the pivot bits reps[s] of each syndrome s, and its exact relative weight."""
    # Reduced basis: each vector's pivot, its lowest set bit, is clear in
    # every other vector, so flipping one pivot of d flips one parity.  A
    # pivot never moves once added; reps[s] holds the pivot bits of syndrome s.
    basis: list[int] = []
    reps = [0]
    for value, _ in pairs:
        diff = value ^ pairs[0][0]
        for vector in basis:
            if diff & vector & -vector:
                diff ^= vector
        if diff:
            if len(basis) == MAX_SYNDROME_RANK:
                raise CapacityError(
                    f"branch differences have rank above {MAX_SYNDROME_RANK}"
                )
            basis = [v ^ diff if v & diff & -diff else v for v in basis] + [diff]
            reps += [rep | (diff & -diff) for rep in reps]
    weights = []
    for rep in reps:
        acc = 0.0
        for value, amp in pairs:
            acc += -amp if (rep & value).bit_count() & 1 else amp
        weights.append(acc * acc)
    return basis, reps, weights


def hadamard_draw(bit_len: int, table: tuple[list, list, list], rng: Random) -> int:
    """d drawn uniformly (getrandbits), its pivot bits flipped to match a
    syndrome drawn by weight (one random(), only if more than one is live)."""
    basis, reps, weights = table
    d = rng.getrandbits(bit_len)
    live = [s for s, w in enumerate(weights) if w > 0.0]
    drawn = live[0] if len(live) == 1 else rng.choices(range(len(reps)), weights)[0]
    observed = 0
    for i, vector in enumerate(basis):
        observed |= ((d & vector).bit_count() & 1) << i
    return d ^ reps[observed ^ drawn]


def helstrom_discriminate(
    truth: SparseState, h0: SparseState, h1: SparseState, rng: Random
) -> int:
    """Optimal two-outcome measurement for pure h0 vs pure h1 at equal priors.

    Applies the Helstrom measurement to ``truth`` and returns 0 or 1, the
    index of the hypothesis the measurement reports.  When truth is drawn
    uniformly from {h0, h1} the answer is correct with probability
    1/2 + 1/2 * sqrt(1 - <h0|h1>^2), the best any measurement achieves.

    The measurement acts in the two-dimensional span of the hypotheses;
    any component of truth outside that span is resolved by a fair coin,
    as is the degenerate case where h0 and h1 differ only by a global sign.
    """
    if not (truth.bit_len == h0.bit_len == h1.bit_len):
        raise InvalidInputError("all three states must share one width")
    if h0.isclose(h1):
        raise InvalidInputError("hypotheses are identical; nothing to discriminate")
    p_report_h0 = helstrom_p_report_h0(
        inner_product(h0, h1), inner_product(truth, h0), inner_product(truth, h1)
    )
    return 0 if rng.random() < p_report_h0 else 1


def helstrom_p_report_h0(h0_h1: float, truth_h0: float, truth_h1: float) -> float:
    """Probability that helstrom_discriminate reports h0, from the overlaps
    <h0|h1>, <truth|h0> and <truth|h1> of normalized states."""
    overlap = max(-1.0, min(1.0, h0_h1))
    sin_sq = 1.0 - overlap * overlap
    if sin_sq <= 1e-18:
        # Same ray up to sign: zero trace distance, the coin is optimal.
        return 0.5
    sin = math.sqrt(sin_sq)

    # Orthonormal frame for the span: e1 = h0, e2 = (h1 - overlap*h0)/sin.
    t_e1 = truth_h0
    t_e2 = (truth_h1 - overlap * t_e1) / sin

    # Positive eigenvector of (|h0><h0| - |h1><h1|)/2 in the (e1, e2) frame.
    scale = math.sqrt(2.0 * (1.0 + sin))
    v1 = (1.0 + sin) / scale
    v2 = -overlap / scale

    along = t_e1 * v1 + t_e2 * v2
    outside = max(0.0, 1.0 - t_e1 * t_e1 - t_e2 * t_e2)
    return min(1.0, along * along + 0.5 * outside)
