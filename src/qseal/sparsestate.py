"""Sparse statevectors over computational-basis bit strings.

States here are real-amplitude superpositions of a handful of basis strings,
stored as a read-only map from BitString to amplitude.  All protocol states
have at most a few dozen branches, so nothing ever materializes a dense 2^n
vector.  Hadamard-basis sampling is defined for states of one or two
branches, the only ones a Hadamard challenge is put to, and is exact there
for any real amplitudes.

Measurement routines draw from a caller-supplied random.Random so every
sampling decision is reproducible from a seed.
"""

from __future__ import annotations

import math
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping

from .bits import BitString, check_same_width
from .errors import InvalidInputError, UnsupportedModeError
from .value import Value, check_int, set_field

# Tolerance for the sum of squared amplitudes.
NORM_TOL = 1e-9
# Tolerance when comparing individual amplitudes.
AMP_TOL = 1e-12


class SparseState(Value):
    """Normalized sparse state.  Terms are read-only, sorted by basis string."""

    __slots__ = ("bit_len", "terms")

    def __init__(self, bit_len: int, terms: Mapping[BitString, float]) -> None:
        set_field(self, "bit_len", bit_len)
        set_field(self, "terms", terms)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int("bit_len", self.bit_len, 1)
        if not self.terms:
            raise InvalidInputError("state needs at least one term")
        norm_sq = 0.0
        for key, amp in self.terms.items():
            if not isinstance(key, BitString):
                raise InvalidInputError(f"term key {key!r} is not a BitString")
            check_same_width(key, self)
            # A float, the common case, passes on its type() alone.
            if type(amp) is not float and (
                not isinstance(amp, (int, float)) or isinstance(amp, bool)
            ):
                raise InvalidInputError(f"amplitude {amp!r} is not an int or float")
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
    check_same_width(a, b)
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
    (sum_j amp_j * (-1)^(d.x_j))^2 over the state's terms x_j.  One branch
    makes every d equally likely.  Two branches a|x1> + b|x2> split the d
    into the halves d.(x1 xor x2) = 0 and = 1, each uniform within, weighed
    (a + b)^2 and (a - b)^2; one choices() picks the half when both weigh.
    A state of three or more branches raises UnsupportedModeError before
    any draw.
    """
    n = state.bit_len
    if state.num_branches > 2:
        raise UnsupportedModeError(
            "Hadamard sampling is defined only for one or two branches"
        )
    if state.num_branches == 1:
        return BitString(n, rng.getrandbits(n))
    (first, a), (second, b) = state.terms.items()
    diff = first.value ^ second.value
    d = _orthogonal_mask(n, diff, rng)
    even, odd = (a + b) * (a + b), (a - b) * (a - b)
    if not even or (odd and rng.choices(range(2), (even, odd))[0]):
        d ^= diff & -diff
    return BitString(n, d)


def _orthogonal_mask(bit_len: int, diff: int, rng: Random) -> int:
    """A uniform ``bit_len``-bit d with d.diff = 0, on one getrandbits: the
    lowest set bit of a nonzero ``diff`` fixes the parity of an odd draw."""
    d = rng.getrandbits(bit_len)
    if (d & diff).bit_count() & 1:
        d ^= diff & -diff
    return d


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
    check_same_width(truth, h0)
    check_same_width(h0, h1)
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
