"""Sparse state invariants, measurement distributions, and discrimination.

Sampling assertions use fixed seeds.  Distribution checks compare against
independent brute-force oracles computed here, not against the module's own
sampling shortcuts.
"""

from __future__ import annotations

import math
from collections import Counter
from random import Random
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from qseal.bits import BitString
from qseal.errors import InvalidInputError, UnsupportedModeError
from qseal.seal import VerifyMethod, acceptance_probability
from qseal.sparsestate import (
    AMP_TOL,
    SparseState,
    _orthogonal_mask,
    hadamard_measure,
    helstrom_discriminate,
    inner_product,
    measure_computational,
    singleton,
    uniform_superposition,
)


def bs(bit_len: int, value: int) -> BitString:
    return BitString(bit_len, value)


def uniform(bit_len: int, *values: int) -> SparseState:
    return uniform_superposition([bs(bit_len, v) for v in values])


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def dense_hadamard_distribution(state: SparseState) -> list[float]:
    """Brute force over all 2^n outcomes: p(d) = amp(d)^2 from first
    principles, amp(d) = sum_j a_j (-1)^(d.x_j) / sqrt(2^n)."""
    n = state.bit_len
    scale = 1.0 / math.sqrt(2.0**n)
    probs = []
    for d in range(1 << n):
        acc = 0.0
        for key, amp in state.terms.items():
            sign = -1.0 if bin(d & key.value).count("1") % 2 else 1.0
            acc += sign * amp
        probs.append((acc * scale) ** 2)
    assert abs(sum(probs) - 1.0) < 1e-9
    return probs


def rank_syndrome_table(pairs: list[tuple[int, float]]) -> tuple[list, list, list]:
    """The general rank-r Hadamard sampler's table, kept as a draw-for-draw
    reference: a reduced basis of the differences of the (value, amplitude)
    terms, the pivot bits reps[s] of each syndrome s, and its weight."""
    basis: list[int] = []
    reps = [0]
    for value, _ in pairs:
        diff = value ^ pairs[0][0]
        for vector in basis:
            if diff & vector & -vector:
                diff ^= vector
        if diff:
            basis = [v ^ diff if v & diff & -diff else v for v in basis] + [diff]
            reps += [rep | (diff & -diff) for rep in reps]
    weights = []
    for rep in reps:
        acc = 0.0
        for value, amp in pairs:
            acc += -amp if (rep & value).bit_count() & 1 else amp
        weights.append(acc * acc)
    return basis, reps, weights


def rank_syndrome_draw(bit_len: int, table: tuple[list, list, list], rng: Random) -> int:
    """d drawn uniformly (getrandbits), its pivot bits flipped to match a
    syndrome drawn by weight (one choices(), only if more than one is live)."""
    basis, reps, weights = table
    d = rng.getrandbits(bit_len)
    live = [s for s, w in enumerate(weights) if w > 0.0]
    drawn = live[0] if len(live) == 1 else rng.choices(range(len(reps)), weights)[0]
    observed = 0
    for i, vector in enumerate(basis):
        observed |= ((d & vector).bit_count() & 1) << i
    return d ^ reps[observed ^ drawn]


def total_variation(empirical: Counter, probs: list[float], draws: int) -> float:
    return 0.5 * sum(
        abs(empirical.get(d, 0) / draws - p) for d, p in enumerate(probs)
    )


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_terms_are_canonically_sorted(self):
        state = SparseState(4, {bs(4, 9): 0.5**0.5, bs(4, 2): 0.5**0.5})
        assert [key.value for key in state.terms] == [2, 9]

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            SparseState(4, {})

    def test_rejects_zero_amplitude(self):
        with pytest.raises(InvalidInputError):
            SparseState(4, {bs(4, 1): 1.0, bs(4, 2): 0.0})

    def test_rejects_bad_norm(self):
        with pytest.raises(InvalidInputError):
            SparseState(4, {bs(4, 1): 0.5, bs(4, 2): 0.5})

    def test_rejects_width_mismatch(self):
        with pytest.raises(InvalidInputError):
            SparseState(4, {bs(5, 1): 1.0})

    @pytest.mark.parametrize("key", [1, "1", (4, 1), None], ids=repr)
    def test_rejects_a_key_that_is_not_a_bit_string(self, key):
        with pytest.raises(InvalidInputError, match="is not a BitString$"):
            SparseState(4, {key: 1.0})

    @pytest.mark.parametrize("amp", ["1", True, False, None, 1j, [1.0]], ids=repr)
    def test_rejects_an_amplitude_that_is_not_an_int_or_float(self, amp):
        with pytest.raises(InvalidInputError, match="is not an int or float$"):
            SparseState(4, {bs(4, 1): amp})

    def test_int_amplitudes_are_accepted(self):
        assert dict(SparseState(4, {bs(4, 1): -1}).terms) == {bs(4, 1): -1}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(InvalidInputError):
            SparseState(4, {bs(4, 1): bad})
        with pytest.raises(InvalidInputError):
            SparseState(4, {bs(4, 1): 1.0, bs(4, 2): bad})

    def test_norm_slack_within_tolerance_is_accepted(self):
        SparseState(4, {bs(4, 1): math.sqrt(0.5 + 4e-10), bs(4, 2): math.sqrt(0.5)})

    def test_signed_amplitudes_are_allowed(self):
        amp = 1.0 / math.sqrt(2.0)
        state = SparseState(4, {bs(4, 1): amp, bs(4, 2): -amp})
        assert state.terms[bs(4, 2)] == -amp

    def test_uniform_superposition_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            uniform_superposition([bs(4, 1), bs(4, 1)])

    def test_uniform_superposition_rejects_mixed_widths(self):
        with pytest.raises(InvalidInputError):
            uniform_superposition([bs(4, 1), bs(5, 2)])
        with pytest.raises(InvalidInputError):
            uniform_superposition([bs(4, 1), bs(5, 1)])

    def test_equal_states_hash_equal(self):
        amp = 0.5**0.5
        a = SparseState(4, {bs(4, 9): amp, bs(4, 2): -amp})
        b = SparseState(4, {bs(4, 2): -amp, bs(4, 9): amp})
        assert a == b and hash(a) == hash(b)
        assert hash(singleton(bs(4, 1))) == hash(singleton(bs(4, 1)))

    def test_state_can_key_a_dict(self):
        seen = {singleton(bs(4, 1)): "one", uniform(4, 1, 2): "pair"}
        assert seen[uniform(4, 2, 1)] == "pair"
        assert seen[singleton(bs(4, 1))] == "one"
        assert singleton(bs(8, 1)) not in seen

    def test_terms_are_read_only(self):
        state = uniform(4, 1, 2)
        with pytest.raises(TypeError):
            state.terms[bs(4, 1)] = 5.0
        with pytest.raises(TypeError):
            del state.terms[bs(4, 2)]
        assert state.isclose(uniform(4, 1, 2))

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_canonical_order_whatever_the_input_order(self, data):
        """Sorted, reversed, shuffled and read-only inputs build one state, and
        inputs in value order or out of it are validated alike."""
        bit_len = data.draw(st.integers(min_value=1, max_value=10), label="bit_len")
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << bit_len) - 1),
                min_size=1, max_size=12, unique=True,
            ),
            label="values",
        )
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.1, max_value=1.0) | st.floats(-1.0, -0.1),
                min_size=len(values), max_size=len(values),
            ),
            label="raw",
        )
        norm = math.sqrt(sum(r * r for r in raw))
        items = sorted(
            ((bs(bit_len, v), r / norm) for v, r in zip(values, raw)),
            key=lambda term: term[0].value,
        )
        shuffled = data.draw(st.permutations(items), label="shuffled")
        inputs = [
            dict(items),
            dict(reversed(items)),
            dict(shuffled),
            MappingProxyType(dict(shuffled)),
        ]
        states = [SparseState(bit_len, terms) for terms in inputs]
        for state in states:
            assert list(state.terms.items()) == items
            assert state.branches == tuple(key for key, _ in items)
            assert state == states[0] and hash(state) == hash(states[0])

        # The state copies its terms: later edits to the caller's dict (in
        # order or not) leave it unchanged.
        for caller in (dict(items), dict(reversed(items))):
            state = SparseState(bit_len, caller)
            caller[items[0][0]] = 5.0
            caller[bs(bit_len + 1, 0)] = 1.0
            del caller[items[-1][0]]
            assert list(state.terms.items()) == items

        first_key, first_amp = items[0]
        bad_inputs = [
            # A key of another width, placed last in value order.
            items + [(bs(bit_len + 1, 1 << bit_len), first_amp)],
            [(first_key, 0.0)] + items[1:],
            [(first_key, math.nan)] + items[1:],
            [(key, 2.0 * amp) for key, amp in items],
        ]
        for bad in bad_inputs:
            for terms in (dict(bad), dict(reversed(bad))):
                with pytest.raises(InvalidInputError):
                    SparseState(bit_len, terms)

    def test_wide_registers_work(self):
        state = uniform(256, 1, (1 << 256) - 1, 17)
        assert state.bit_len == 256
        assert state.num_branches == 3

    @given(
        st.integers(min_value=1, max_value=256),
        st.sets(st.integers(min_value=0), min_size=1, max_size=64),
    )
    @settings(max_examples=50)
    def test_uniform_superposition_is_normalized(self, bit_len, raw):
        keys = [bs(bit_len, v % (1 << bit_len)) for v in raw]
        keys = list(dict.fromkeys(keys))
        state = uniform_superposition(keys)
        assert abs(sum(a * a for a in state.terms.values()) - 1.0) <= 1e-9
        assert state.num_branches == len(keys)

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_isclose_matches_the_union_definition(self, data):
        a, b = data.draw(close_state_pairs())
        assert a.isclose(b) == isclose_over_union(a, b)
        assert b.isclose(a) == isclose_over_union(b, a)

    def test_isclose_one_sided_tiny_terms(self):
        base = {bs(4, 1): 1.0}
        at_tol = SparseState(4, {**base, bs(4, 2): AMP_TOL})
        above_tol = SparseState(4, {**base, bs(4, 2): 3 * AMP_TOL})
        assert at_tol.isclose(singleton(bs(4, 1)))
        assert singleton(bs(4, 1)).isclose(at_tol)
        assert not above_tol.isclose(singleton(bs(4, 1)))
        assert not singleton(bs(4, 1)).isclose(above_tol)
        assert not singleton(bs(4, 1)).isclose(singleton(bs(5, 1)))


def isclose_over_union(a: SparseState, b: SparseState) -> bool:
    """Reference: compare amplitudes over the union of both key sets."""
    if a.bit_len != b.bit_len:
        return False
    keys = a.terms.keys() | b.terms.keys()
    return all(
        abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= AMP_TOL for k in keys
    )


# Offsets around AMP_TOL: added to shared terms, or alone as one-sided terms.
TINY = st.sampled_from([0.0, 1e-13, -1e-13, AMP_TOL, -AMP_TOL, 3e-12, -3e-12])


@st.composite
def close_state_pairs(draw):
    """Two states on mostly shared keys, differing by signs and tiny terms.

    One width in five is one bit wider, so widths sometimes disagree.
    """
    width = draw(st.integers(min_value=2, max_value=4))
    widths = (width, draw(st.sampled_from([width] * 4 + [width + 1])))
    value = st.integers(min_value=0, max_value=(1 << width) - 1)
    shared = draw(st.lists(value, min_size=1, max_size=4, unique=True))

    def state(bit_len: int) -> SparseState:
        keys = draw(st.sampled_from([shared, shared, shared, [draw(value)]]))
        amp = 1.0 / math.sqrt(len(keys))
        terms = {
            bs(bit_len, v): draw(st.sampled_from([amp, amp, -amp])) + draw(TINY)
            for v in keys
        }
        for v in draw(st.lists(value, max_size=3)):
            tiny = draw(TINY)
            if tiny and bs(bit_len, v) not in terms:
                terms[bs(bit_len, v)] = tiny
        return SparseState(bit_len, terms)

    return state(widths[0]), state(widths[1])


def signed(bit_len: int, weights: dict[int, float]) -> SparseState:
    """The state with amplitudes proportional to ``weights`` (value -> weight)."""
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return SparseState(
        bit_len, {bs(bit_len, v): w / norm for v, w in weights.items()}
    )


@st.composite
def state_pairs(draw):
    """Two states of one width with up to 8 terms each, of either sign; at
    small widths their supports often overlap, at larger ones seldom."""
    bit_len = draw(st.integers(min_value=1, max_value=6))
    value = st.integers(min_value=0, max_value=(1 << bit_len) - 1)
    weight = st.floats(min_value=1e-3, max_value=1.0) | st.floats(
        min_value=-1.0, max_value=-1e-3
    )
    weights = st.dictionaries(value, weight, min_size=1, max_size=8)
    return signed(bit_len, draw(weights)), signed(bit_len, draw(weights))


# ---------------------------------------------------------------------------
# overlaps and trace distance
# ---------------------------------------------------------------------------


def trace_distance(a: SparseState, b: SparseState) -> float:
    """sqrt(1 - <a|b>^2), read from the projective verifier's acceptance."""
    return math.sqrt(
        1.0 - acceptance_probability(a, b, VerifyMethod.PROJECTIVE)
    )


class TestTraceDistance:
    def test_branch_versus_two_branch_superposition(self):
        state = uniform(8, 3, 12)
        branch = singleton(bs(8, 12))
        assert abs(trace_distance(state, branch) - math.sqrt(0.5)) < 1e-12
        helstrom_success = 1.0 - acceptance_probability(
            state, branch, VerifyMethod.HELSTROM_PER_BRANCH
        )
        assert abs(helstrom_success - 0.8535533905932737) < 1e-12

    def test_three_branch_distance_is_sqrt_two_thirds(self):
        state = uniform(8, 1, 2, 3)
        branch = singleton(bs(8, 2))
        assert abs(trace_distance(state, branch) - math.sqrt(2.0 / 3.0)) < 1e-12

    def test_orthogonal_states_have_distance_one(self):
        assert trace_distance(singleton(bs(6, 1)), singleton(bs(6, 2))) == 1.0

    def test_identical_states_have_distance_zero(self):
        state = uniform(6, 1, 2, 3)
        assert trace_distance(state, state) < 1e-7

    def test_uniform_branch_distance_formula_for_all_k(self):
        # One branch of a uniform k-branch state: distance sqrt(1 - 1/k).
        for k in range(2, 65):
            state = uniform(8, *range(k))
            branch = singleton(bs(8, 0))
            expected = math.sqrt(1.0 - 1.0 / k)
            assert abs(trace_distance(state, branch) - expected) < 1e-12

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="^width mismatch: 4 vs 5$"):
            inner_product(uniform(4, 1), uniform(5, 1))

    @given(st.data())
    @settings(max_examples=50)
    def test_symmetry_and_bounds(self, data):
        bit_len = data.draw(st.integers(min_value=2, max_value=32))
        top = (1 << bit_len) - 1
        pick = st.sets(
            st.integers(min_value=0, max_value=top), min_size=1, max_size=8
        )
        a = uniform(bit_len, *data.draw(pick))
        b = uniform(bit_len, *data.draw(pick))
        d_ab = trace_distance(a, b)
        d_ba = trace_distance(b, a)
        assert abs(d_ab - d_ba) < 1e-12
        assert -1e-12 <= d_ab <= 1.0 + 1e-12

    @given(state_pairs())
    @settings(max_examples=300)
    @example((signed(3, {1: 1, 2: -2}), signed(3, {4: 1, 5: 1})))  # disjoint
    @example((signed(3, {1: -1, 2: 3}), signed(3, {2: 1, 6: -1})))  # one shared
    @example((signed(4, {1: 1, 2: -1, 3: 2}), signed(4, {2: -3})))  # 3 terms vs 1
    def test_inner_product_is_symmetric_bit_for_bit(self, pair):
        # Both orders add the same nonzero products in value order, so a
        # caller may take one overlap for <a|b> and <b|a>.
        a, b = pair
        assert inner_product(a, b).hex() == inner_product(b, a).hex()


# ---------------------------------------------------------------------------
# computational-basis measurement
# ---------------------------------------------------------------------------


class TestMeasureComputational:
    def test_collapse_is_a_branch_and_normalized(self):
        state = uniform(8, 1, 2, 3)
        outcome, collapsed = measure_computational(state, Random(5))
        assert outcome in state.terms
        assert collapsed.terms == {outcome: 1.0}

    def test_input_state_is_not_mutated(self):
        state = uniform(8, 1, 2)
        before = dict(state.terms)
        measure_computational(state, Random(0))
        assert state.terms == before

    def test_singleton_measures_deterministically(self):
        state = singleton(bs(8, 77))
        for seed in range(10):
            outcome, _ = measure_computational(state, Random(seed))
            assert outcome == bs(8, 77)

    def test_three_branch_frequencies_near_uniform(self):
        # 30000 draws, expect each branch near 1/3.
        state = uniform(8, 10, 20, 30)
        rng = Random(123)
        counts = Counter(
            measure_computational(state, rng)[0].value for _ in range(30_000)
        )
        for value in (10, 20, 30):
            assert abs(counts[value] / 30_000 - 1.0 / 3.0) < 0.01

    def test_chi_square_against_uniform_for_k_up_to_8(self):
        from scipy.stats import chisquare

        draws = 40_000
        for k, seed in [(2, 11), (3, 12), (5, 13), (8, 14)]:
            state = uniform(10, *range(0, 4 * k, 4))
            rng = Random(seed)
            counts = Counter(
                measure_computational(state, rng)[0].value for _ in range(draws)
            )
            observed = [counts[v] for v in range(0, 4 * k, 4)]
            result = chisquare(observed)
            assert result.pvalue > 0.001, f"k={k}: chi2 p={result.pvalue}"


# ---------------------------------------------------------------------------
# Hadamard-basis measurement
# ---------------------------------------------------------------------------


class TestHadamardMeasure:
    def test_two_branch_outcomes_satisfy_parity_relation(self):
        state = uniform(16, 0x1234, 0x5678)
        diff = bs(16, 0x1234 ^ 0x5678)
        rng = Random(7)
        for _ in range(2000):
            outcome = hadamard_measure(state, rng)
            assert outcome.dot(diff) == 0

    def test_two_branch_matches_dense_oracle(self):
        state = uniform(6, 9, 33)
        probs = dense_hadamard_distribution(state)
        rng = Random(21)
        draws = 100_000
        empirical = Counter(hadamard_measure(state, rng).value for _ in range(draws))
        assert total_variation(empirical, probs, draws) < 0.02

    def test_singleton_gives_uniform_outcomes(self):
        state = singleton(bs(4, 6))
        rng = Random(3)
        draws = 64_000
        counts = Counter(hadamard_measure(state, rng).value for _ in range(draws))
        for d in range(16):
            assert abs(counts[d] / draws - 1.0 / 16.0) < 0.01

    def test_wide_two_branch_states_are_supported(self):
        state = uniform(256, 1, 2)
        outcome = hadamard_measure(state, Random(0))
        assert outcome.bit_len == 256
        assert outcome.dot(bs(256, 3)) == 0

    def test_sign_flipped_two_branch_outcomes_have_odd_parity(self):
        amp = 1.0 / math.sqrt(2.0)
        state = SparseState(16, {bs(16, 0x1234): amp, bs(16, 0x5678): -amp})
        diff = bs(16, 0x1234 ^ 0x5678)
        rng = Random(7)
        for _ in range(2000):
            assert hadamard_measure(state, rng).dot(diff) == 1

    def test_draws_match_the_rank_syndrome_sampler(self):
        """Outcome and stream state equal those of the general rank-r
        sampler, draw for draw, at every width from 2 to 64: singletons of
        either sign, and two-branch states with equal, sign-flipped and
        random real amplitudes."""
        for n in range(2, 65):
            gen = Random(n)
            rng, reference = Random(-n), Random(-n)
            for seed in range(1000):
                value = gen.getrandbits(n)
                x1, x2 = bs(n, value), bs(n, value ^ gen.randrange(1, 1 << n))
                a, b = gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)
                norm = math.sqrt(a * a + b * b)
                amp = 1.0 / math.sqrt(2.0)
                states = (
                    SparseState(n, {x1: gen.choice((1.0, -1.0))}),
                    uniform_superposition((x1, x2)),
                    SparseState(n, {x1: amp, x2: -amp}),
                    SparseState(n, {x1: a / norm, x2: b / norm}),
                )
                for state in states:
                    table = rank_syndrome_table(
                        [(key.value, coeff) for key, coeff in state.terms.items()]
                    )
                    want = rank_syndrome_draw(n, table, reference)
                    assert hadamard_measure(state, rng).value == want, (n, seed, state)
                assert rng.getstate() == reference.getstate(), (n, seed)

    def test_three_or_more_branches_are_refused_before_any_draw(self):
        for n, k in ((2, 3), (6, 4), (8, 8), (256, 3), (256, 64)):
            state = uniform(n, *range(k))
            rng = Random(k)
            before = rng.getstate()
            with pytest.raises(UnsupportedModeError):
                hadamard_measure(state, rng)
            assert rng.getstate() == before, (n, k)

    def test_orthogonal_mask_is_uniform_on_the_even_half_in_one_draw(self):
        """The 8 masks d of 4 bits with d.0b1011 = 0 are equally likely,
        and each mask costs the stream exactly one getrandbits(4)."""
        from scipy.stats import chisquare

        diff = 0b1011
        rng, reference = Random(5), Random(5)
        draws = 40_000
        counts = Counter()
        for _ in range(draws):
            counts[_orthogonal_mask(4, diff, rng)] += 1
            reference.getrandbits(4)
        assert rng.getstate() == reference.getstate()
        even = [d for d in range(16) if not (d & diff).bit_count() & 1]
        assert sorted(counts) == even
        assert chisquare([counts[d] for d in even]).pvalue > 0.001

    def test_few_branches_sample_at_any_width(self):
        # Two branches a|x1> + b|x2> weigh the half d.(x1 xor x2) = 1 by
        # (a - b)^2 / 2 at every width, here (1 - sin(pi/4)) / 2; a single
        # branch splits every parity evenly.  The bits of d beyond the
        # difference stay uniform.
        a, b = math.cos(math.pi / 8), math.sin(math.pi / 8)
        draws = 12_000
        for n in (24, 100, 300):
            x1, x2 = bs(n, 1), bs(n, (1 << (n - 1)) | 2)
            diff = x1 ^ x2
            for state, odd in (
                (SparseState(n, {x1: a, x2: b}), (a - b) ** 2 / 2),
                (singleton(x2), 0.5),
            ):
                rng = Random(n)
                outcomes = [hadamard_measure(state, rng) for _ in range(draws)]
                assert all(outcome.bit_len == n for outcome in outcomes)
                share = sum(outcome.dot(diff) for outcome in outcomes) / draws
                assert abs(share - odd) < 0.015, (n, odd, share)
                assert len({outcome.value >> 2 for outcome in outcomes}) > draws // 2

    @pytest.mark.parametrize("seed, k", [(30, 1), (31, 2)])
    def test_random_amplitudes_match_dense_oracle(self, seed, k):
        gen = Random(seed)
        keys = gen.sample(range(64), k)
        raw = [gen.uniform(-1.0, 1.0) for _ in keys]
        norm = math.sqrt(sum(a * a for a in raw))
        state = SparseState(6, {bs(6, v): a / norm for v, a in zip(keys, raw)})
        probs = dense_hadamard_distribution(state)
        rng = Random(seed)
        draws = 50_000
        empirical = Counter(hadamard_measure(state, rng).value for _ in range(draws))
        assert total_variation(empirical, probs, draws) < 0.03

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(min_value=0, max_value=(1 << n) - 1),
                    min_size=1,
                    max_size=min(6, 1 << n),
                    unique=True,
                ),
            )
        ),
        st.lists(
            st.one_of(
                st.sampled_from([1.0, -1.0]),
                st.floats(min_value=-1.0, max_value=1.0).filter(
                    lambda a: abs(a) > 1e-3
                ),
            ),
            min_size=6,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_outcomes_lie_in_the_dense_support(self, shape, raw, seed):
        """One or two branches sample inside the dense support; three or
        more are refused before any draw."""
        n, keys = shape
        amps = raw[: len(keys)]
        norm = math.sqrt(sum(a * a for a in amps))
        state = SparseState(n, {bs(n, v): a / norm for v, a in zip(keys, amps)})
        rng = Random(seed)
        if len(keys) > 2:
            before = rng.getstate()
            with pytest.raises(UnsupportedModeError):
                hadamard_measure(state, rng)
            assert rng.getstate() == before
            return
        probs = dense_hadamard_distribution(state)
        for _ in range(20):
            assert probs[hadamard_measure(state, rng).value] > 1e-12


# ---------------------------------------------------------------------------
# Helstrom discrimination
# ---------------------------------------------------------------------------


class TestHelstromDiscriminate:
    def test_identical_hypotheses_rejected(self):
        for truth in (uniform(8, 1, 2), uniform(8, 1)):
            rng = Random(0)
            before = rng.getstate()
            with pytest.raises(InvalidInputError, match="identical"):
                helstrom_discriminate(truth, uniform(8, 1, 2), uniform(8, 2, 1), rng)
            assert rng.getstate() == before

    def test_width_mismatch_rejected(self):
        for widths in ((8, 8, 9), (8, 9, 8), (9, 8, 8)):
            rng = Random(0)
            before = rng.getstate()
            with pytest.raises(InvalidInputError, match="width"):
                helstrom_discriminate(*(uniform(n, 1) for n in widths), rng)
            assert rng.getstate() == before, widths

    def test_orthogonal_hypotheses_always_resolved(self):
        h0 = singleton(bs(8, 1))
        h1 = singleton(bs(8, 2))
        rng = Random(9)
        for _ in range(200):
            assert helstrom_discriminate(h0, h0, h1, rng) == 0
            assert helstrom_discriminate(h1, h0, h1, rng) == 1

    def test_success_rate_matches_trace_distance(self):
        # Uniform prior over {h0, h1}: success = 1/2 + 1/2 * distance.
        h0 = uniform(8, 3, 12)
        h1 = singleton(bs(8, 12))
        expected = 0.5 + 0.5 * math.sqrt(1.0 - inner_product(h0, h1) ** 2)
        rng = Random(31)
        trials = 100_000
        hits = 0
        for _ in range(trials):
            if rng.random() < 0.5:
                hits += helstrom_discriminate(h0, h0, h1, rng) == 0
            else:
                hits += helstrom_discriminate(h1, h0, h1, rng) == 1
        assert abs(hits / trials - expected) < 0.005

    def test_same_ray_opposite_sign_is_a_coin(self):
        amp = 1.0 / math.sqrt(2.0)
        h0 = SparseState(6, {bs(6, 1): amp, bs(6, 2): amp})
        h1 = SparseState(6, {bs(6, 1): -amp, bs(6, 2): -amp})
        rng = Random(17)
        outcomes = [helstrom_discriminate(h0, h0, h1, rng) for _ in range(10_000)]
        assert abs(sum(outcomes) / 10_000 - 0.5) < 0.02

    def test_component_outside_span_is_a_coin(self):
        # Truth orthogonal to both hypotheses: either report, at 50/50.
        h0 = singleton(bs(6, 1))
        h1 = singleton(bs(6, 2))
        truth = singleton(bs(6, 4))
        rng = Random(13)
        outcomes = [helstrom_discriminate(truth, h0, h1, rng) for _ in range(10_000)]
        assert abs(sum(outcomes) / 10_000 - 0.5) < 0.02

    def test_per_branch_success_for_k_up_to_5(self):
        # Discriminating the full k-branch state from one kept branch
        # succeeds with rate 1/2 + 1/2*sqrt(1 - 1/k) on either input.
        for k, seed in [(2, 41), (3, 42), (4, 43), (5, 44)]:
            psi = uniform(10, *range(k))
            kept = singleton(bs(10, 0))
            expected = 0.5 + 0.5 * math.sqrt(1.0 - 1.0 / k)
            rng = Random(seed)
            trials = 40_000
            hits = 0
            for _ in range(trials):
                if rng.random() < 0.5:
                    hits += helstrom_discriminate(psi, psi, kept, rng) == 0
                else:
                    hits += helstrom_discriminate(kept, psi, kept, rng) == 1
            assert abs(hits / trials - expected) < 0.01, f"k={k}"
