"""Exact dense oracles for the verifier's probabilities.

Each state becomes a numpy vector of 2^n reals, n <= 7.  The Helstrom test
of h0 against h1 projects onto the positive eigenspace of
|h0><h0| - |h1><h1| (numpy.linalg.eigh); its null space reports h0 with
probability 1/2, the coin helstrom_discriminate states.  Projective
acceptance is <original|returned>^2.  Neither reference shares code with
the frame rotation of helstrom_p_report_h0, which they gate at TOL.

helstrom_p_report_h0 reads three float overlaps, and its frame divides the
rounding in them by sin(theta), theta the angle between h0 and h1.  So the
general triples keep sin(theta)^2 >= 1e-2, and the near-parallel pairs are
built so that every overlap they feed it is exact (see near_parallel).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qseal.bits import BitString
from qseal.experiment import _class_table
from qseal.seal import VerifyMethod, acceptance_probability
from qseal.sparsestate import (
    SparseState,
    helstrom_p_report_h0,
    inner_product,
    singleton,
    uniform_superposition,
)

TOL = 1e-12
# No deadline: the first eigh call loads LAPACK.  50 examples a test keep
# the file near 1 s.
ORACLE = settings(max_examples=50, derandomize=True, deadline=None)

# The widest near-parallel pair, c|0> + s|1> at theta = 1.1e-2.
C14 = {0: 1.0 - 2.0**-14, 1: math.sqrt(1.0 - (1.0 - 2.0**-14) ** 2)}


def dense(state: SparseState) -> np.ndarray:
    vector = np.zeros(1 << state.bit_len)
    for key, amp in state.terms.items():
        vector[key.value] = amp
    return vector


def dense_p_report_h0(truth: SparseState, h0: SparseState, h1: SparseState) -> float:
    """Probability that the Helstrom test of h0 against h1 reports h0 on truth.

    The nonzero eigenvalues of |h0><h0| - |h1><h1| are +-sin(theta), at
    least 1e-9 for every pair here; anything within 1e-12 of 0 is the null
    space.
    """
    a, b = dense(h0), dense(h1)
    values, vectors = np.linalg.eigh(np.outer(a, a) - np.outer(b, b))
    weights = (vectors.T @ dense(truth)) ** 2
    null = np.abs(values) <= 1e-12
    return float(weights[values > 1e-12].sum() + 0.5 * weights[null].sum())


def dense_acceptance(
    original: SparseState, returned: SparseState, method: VerifyMethod
) -> float:
    """Alice's acceptance probability: 1 on the original's ray (amplitudes
    are real, so -psi is psi), else the method's test.  On the ray |overlap|
    is 1 to rounding, 1e-15 here; the nearest pair off it is 9e-13 away."""
    overlap = float(dense(original) @ dense(returned))
    if abs(abs(overlap) - 1.0) <= 1e-14:
        return 1.0
    if method is VerifyMethod.PROJECTIVE:
        return overlap * overlap
    return dense_p_report_h0(returned, original, returned)


def p_report_h0(truth: SparseState, h0: SparseState, h1: SparseState) -> float:
    return helstrom_p_report_h0(
        inner_product(h0, h1), inner_product(truth, h0), inner_product(truth, h1)
    )


def bs(bit_len: int, value: int) -> BitString:
    return BitString(bit_len, value)


def state(bit_len: int, terms: dict[int, float]) -> SparseState:
    return SparseState(bit_len, {bs(bit_len, v): amp for v, amp in terms.items()})


@st.composite
def signed_states(draw, bit_len: int) -> SparseState:
    """One to five terms of either sign on a small pool, so that states drawn
    together often share support."""
    value = st.integers(min_value=0, max_value=min((1 << bit_len) - 1, 11))
    weight = st.floats(min_value=0.05, max_value=1.0) | st.floats(
        min_value=-1.0, max_value=-0.05
    )
    weights = draw(st.dictionaries(value, weight, min_size=1, max_size=5))
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return state(bit_len, {v: w / norm for v, w in weights.items()})


@st.composite
def triples(draw) -> tuple[SparseState, SparseState, SparseState]:
    bit_len = draw(st.integers(min_value=1, max_value=5))
    return tuple(draw(signed_states(bit_len)) for _ in range(3))


@st.composite
def near_parallel(draw) -> tuple[SparseState, SparseState, list[SparseState]]:
    """h0 = +-|x>, h1 = +-(c|x> +- s|y>) with c = 1 - 2^-j, s = sqrt(1 - c^2),
    so theta runs from 1.1e-2 (j = 14) down to 1.3e-6 (j = 40); and truths
    whose overlaps with both are exact.

    c*c is exact to 2^-2j, so 1 - c*c is sin(theta)^2 to double precision and
    c^2 + s^2 rounds to 1.  A truth with weight on both x and y would round
    <truth|h1> by about 1e-16, which the frame divides by sin(theta).
    """
    bit_len = draw(st.integers(min_value=2, max_value=7))
    x, y, z = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bit_len) - 1),
            min_size=3, max_size=3, unique=True,
        )
    )
    c = 1.0 - 2.0 ** -draw(st.integers(min_value=14, max_value=40))
    s = math.sqrt(1.0 - c * c)
    sign = st.sampled_from([1.0, -1.0])
    sx, sy, sh = draw(sign), draw(sign), draw(sign)
    h0 = state(bit_len, {x: sx})
    h1 = state(bit_len, {x: sh * sx * c, y: sh * sy * s})
    phi = draw(st.floats(min_value=0.05, max_value=1.5))
    a, b = math.cos(phi), math.sin(phi)
    truths = [
        h0,
        state(bit_len, {x: -sx}),
        h1,
        state(bit_len, {x: -sh * sx * c, y: -sh * sy * s}),
        singleton(bs(bit_len, y)),
        singleton(bs(bit_len, z)),  # outside the span: the coin
        state(bit_len, {x: a, z: b}),
        state(bit_len, {y: a, z: b}),
    ]
    return h0, h1, truths


class TestHelstromPReportH0:
    @ORACLE
    @given(triples())
    @example((singleton(bs(3, 1)), singleton(bs(3, 2)), singleton(bs(3, 4))))
    def test_matches_the_dense_projector(self, triple):
        """Truths in, partly in and outside the span.  Nearer pairs are the
        near-parallel test's."""
        truth, h0, h1 = triple
        assume(1.0 - inner_product(h0, h1) ** 2 >= 1e-2)
        got = p_report_h0(truth, h0, h1)
        assert abs(got - dense_p_report_h0(truth, h0, h1)) <= TOL

    @ORACLE
    @given(
        st.integers(min_value=4, max_value=6),
        st.sampled_from([1, 4, 16]),
        st.lists(st.sampled_from([1.0, -1.0]), min_size=16, max_size=16),
        st.sampled_from([1.0, -1.0]),
        st.data(),
    )
    def test_the_same_ray_up_to_sign_is_the_coin(
        self, bit_len, size, signs, flip, data
    ):
        """h1 = +-h0, with a self-overlap of exactly 1 (1, 4 or 16 terms of
        amplitude 2^-j): |h0><h0| - |h1><h1| is 0, so every truth gets 1/2."""
        amp = 1.0 / math.sqrt(size)
        h0 = state(bit_len, {v: amp * signs[v] for v in range(size)})
        h1 = state(bit_len, {v: flip * amp * signs[v] for v in range(size)})
        truth = data.draw(signed_states(bit_len))
        assert p_report_h0(truth, h0, h1) == 0.5
        assert abs(dense_p_report_h0(truth, h0, h1) - 0.5) <= TOL

    @ORACLE
    @given(near_parallel())
    @example((singleton(bs(2, 0)), state(2, C14), [singleton(bs(2, 0))]))
    def test_near_parallel_pairs_match(self, pair):
        """At theta = 1.1e-2 the function reports h0 from h0 at 0.5055."""
        h0, h1, truths = pair
        for truth in truths:
            got = p_report_h0(truth, h0, h1)
            assert abs(got - dense_p_report_h0(truth, h0, h1)) <= TOL, truth

    @pytest.mark.parametrize("theta", [1e-7, 3e-8, 1.5e-8, 1e-8, 3e-9, 1e-9])
    def test_the_band_near_theta_1e_8_is_within_theta(self, theta):
        """h1 = cos(theta)|x> + sin(theta)|y> as floats.  From about
        theta = 1e-8 the float overlap is 1.0, and the function returns the
        coin where the dense projector reports h0 from a truth in or beside
        the span at 1/2 +- theta/2: the tolerance here is theta.  (A truth
        with weight on y is reported far from the coin by any theta > 0,
        which no float overlap near 1 resolves; it is left out.)"""
        h0 = state(3, {1: 1.0})
        h1 = state(3, {1: math.cos(theta), 2: math.sin(theta)})
        truths = [h0, h1, singleton(bs(3, 4)), state(3, {1: 0.6, 4: 0.8})]
        for truth in truths:
            got = p_report_h0(truth, h0, h1)
            assert abs(got - dense_p_report_h0(truth, h0, h1)) <= theta
            if theta <= 1e-8:
                assert inner_product(h0, h1) == 1.0 and got == 0.5


class TestAcceptanceProbability:
    @ORACLE
    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_both_methods_match_the_dense_reference(self, bit_len, data):
        """Returns: any state, a branch of the original, the original and its
        negation (exactly 1.0)."""
        original = data.draw(signed_states(bit_len))
        negated = SparseState(bit_len, {k: -a for k, a in original.terms.items()})
        returned = data.draw(
            signed_states(bit_len)
            | st.sampled_from(
                [original, negated, *map(singleton, original.branches)]
            )
        )
        overlap = inner_product(original, returned)
        on_ray = returned in (original, negated)
        assume(on_ray or 1.0 - overlap * overlap >= 1e-2)
        for method in VerifyMethod:
            got = acceptance_probability(original, returned, method)
            if on_ray:
                assert got == 1.0
            assert abs(got - dense_acceptance(original, returned, method)) <= TOL

    @ORACLE
    @given(near_parallel())
    def test_a_return_near_the_original_matches(self, pair):
        """An original and a return theta apart, either way round."""
        h0, h1, _ = pair
        for original, returned in ((h0, h1), (h1, h0)):
            for method in VerifyMethod:
                got = acceptance_probability(original, returned, method)
                want = dense_acceptance(original, returned, method)
                assert abs(got - want) <= TOL

    @pytest.mark.parametrize("method", list(VerifyMethod))
    def test_every_class_table_entry(self, method):
        """The register, a branch and an outside string against the uniform
        k-branch register, k = 2..64, on 7 qubits."""
        for k in range(2, 65):
            register = uniform_superposition(bs(7, v) for v in range(k))
            classes = (register, singleton(bs(7, 0)), singleton(bs(7, k)))
            want = [dense_acceptance(register, r, method) for r in classes]
            got = _class_table(k, method)
            assert got[0] == 1.0
            assert max(abs(g - w) for g, w in zip(got, want)) <= TOL, k
