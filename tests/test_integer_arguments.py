"""Every integer argument of the library takes an int, not a bool, inside its
range; anything else raises InvalidInputError before any draw, and a Monte
Carlo run raises it before its first trial.  qseal.value.check_int owns the
rule.  The n-ary branch count k has its cases in test_seal.py
(TestStringsForMembers::test_nary_branch_count), and the seeds in
test_experiment.py
(TestStreamPrefix::test_an_out_of_range_seed_fails_before_any_trial).
"""

from __future__ import annotations

from random import Random

import pytest

from qseal import experiment
from qseal.bits import BitString
from qseal.errors import InvalidInputError
from qseal.experiment import (
    TrialConfig,
    fig1_curve,
    mixture_diagnostic,
    theory_pcheck,
    wilson_interval,
)
from qseal.seal import (
    BinaryTcf,
    CheatStrategy,
    NarySymmetric,
    ReturnKind,
    SealPackage,
    VerifyMethod,
    alice_seal_binary,
    alice_seal_nary,
    check_width,
)
from qseal.sparsestate import SparseState
from qseal.tcf import TcfParams


class NoDrawRandom(Random):
    """A generator that fails on any draw."""

    def random(self) -> float:
        raise AssertionError("drew random()")

    def getrandbits(self, k: int) -> int:
        raise AssertionError("drew getrandbits()")


@pytest.fixture
def no_trials(monkeypatch):
    """Fail any Monte Carlo run that reaches its first trial."""

    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment, "_trial_streams", refuse)


def trial_config(**overrides) -> TrialConfig:
    fields = dict(
        mode=NarySymmetric(2),
        bit_len=16,
        strategy=CheatStrategy.MEASURE_KEEP,
        return_kind=ReturnKind.QUANTUM,
        verify_method=VerifyMethod.PROJECTIVE,
        trials=10,
        seed=0,
    )
    fields.update(overrides)
    return TrialConfig(**fields)


PACKAGE, _ = alice_seal_binary(TcfParams(16), Random(0))


def package(bit_len):
    """PACKAGE rebuilt with ``bit_len``.  16.0 equals the register's width,
    so only the int check refuses it."""
    return SealPackage(BinaryTcf(), bit_len, PACKAGE.register, tcf=PACKAGE.tcf)


# argument: (call with the argument v and every other argument valid, the name
# the error gives, an int the call takes, an int just outside the range)
INTEGER_ARGUMENTS = {
    "BitString.bit_len": (lambda v, rng: BitString(v, 1), "bit_len", 16, 0),
    "BitString.value": (lambda v, rng: BitString(16, v), "value", 65535, 65536),
    "BitString.from_hex": (
        lambda v, rng: BitString.from_hex(v, "0001"), "bit_len", 16, 0
    ),
    "BitString.random": (lambda v, rng: BitString.random(v, rng), "bit_len", 16, 0),
    "SparseState.bit_len": (
        lambda v, rng: SparseState(v, {BitString(16, 1): 1.0}), "bit_len", 16, 0
    ),
    "SealPackage.bit_len": (lambda v, rng: package(v), "bit_len", 16, 0),
    "TcfParams.bit_len": (lambda v, rng: TcfParams(v), "bit_len", 128, 129),
    "check_width.binary": (
        lambda v, rng: check_width(BinaryTcf(), v), "bit_len", 2, 1
    ),
    "check_width.nary": (
        lambda v, rng: check_width(NarySymmetric(3), v), "bit_len", 4, 3
    ),
    "TrialConfig.bit_len.binary": (
        lambda v, rng: trial_config(mode=BinaryTcf(), bit_len=v), "bit_len", 16, 129
    ),
    "TrialConfig.bit_len.nary": (
        lambda v, rng: trial_config(bit_len=v), "bit_len", 16, 2
    ),
    "TrialConfig.trials": (lambda v, rng: trial_config(trials=v), "trials", 1, 0),
    "fig1_curve.k_max": (lambda v, rng: fig1_curve(v, 10), "branch count", 3, 65),
    "fig1_curve.trials_per_point": (
        lambda v, rng: fig1_curve(3, v), "trials_per_point", 1, 0
    ),
    "fig1_curve.bit_len": (
        lambda v, rng: fig1_curve(3, 10, bit_len=v), "bit_len", 4, 3
    ),
    "fig1_curve.workers": (
        lambda v, rng: fig1_curve(3, 10, workers=v), "workers", 1, 0
    ),
    "mixture_diagnostic.bit_len": (
        lambda v, rng: mixture_diagnostic(v, 10), "bit_len", 3, 2
    ),
    "mixture_diagnostic.trials": (
        lambda v, rng: mixture_diagnostic(16, v), "trials", 1, 0
    ),
    "alice_seal_nary.bit_len": (
        lambda v, rng: alice_seal_nary(3, b"x", v, rng), "bit_len", 4, 3
    ),
    "wilson_interval.successes": (
        lambda v, rng: wilson_interval(v, 20), "successes", 20, 21
    ),
    "wilson_interval.trials": (lambda v, rng: wilson_interval(5, v), "trials", 5, 0),
    "theory_pcheck.k": (lambda v, rng: theory_pcheck(v), "k", 1, 0),
}

NOT_INTS = [16.0, "16", True, None]


@pytest.mark.parametrize("value", [*NOT_INTS, "outside"])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_every_integer_argument_refuses_before_any_draw(no_trials, argument, value):
    call, name, _, outside = INTEGER_ARGUMENTS[argument]
    if value == "outside":
        value = outside
    with pytest.raises(InvalidInputError, match=f"^{name} must be an int "):
        call(value, NoDrawRandom(0))


@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_each_call_of_the_table_runs_on_an_int_at_the_edge(argument):
    """So a refusal above is the argument's own, not another argument's."""
    call, _, edge, _ = INTEGER_ARGUMENTS[argument]
    call(edge, Random(0))


@pytest.mark.parametrize(
    "mode", ["binary", "nary", 2, None, BinaryTcf, NarySymmetric], ids=repr
)
def test_a_trial_config_refuses_a_mode_that_is_no_seal_mode(no_trials, mode):
    """A string, an int or a mode class, not an instance, is no mode."""
    with pytest.raises(InvalidInputError, match="^not a seal mode: "):
        trial_config(mode=mode)
    with pytest.raises(InvalidInputError, match="^not a seal mode: "):
        check_width(mode, 16)


@pytest.mark.parametrize(
    "secret",
    ["x", [1, 2], bytearray(b"x"), memoryview(b"x"), None, 120, b""],
    ids=lambda secret: type(secret).__name__ + ("-empty" if secret == b"" else ""),
)
def test_an_nary_secret_must_be_nonempty_bytes(secret):
    """enc fails on a str, and a record of a bytearray or a list cannot be
    hashed, so the seal takes nothing but nonempty bytes."""
    with pytest.raises(InvalidInputError, match="^secret must be nonempty bytes$"):
        alice_seal_nary(3, secret, 16, NoDrawRandom(0))
