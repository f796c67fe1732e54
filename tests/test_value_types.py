"""The contract every value type keeps: immutable, compared and hashed by
class and fields, shown as ``Name(field=value, ...)``, and copied or pickled
wherever its fields can be."""

from __future__ import annotations

import copy
import pickle
from random import Random

import pytest

from qseal.bits import BitString
from qseal.experiment import EstimateReport, TrialConfig
from qseal.seal import (
    BinaryTcf,
    CheatStrategy,
    ClassicalReturn,
    NarySymmetric,
    QuantumReturn,
    ReturnKind,
    VerifyMethod,
    alice_seal_binary,
    alice_seal_nary,
)
from qseal.sparsestate import uniform_superposition
from qseal.symcrypto import Ciphertext
from qseal.tcf import TcfKeyPair, TcfOracle, TcfParams


def _state(values):
    return uniform_superposition(BitString(8, v) for v in values)


def _oracle(cls, shift):
    return cls(TcfParams(8), bytes(range(16)), BitString(8, shift))


def _binary(seed):
    return alice_seal_binary(TcfParams(8), Random(seed))


def _nary(seed):
    return alice_seal_nary(3, b"\x00\xff", 8, Random(seed))


def _config(trials):
    return TrialConfig(
        BinaryTcf(), 16, CheatStrategy.MEASURE_KEEP, ReturnKind.QUANTUM,
        VerifyMethod.PROJECTIVE, trials, 7,
    )


# name: (fields in order, factory of one instance per argument, two arguments
# that give unequal instances; None where the type has one value only)
TYPES = {
    "BitString": (("bit_len", "value"), lambda a: BitString(8, a), (5, 6)),
    "SparseState": (("bit_len", "terms"), lambda a: _state(a), ((1, 2), (1, 3))),
    "TcfParams": (("bit_len",), lambda a: TcfParams(a), (8, 9)),
    "TcfOracle": (
        ("params", "salt", "shift"), lambda a: _oracle(TcfOracle, a), (3, 4)
    ),
    "TcfKeyPair": (
        ("params", "salt", "shift"), lambda a: _oracle(TcfKeyPair, a), (3, 4)
    ),
    "Ciphertext": (("key_tag", "body"), lambda a: Ciphertext(b"t", a), (b"x", b"y")),
    "BinaryTcf": ((), lambda a: BinaryTcf(), None),
    "NarySymmetric": (("k",), lambda a: NarySymmetric(a), (3, 4)),
    "SealPackage.binary": (
        ("mode", "bit_len", "register", "tcf", "ciphertexts"),
        lambda a: _binary(a)[0],
        (0, 1),
    ),
    "SealPackage.nary": (
        ("mode", "bit_len", "register", "tcf", "ciphertexts"),
        lambda a: _nary(a)[0],
        (0, 1),
    ),
    "AliceSecret.binary": (
        ("mode", "secret", "branches", "trapdoor", "original_state"),
        lambda a: _binary(a)[1],
        (0, 1),
    ),
    "AliceSecret.nary": (
        ("mode", "secret", "branches", "trapdoor", "original_state"),
        lambda a: _nary(a)[1],
        (0, 1),
    ),
    "QuantumReturn": (("state",), lambda a: QuantumReturn(_state(a)), ((1,), (2,))),
    "ClassicalReturn": (("mask",), lambda a: ClassicalReturn(BitString(8, a)), (1, 2)),
    "TrialConfig": (
        (
            "mode", "bit_len", "strategy", "return_kind", "verify_method",
            "trials", "seed",
        ),
        _config,
        (10, 20),
    ),
    "EstimateReport": (
        ("statistic", "k", "p_hat", "ci_low", "ci_high", "trials", "p_theory"),
        lambda a: EstimateReport("acceptance", 2, a, 0.25, 0.75, 100, 0.5),
        (0.5, 0.625),
    ),
}

# A SparseState keeps its terms in a mappingproxy, which neither pickle nor
# deepcopy can take; so does every type that holds one.
HOLDS_A_STATE = {
    "SparseState", "SealPackage.binary", "SealPackage.nary",
    "AliceSecret.binary", "AliceSecret.nary", "QuantumReturn",
}


def _example(name):
    fields, make, args = TYPES[name]
    arg = None if args is None else args[0]
    return fields, make(arg), make(arg)


def test_the_table_covers_fourteen_types():
    assert len({name.split(".")[0] for name in TYPES}) == 14


@pytest.mark.parametrize("name", TYPES)
def test_assignment_and_deletion_raise_and_change_nothing(name):
    fields, obj, twin = _example(name)
    shown = repr(obj)
    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert obj == twin and repr(obj) == shown
    assert not hasattr(obj, "not_a_field")


@pytest.mark.parametrize("name", TYPES)
def test_fields_live_in_slots_with_no_instance_dict(name):
    fields, obj, _ = _example(name)
    assert type(obj)._fields == fields
    assert not hasattr(obj, "__dict__")


def test_binary_branch_count_is_a_class_constant_not_a_field():
    mode = BinaryTcf()
    assert mode.k == BinaryTcf.k == 2
    assert BinaryTcf._fields == () and repr(mode) == "BinaryTcf()"
    for change in (lambda: setattr(mode, "k", 3), lambda: delattr(mode, "k")):
        with pytest.raises(AttributeError):
            change()
    assert mode.k == 2 and mode == BinaryTcf()


@pytest.mark.parametrize("name", TYPES)
def test_equal_fields_give_equal_objects_and_hashes(name):
    _, make, args = TYPES[name]
    _, obj, twin = _example(name)
    assert obj is not twin
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin)
    assert len({obj, twin}) == 1
    if args is not None:
        other = make(args[1])
        assert obj != other and not obj == other


@pytest.mark.parametrize(
    "left, right",
    [
        (_oracle(TcfKeyPair, 3), _oracle(TcfOracle, 3)),
        (NarySymmetric(3), TcfParams(3)),
        (QuantumReturn(_state((1,))), ClassicalReturn(BitString(8, 1))),
        (BitString(8, 5), (8, 5)),
    ],
)
def test_another_class_with_the_same_fields_is_never_equal(left, right):
    assert left != right and right != left
    assert not left == right and not right == left


@pytest.mark.parametrize("name", TYPES)
def test_repr_names_the_class_and_every_field_in_order(name):
    fields, obj, _ = _example(name)
    shown = ", ".join(f"{field}={getattr(obj, field)!r}" for field in fields)
    assert repr(obj) == f"{type(obj).__qualname__}({shown})"


def test_repr_literals():
    assert repr(BitString(8, 5)) == "BitString(bit_len=8, value=5)"
    assert repr(BinaryTcf()) == "BinaryTcf()"
    assert repr(NarySymmetric(3)) == "NarySymmetric(k=3)"
    assert repr(Ciphertext(b"t", b"")) == "Ciphertext(key_tag=b't', body=b'')"
    assert repr(_state((1,))) == (
        "SparseState(bit_len=8, terms=mappingproxy("
        "{BitString(bit_len=8, value=1): 1.0}))"
    )


@pytest.mark.parametrize("name", TYPES)
def test_copy_and_pickle_round_trip_where_the_fields_allow(name):
    fields, obj, _ = _example(name)
    copied = copy.copy(obj)
    assert type(copied) is type(obj) and copied == obj
    assert [getattr(copied, f) for f in fields] == [getattr(obj, f) for f in fields]
    if name in HOLDS_A_STATE:
        with pytest.raises(TypeError):
            copy.deepcopy(obj)
        with pytest.raises(TypeError):
            pickle.dumps(obj)
        return
    for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and clone == obj
        assert hash(clone) == hash(obj)
