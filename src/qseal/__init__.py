"""Quantum seal protocol simulator.

Seal a secret into a sparse superposition register, let the holder open it
with one measurement, and quantify how reliably tampering is caught when
the register (or a measurement of it) comes back for verification.
"""

from .bits import BitString
from .errors import (
    DocumentError,
    InvalidInputError,
    ProtocolCorruptionError,
    QsealError,
    UnsupportedModeError,
)
from .experiment import (
    EstimateReport,
    TrialConfig,
    curve_csv,
    fig1_curve,
    mixture_diagnostic,
    run_trials,
    theory_pcheck,
    wilson_interval,
)
from .seal import (
    AliceSecret,
    BinaryTcf,
    CheatStrategy,
    ClassicalReturn,
    NarySymmetric,
    QuantumReturn,
    ReturnKind,
    ReturnMessage,
    SealMode,
    SealPackage,
    VerifyMethod,
    alice_seal_binary,
    alice_seal_nary,
    alice_verify_classical,
    alice_verify_quantum,
    bob_open,
    bob_respond,
)
from .sparsestate import (
    SparseState,
    hadamard_measure,
    inner_product,
    singleton,
    uniform_superposition,
)
from .symcrypto import Ciphertext, enc, find_and_dec, key_tag
from .tcf import TcfOracle, TcfParams, keygen

__version__ = "0.1.0"

__all__ = [
    "AliceSecret",
    "BinaryTcf",
    "BitString",
    "CheatStrategy",
    "Ciphertext",
    "ClassicalReturn",
    "DocumentError",
    "EstimateReport",
    "InvalidInputError",
    "NarySymmetric",
    "ProtocolCorruptionError",
    "QsealError",
    "QuantumReturn",
    "ReturnKind",
    "ReturnMessage",
    "SealMode",
    "SealPackage",
    "SparseState",
    "TcfOracle",
    "TcfParams",
    "TrialConfig",
    "UnsupportedModeError",
    "VerifyMethod",
    "alice_seal_binary",
    "alice_seal_nary",
    "alice_verify_classical",
    "alice_verify_quantum",
    "bob_open",
    "bob_respond",
    "curve_csv",
    "enc",
    "fig1_curve",
    "find_and_dec",
    "hadamard_measure",
    "inner_product",
    "key_tag",
    "keygen",
    "mixture_diagnostic",
    "run_trials",
    "singleton",
    "theory_pcheck",
    "uniform_superposition",
    "wilson_interval",
]
