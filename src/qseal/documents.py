"""Canonical JSON documents for the CLI's file exchange.

Every file is one JSON object {"format_version": 1, "kind": ..., "payload":
...} rendered with sorted keys and no insignificant whitespace, so equal
inputs produce byte-identical files.  Bit strings (fixed-width) and bytes
travel as lowercase hex, and only that canonical form is accepted on input;
amplitudes travel in an exact form: ["root", p, q] meaning p/sqrt(q), with a
hex-float fallback for anything else.  Round-tripping a document reproduces
the in-memory value exactly.

A binary package document embeds the whole committed function instance
(salt and shift) because the reader must be able to evaluate it; see the
function-family module for why evaluation is oracle-style here.  Its
"image_bits" is always 256: images are whole SHA-256 digests.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, Callable, TypeVar

from .bits import BitString
from .errors import DocumentError, InvalidInputError, ProtocolCorruptionError
from .sparsestate import SparseState
from .seal import (
    AliceSecret,
    BinaryTcf,
    ClassicalReturn,
    NarySymmetric,
    QuantumReturn,
    ReturnMessage,
    SealMode,
    SealPackage,
)
from .symcrypto import Ciphertext
from .tcf import IMAGE_BITS, TcfOracle, TcfParams

FORMAT_VERSION = 1

KIND_PACKAGE = "seal_package"
KIND_SECRET = "alice_secret"
KIND_RETURN = "return_message"
KIND_REPORT = "report"

_KINDS = (KIND_PACKAGE, KIND_SECRET, KIND_RETURN, KIND_REPORT)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def _is_int(value: Any) -> bool:
    """A JSON integer: true, false and 1.0 compare equal to ints but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def dumps_document(kind: str, payload: dict[str, Any]) -> str:
    if kind not in _KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_document(
    text: str | bytes, expected_kind: str | None = None
) -> dict[str, Any]:
    """Check the envelope and return the payload."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Undecodable bytes, bad syntax, over-long integers, deep nesting.
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    version = doc.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise DocumentError(f"expected a {expected_kind} document, got {kind}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DocumentError("payload must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


def encode_amplitude(amp: float) -> list[Any]:
    square = amp * amp
    if math.isfinite(amp) and square > 0.0 and math.isfinite(1.0 / square):
        root = round(1.0 / square)
        if root >= 1:
            candidate = math.copysign(1.0 / math.sqrt(root), amp)
            if candidate == amp:
                return ["root", -1 if amp < 0 else 1, root]
    return ["hex", amp.hex()]


def decode_amplitude(value: Any) -> float:
    try:
        if (
            isinstance(value, list)
            and len(value) == 3
            and value[0] == "root"
            and _is_int(value[1])
            and value[1] in (-1, 1)
            and _is_int(value[2])
            and value[2] >= 1
        ):
            return value[1] / math.sqrt(value[2])
        if (
            isinstance(value, list)
            and len(value) == 2
            and value[0] == "hex"
            and isinstance(value[1], str)
        ):
            return float.fromhex(value[1])
    except (ValueError, OverflowError) as exc:
        raise DocumentError(f"bad amplitude {value!r}: {exc}") from exc
    raise DocumentError(f"bad amplitude encoding {value!r}")


def _require(payload: dict[str, Any], field: str, kind: type) -> Any:
    if field not in payload:
        raise DocumentError(f"missing field {field!r}")
    value = payload[field]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise DocumentError(f"field {field!r} must be {kind.__name__}")
    return value


def _bitstring_from_hex(bit_len: int, text: Any, field: str) -> BitString:
    if not isinstance(text, str):
        raise DocumentError(f"field {field!r} must be a hex string")
    return BitString.from_hex(bit_len, text)


def _bytes_from_hex(payload: dict[str, Any], field: str) -> bytes:
    text = _require(payload, field, str)
    # Only what bytes.hex() writes: fromhex also takes spaces and uppercase.
    if len(text) % 2 or text.strip("0123456789abcdef"):
        raise DocumentError(f"field {field!r} is not canonical lowercase hex")
    return bytes.fromhex(text)


_Decoded = TypeVar("_Decoded")


def _boundary(
    decode: Callable[[dict[str, Any]], _Decoded],
) -> Callable[[Any], _Decoded]:
    """Decode boundary of a public ``*_from_payload``.

    The payload must be a JSON object, and a value the library constructors
    reject (they raise only InvalidInputError or ProtocolCorruptionError)
    surfaces as DocumentError, the one error a malformed document raises.
    """
    what = decode.__name__.removesuffix("_from_payload")

    @functools.wraps(decode)
    def checked(payload: Any) -> _Decoded:
        if not isinstance(payload, dict):
            raise DocumentError(f"{what} payload must be a JSON object")
        try:
            return decode(payload)
        except (InvalidInputError, ProtocolCorruptionError) as exc:
            raise DocumentError(f"invalid {what}: {exc}") from exc

    return checked


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def state_to_payload(state: SparseState) -> dict[str, Any]:
    return {
        "bit_len": state.bit_len,
        "terms": [
            [key.hex(), encode_amplitude(amp)] for key, amp in state.terms.items()
        ],
    }


@_boundary
def state_from_payload(payload: dict[str, Any]) -> SparseState:
    bit_len = _require(payload, "bit_len", int)
    terms_field = _require(payload, "terms", list)
    terms: dict[BitString, float] = {}
    for item in terms_field:
        if not isinstance(item, list) or len(item) != 2:
            raise DocumentError("each state term must be a [hex, amplitude] pair")
        key = _bitstring_from_hex(bit_len, item[0], "terms")
        if key in terms:
            raise DocumentError(f"duplicate state term {item[0]}")
        terms[key] = decode_amplitude(item[1])
    return SparseState(bit_len, terms)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _mode_fields(mode: SealMode) -> dict[str, Any]:
    if isinstance(mode, BinaryTcf):
        return {"mode": "binary"}
    return {"mode": "nary", "k": mode.k}


def _mode_from_payload(payload: dict[str, Any]) -> SealMode:
    name = _require(payload, "mode", str)
    if name == "binary":
        return BinaryTcf()
    if name == "nary":
        return NarySymmetric(_require(payload, "k", int))
    raise DocumentError(f"unknown mode {name!r}")


# ---------------------------------------------------------------------------
# package
# ---------------------------------------------------------------------------


def package_to_document(package: SealPackage) -> str:
    payload: dict[str, Any] = {
        **_mode_fields(package.mode),
        "bit_len": package.bit_len,
        "register": state_to_payload(package.register),
    }
    if package.tcf is not None:
        tcf = package.tcf
        payload["tcf"] = {
            "bit_len": tcf.params.bit_len,
            "image_bits": IMAGE_BITS,
            "salt": tcf.salt.hex(),
            "shift": tcf.shift.hex(),
        }
    if package.ciphertexts is not None:
        payload["ciphertexts"] = [
            {"key_tag": ct.key_tag.hex(), "body": ct.body.hex()}
            for ct in package.ciphertexts
        ]
    return dumps_document(KIND_PACKAGE, payload)


@_boundary
def package_from_payload(payload: dict[str, Any]) -> SealPackage:
    mode = _mode_from_payload(payload)
    bit_len = _require(payload, "bit_len", int)
    register = state_from_payload(_require(payload, "register", dict))
    tcf = None
    ciphertexts = None
    if isinstance(mode, BinaryTcf):
        entry = _require(payload, "tcf", dict)
        params = TcfParams(_require(entry, "bit_len", int))
        if _require(entry, "image_bits", int) != IMAGE_BITS:
            raise DocumentError(f"field 'image_bits' must be {IMAGE_BITS}")
        shift = _bitstring_from_hex(
            params.bit_len, _require(entry, "shift", str), "shift"
        )
        tcf = TcfOracle(params, _bytes_from_hex(entry, "salt"), shift)
    else:
        entries = _require(payload, "ciphertexts", list)
        collected = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise DocumentError("each ciphertext must be a JSON object")
            collected.append(
                Ciphertext(
                    _bytes_from_hex(entry, "key_tag"), _bytes_from_hex(entry, "body")
                )
            )
        ciphertexts = tuple(collected)
    return SealPackage(
        mode=mode,
        bit_len=bit_len,
        register=register,
        tcf=tcf,
        ciphertexts=ciphertexts,
    )


# ---------------------------------------------------------------------------
# secret record
# ---------------------------------------------------------------------------


def secret_to_document(record: AliceSecret) -> str:
    payload: dict[str, Any] = {
        **_mode_fields(record.mode),
        "bit_len": record.bit_len,
        "secret": record.secret.hex(),
        "branches": [branch.hex() for branch in record.branches],
        "trapdoor": record.trapdoor.hex() if record.trapdoor else None,
        "original_state": state_to_payload(record.original_state),
    }
    return dumps_document(KIND_SECRET, payload)


@_boundary
def secret_from_payload(payload: dict[str, Any]) -> AliceSecret:
    mode = _mode_from_payload(payload)
    bit_len = _require(payload, "bit_len", int)
    branches_field = _require(payload, "branches", list)
    branches = tuple(
        _bitstring_from_hex(bit_len, item, "branches") for item in branches_field
    )
    trapdoor_field = payload.get("trapdoor")
    trapdoor = (
        _bitstring_from_hex(bit_len, trapdoor_field, "trapdoor")
        if trapdoor_field is not None
        else None
    )
    return AliceSecret(
        mode=mode,
        secret=_bytes_from_hex(payload, "secret"),
        branches=branches,
        trapdoor=trapdoor,
        original_state=state_from_payload(_require(payload, "original_state", dict)),
    )


# ---------------------------------------------------------------------------
# return messages and reports
# ---------------------------------------------------------------------------


def return_to_document(message: ReturnMessage) -> str:
    if isinstance(message, QuantumReturn):
        payload: dict[str, Any] = {
            "return_kind": "quantum",
            "state": state_to_payload(message.state),
        }
    else:
        payload = {
            "return_kind": "classical",
            "bit_len": message.mask.bit_len,
            "mask": message.mask.hex(),
        }
    return dumps_document(KIND_RETURN, payload)


@_boundary
def return_from_payload(payload: dict[str, Any]) -> ReturnMessage:
    kind = _require(payload, "return_kind", str)
    if kind == "quantum":
        return QuantumReturn(state_from_payload(_require(payload, "state", dict)))
    if kind == "classical":
        bit_len = _require(payload, "bit_len", int)
        return ClassicalReturn(
            _bitstring_from_hex(bit_len, _require(payload, "mask", str), "mask")
        )
    raise DocumentError(f"unknown return kind {kind!r}")


def report_to_document(report: Any, context: dict[str, Any]) -> str:
    """Report payload: the estimate fields plus caller-provided context."""
    payload = {
        "statistic": report.statistic,
        "p_hat": report.p_hat,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "trials": report.trials,
        "p_theory": report.p_theory,
        **context,
    }
    return dumps_document(KIND_REPORT, payload)
