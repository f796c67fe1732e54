"""Document envelope, amplitude codec, and exact round trips."""

from __future__ import annotations

import copy
import json
import math
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qseal import documents
from qseal.bits import BitString
from qseal.errors import DocumentError
from qseal.seal import (
    CheatStrategy,
    ClassicalReturn,
    QuantumReturn,
    ReturnKind,
    alice_seal_binary,
    alice_seal_nary,
    bob_respond,
)
from qseal.sparsestate import SparseState, uniform_superposition
from qseal.tcf import TcfParams


def binary_pair(seed: int = 0):
    return alice_seal_binary(TcfParams(16), Random(seed))


def nary_pair(k: int = 3, seed: int = 0):
    return alice_seal_nary(k, b"classified", 16, Random(seed))


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_canonical_rendering(self):
        package, _ = binary_pair()
        text = documents.package_to_document(package)
        assert text.endswith("\n")
        body = text[:-1]
        assert "\n" not in body and ": " not in body and ", " not in body
        parsed = json.loads(body)
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == body

    def test_rejects_bad_json(self):
        with pytest.raises(DocumentError):
            documents.parse_document("{not json", documents.KIND_PACKAGE)

    def test_rejects_wrong_version(self):
        text = json.dumps(
            {"format_version": 2, "kind": "seal_package", "payload": {}}
        )
        with pytest.raises(DocumentError):
            documents.parse_document(text)

    def test_rejects_unknown_kind(self):
        text = json.dumps({"format_version": 1, "kind": "bogus", "payload": {}})
        with pytest.raises(DocumentError):
            documents.parse_document(text)

    def test_rejects_kind_mismatch(self):
        package, _ = binary_pair()
        text = documents.package_to_document(package)
        with pytest.raises(DocumentError):
            documents.parse_document(text, documents.KIND_SECRET)

    def test_rejects_non_object_payload(self):
        text = json.dumps(
            {"format_version": 1, "kind": "seal_package", "payload": []}
        )
        with pytest.raises(DocumentError):
            documents.parse_document(text)

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"kind": "\xff"}',  # not UTF-8
            b'{"format_version": ' + b"1" * 5000 + b"}",  # over-long integer
            b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        ],
        ids=["undecodable", "long-integer", "deep-nesting"],
    )
    def test_rejects_bytes_json_cannot_load(self, raw):
        with pytest.raises(DocumentError):
            documents.parse_document(raw)


# ---------------------------------------------------------------------------
# amplitude codec
# ---------------------------------------------------------------------------


class TestAmplitudes:
    def test_root_form_for_uniform_amplitudes(self):
        for k in (1, 2, 3, 7, 64):
            amp = 1.0 / math.sqrt(k)
            assert documents.encode_amplitude(amp) == ["root", 1, k]
            assert documents.encode_amplitude(-amp) == ["root", -1, k]

    def test_round_trip_is_exact_for_root_form(self):
        for k in range(1, 65):
            amp = 1.0 / math.sqrt(k)
            assert documents.decode_amplitude(documents.encode_amplitude(amp)) == amp

    def test_hex_fallback_round_trips(self):
        value = 0.6
        encoded = documents.encode_amplitude(value)
        assert encoded[0] == "hex"
        assert documents.decode_amplitude(encoded) == value

    def test_rejects_malformed_encodings(self):
        for bad in (
            ["root", 2, 4],
            ["root", 1, 0],
            ["hex", "xyz"],
            "0.5",
            0.5,
            [],
            ["root", 1, 10**400],  # overflows a float
            ["hex", "0x1p99999"],  # overflows a float
        ):
            with pytest.raises(DocumentError):
                documents.decode_amplitude(bad)

    @given(
        st.floats(
            min_value=-1.0,
            max_value=1.0,
            allow_nan=False,
            allow_infinity=False,
            exclude_min=False,
        ).filter(lambda x: x != 0.0)
    )
    @settings(max_examples=200)
    def test_codec_is_lossless_for_any_amplitude(self, amp):
        assert documents.decode_amplitude(documents.encode_amplitude(amp)) == amp


# ---------------------------------------------------------------------------
# JSON integers: true, false and 1.0 compare equal to ints but are not ints
# ---------------------------------------------------------------------------


class TestJsonIntegers:
    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_version_must_be_an_integer(self, version):
        text = json.dumps(
            {"format_version": version, "kind": "seal_package", "payload": {}}
        )
        with pytest.raises(DocumentError, match="format_version"):
            documents.parse_document(text)

    @pytest.mark.parametrize(
        "amplitude",
        [["root", True, 1], ["root", 1.0, 1], ["root", -1.0, 1], ["root", 1, True]],
        ids=["sign-true", "sign-float", "negative-sign-float", "root-true"],
    )
    def test_amplitude_sign_and_root_must_be_integers(self, amplitude):
        with pytest.raises(DocumentError, match="amplitude encoding"):
            documents.decode_amplitude(amplitude)
        payload = {"bit_len": 8, "terms": [["01", amplitude]]}
        with pytest.raises(DocumentError, match="amplitude encoding"):
            documents.state_from_payload(payload)


# ---------------------------------------------------------------------------
# state payloads
# ---------------------------------------------------------------------------


class TestStates:
    def test_round_trip_uniform(self):
        state = uniform_superposition([BitString(12, v) for v in (1, 100, 2000)])
        assert documents.state_from_payload(documents.state_to_payload(state)) == state

    def test_round_trip_signed(self):
        amp = 1.0 / math.sqrt(2.0)
        state = SparseState(8, {BitString(8, 1): amp, BitString(8, 2): -amp})
        assert documents.state_from_payload(documents.state_to_payload(state)) == state

    def test_rejects_duplicate_terms(self):
        payload = {
            "bit_len": 8,
            "terms": [["01", ["root", 1, 2]], ["01", ["root", 1, 2]]],
        }
        with pytest.raises(DocumentError):
            documents.state_from_payload(payload)

    def test_rejects_denormalized_states(self):
        payload = {"bit_len": 8, "terms": [["01", ["root", 1, 2]]]}
        with pytest.raises(DocumentError):
            documents.state_from_payload(payload)

    def test_rejects_bad_hex_width(self):
        payload = {"bit_len": 8, "terms": [["001", ["root", 1, 1]]]}
        with pytest.raises(DocumentError):
            documents.state_from_payload(payload)

    @pytest.mark.parametrize("amp", [["hex", "nan"], ["hex", "inf"]])
    def test_rejects_non_finite_amplitudes(self, amp):
        payload = {"bit_len": 8, "terms": [["01", amp]]}
        with pytest.raises(DocumentError):
            documents.state_from_payload(payload)
        payload["terms"].append(["02", ["root", 1, 1]])
        with pytest.raises(DocumentError):
            documents.state_from_payload(payload)


# ---------------------------------------------------------------------------
# protocol document round trips
# ---------------------------------------------------------------------------


class TestRoundTrips:
    def test_binary_package(self):
        package, _ = binary_pair()
        payload = documents.parse_document(
            documents.package_to_document(package), documents.KIND_PACKAGE
        )
        decoded = documents.package_from_payload(payload)
        assert decoded == package
        assert decoded.tcf == package.tcf
        assert (decoded.tcf.params, decoded.tcf.salt, decoded.tcf.shift) == (
            package.tcf.params, package.tcf.salt, package.tcf.shift
        )

    def test_nary_package(self):
        package, _ = nary_pair(k=4)
        payload = documents.parse_document(
            documents.package_to_document(package), documents.KIND_PACKAGE
        )
        assert documents.package_from_payload(payload) == package

    def test_secret_records(self):
        for _, record in (binary_pair(seed=3), nary_pair(k=2, seed=3)):
            payload = documents.parse_document(
                documents.secret_to_document(record), documents.KIND_SECRET
            )
            assert documents.secret_from_payload(payload) == record

    def test_return_messages(self):
        package, _ = binary_pair(seed=4)
        quantum = bob_respond(
            package, CheatStrategy.MEASURE_KEEP, ReturnKind.QUANTUM, Random(5)
        )
        classical = bob_respond(
            package, CheatStrategy.HONEST, ReturnKind.CLASSICAL, Random(6)
        )
        for message in (quantum, classical):
            payload = documents.parse_document(
                documents.return_to_document(message), documents.KIND_RETURN
            )
            assert documents.return_from_payload(payload) == message

    def test_return_kind_shapes(self):
        assert isinstance(
            documents.return_from_payload(
                {"return_kind": "classical", "bit_len": 8, "mask": "0f"}
            ),
            ClassicalReturn,
        )
        state = uniform_superposition([BitString(8, 1), BitString(8, 2)])
        assert isinstance(
            documents.return_from_payload(
                {"return_kind": "quantum", "state": documents.state_to_payload(state)}
            ),
            QuantumReturn,
        )

    def test_tampered_register_is_rejected_on_load(self):
        package, _ = binary_pair(seed=7)
        text = documents.package_to_document(package)
        doc = json.loads(text)
        # Swap one register branch for a stranger: no longer a claw.
        terms = doc["payload"]["register"]["terms"]
        original = terms[0][0]
        replacement = format((int(original, 16) ^ 0x0001), "04x")
        values = {entry[0] for entry in terms}
        if replacement in values:  # pragma: no cover
            replacement = format((int(original, 16) ^ 0x0003), "04x")
        terms[0][0] = replacement
        with pytest.raises(DocumentError):
            documents.package_from_payload(
                documents.parse_document(json.dumps(doc), documents.KIND_PACKAGE)
            )

    def test_missing_fields_are_named(self):
        with pytest.raises(DocumentError, match="bit_len"):
            documents.state_from_payload({"terms": []})

    def test_report_document_shape(self):
        from qseal.experiment import EstimateReport

        report = EstimateReport(
            statistic="detection", k=2, p_hat=0.8536, ci_low=0.8514,
            ci_high=0.8557, trials=100_000, p_theory=0.853553,
        )
        text = documents.report_to_document(report, {"experiment": "run_trials"})
        payload = documents.parse_document(text, documents.KIND_REPORT)
        assert payload["p_hat"] == 0.8536
        assert payload["experiment"] == "run_trials"
        assert "k" not in payload


# ---------------------------------------------------------------------------
# the decode boundary
# ---------------------------------------------------------------------------

DECODERS = {
    "state": documents.state_from_payload,
    "package": documents.package_from_payload,
    "secret": documents.secret_from_payload,
    "return": documents.return_from_payload,
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _valid_payloads() -> dict[str, list[dict]]:
    binary_package, binary_record = binary_pair(seed=1)
    nary_package, nary_record = nary_pair(k=3, seed=1)
    returns = [
        bob_respond(binary_package, CheatStrategy.HONEST, kind, Random(2))
        for kind in ReturnKind
    ]

    def payload(text: str) -> dict:
        return json.loads(text)["payload"]

    return {
        "state": [documents.state_to_payload(binary_package.register)],
        "package": [
            payload(documents.package_to_document(p))
            for p in (binary_package, nary_package)
        ],
        "secret": [
            payload(documents.secret_to_document(r))
            for r in (binary_record, nary_record)
        ],
        "return": [payload(documents.return_to_document(m)) for m in returns],
    }


VALID = _valid_payloads()


def _paths(value, prefix=()):
    """Every position inside a JSON value, as a tuple of keys and indices."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


@st.composite
def damaged(draw, decoder: str):
    """A valid payload with one position replaced by an arbitrary JSON value."""
    payload = copy.deepcopy(draw(st.sampled_from(VALID[decoder])))
    path = draw(st.sampled_from(list(_paths(payload))))
    # Near misses (small widths and counts, hex of any length) get past the
    # type checks and into the library constructors.
    replacement = draw(
        json_values | st.integers(-2, 70) | st.text("0123456789abcdef", max_size=36)
    )
    if not path:
        return replacement
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = replacement
    return payload


class TestDecodeBoundary:
    """Any JSON value given to a decoder decodes or raises DocumentError."""

    @pytest.mark.parametrize("decoder", sorted(DECODERS))
    @pytest.mark.parametrize("payload", [None, 3, "text", [], [{}]])
    def test_non_object_payloads_are_document_errors(self, decoder, payload):
        with pytest.raises(DocumentError):
            DECODERS[decoder](payload)

    @pytest.mark.parametrize("decoder", sorted(DECODERS))
    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_json_value_decodes_or_is_a_document_error(self, decoder, data):
        payload = data.draw(json_values | damaged(decoder))
        try:
            DECODERS[decoder](payload)
        except DocumentError:
            pass


# ---------------------------------------------------------------------------
# canonical hex and the sealed-register rule on input
# ---------------------------------------------------------------------------


def _spaced(text: str) -> str:
    return text[:2] + " " + text[2:]


def _at(payload: dict, path: tuple) -> tuple[dict, object]:
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    return parent, path[-1]


class TestCanonicalInput:
    @pytest.mark.parametrize(
        "decoder, index, path, rewrite",
        [
            ("state", 0, ("terms", 1, 0), str.upper),
            ("package", 0, ("register", "terms", 1, 0), str.upper),
            ("package", 0, ("tcf", "salt"), str.upper),
            ("package", 0, ("tcf", "salt"), _spaced),
            ("package", 0, ("tcf", "shift"), str.upper),
            ("package", 1, ("ciphertexts", 0, "key_tag"), _spaced),
            ("package", 1, ("ciphertexts", 2, "body"), str.upper),
            ("secret", 0, ("secret",), _spaced),
            ("secret", 0, ("branches", 1), str.upper),
            ("secret", 0, ("trapdoor",), str.upper),
            ("secret", 1, ("original_state", "terms", 2, 0), str.upper),
            ("return", 1, ("mask",), str.upper),
        ],
    )
    def test_non_canonical_hex_is_a_document_error(
        self, decoder, index, path, rewrite
    ):
        payload = copy.deepcopy(VALID[decoder][index])
        DECODERS[decoder](payload)
        parent, key = _at(payload, path)
        rewritten = rewrite(parent[key])
        assert rewritten != parent[key]
        parent[key] = rewritten
        with pytest.raises(DocumentError, match="canonical"):
            DECODERS[decoder](payload)

    @pytest.mark.parametrize("index", [0, 1], ids=["binary", "nary"])
    def test_wrong_trapdoor_is_a_document_error(self, index):
        payload = copy.deepcopy(VALID["secret"][index])
        payload["trapdoor"] = "0001"
        with pytest.raises(DocumentError, match="trapdoor"):
            documents.secret_from_payload(payload)

    def test_nary_secret_without_trapdoor_field_loads(self):
        payload = copy.deepcopy(VALID["secret"][1])
        del payload["trapdoor"]
        assert documents.secret_from_payload(payload).trapdoor is None

    @pytest.mark.parametrize(
        "decoder, path",
        [
            ("package", ("register", "terms", 1, 1)),
            ("secret", ("original_state", "terms", 1, 1)),
        ],
    )
    def test_sign_flipped_binary_register_is_a_document_error(self, decoder, path):
        payload = copy.deepcopy(VALID[decoder][0])
        parent, key = _at(payload, path)
        assert parent[key] == ["root", 1, 2]
        parent[key] = ["root", -1, 2]
        with pytest.raises(DocumentError, match="1/sqrt"):
            DECODERS[decoder](payload)
