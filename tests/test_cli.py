"""End-to-end CLI flows, exit codes, and byte-level determinism.

Invocations run in-process through main(argv), except one that runs
``python -m qseal.cli`` in a fresh interpreter.  Exit contract:
0 success/accept, 1 verify reject, 2 usage, 3 bad documents or IO.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qseal.cli import COMMANDS, build_parser, main, parse_args
from qseal.documents import parse_document, KIND_SECRET
from qseal.seal import MAX_BIT_LEN, CheatStrategy, ReturnKind, VerifyMethod

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture()
def binary_files(tmp_path):
    pkg = tmp_path / "package.json"
    sec = tmp_path / "secret.json"
    assert (
        run(
            "seal",
            "--mode",
            "binary",
            "--bits",
            "16",
            "--seed",
            "7",
            "--out-package",
            str(pkg),
            "--out-secret",
            str(sec),
        )
        == 0
    )
    return pkg, sec


@pytest.fixture()
def nary_files(tmp_path):
    pkg = tmp_path / "npackage.json"
    sec = tmp_path / "nsecret.json"
    assert (
        run(
            "seal",
            "--mode",
            "nary",
            "--bits",
            "16",
            "--k",
            "3",
            "--secret",
            "00112233",
            "--seed",
            "11",
            "--out-package",
            str(pkg),
            "--out-secret",
            str(sec),
        )
        == 0
    )
    return pkg, sec


# ---------------------------------------------------------------------------
# seal / open
# ---------------------------------------------------------------------------


class TestSealOpen:
    def test_binary_open_prints_the_recorded_secret(self, binary_files, capsys):
        pkg, sec = binary_files
        assert run("open", "--package", str(pkg), "--seed", "3") == 0
        printed = capsys.readouterr().out.strip()
        payload = parse_document(sec.read_text(), KIND_SECRET)
        assert printed == payload["secret"]

    def test_nary_open_prints_the_sealed_hex(self, nary_files, capsys):
        pkg, _ = nary_files
        assert run("open", "--package", str(pkg), "--seed", "3") == 0
        assert capsys.readouterr().out.strip() == "00112233"

    def test_open_is_seed_stable(self, nary_files, capsys):
        pkg, _ = nary_files
        run("open", "--package", str(pkg), "--seed", "5")
        first = capsys.readouterr().out
        run("open", "--package", str(pkg), "--seed", "5")
        assert capsys.readouterr().out == first

    def test_seal_is_byte_identical_across_reruns(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            pkg = tmp_path / f"p{tag}.json"
            sec = tmp_path / f"s{tag}.json"
            run(
                "seal", "--mode", "nary", "--bits", "12", "--k", "4",
                "--secret", "deadbeef", "--seed", "21",
                "--out-package", str(pkg), "--out-secret", str(sec),
            )
            outs.append((pkg.read_bytes(), sec.read_bytes()))
        assert outs[0] == outs[1]

    def test_binary_mode_rejects_nary_flags(self, tmp_path):
        args = [
            "seal", "--mode", "binary", "--bits", "16",
            "--out-package", str(tmp_path / "p.json"),
            "--out-secret", str(tmp_path / "s.json"),
        ]
        assert run(*args, "--secret", "aa") == 2
        assert run(*args, "--k", "2") == 2

    def test_nary_mode_requires_its_flags(self, tmp_path):
        base = [
            "seal", "--mode", "nary", "--bits", "16",
            "--out-package", str(tmp_path / "p.json"),
            "--out-secret", str(tmp_path / "s.json"),
        ]
        assert run(*base, "--k", "3") == 2  # missing --secret
        assert run(*base, "--secret", "aa") == 2  # missing --k
        assert run(*base, "--k", "3", "--secret", "zz") == 2  # not hex
        assert run(*base, "--k", "3", "--secret=") == 2  # empty
        assert run(*base, "--k", "70", "--secret", "aa") == 2  # k out of range
        assert list(tmp_path.iterdir()) == []

    def test_width_validation_flows_to_exit_two(self, tmp_path):
        assert (
            run(
                "seal", "--mode", "binary", "--bits", "1",
                "--out-package", str(tmp_path / "p.json"),
                "--out-secret", str(tmp_path / "s.json"),
            )
            == 2
        )

    @pytest.mark.parametrize(
        "package, secret",
        [("x.json", "./x.json"), ("x.json", "sub/../x.json"), ("x.json", "link.json")],
    )
    def test_one_path_for_both_outputs_is_usage_error(
        self, tmp_path, monkeypatch, capsys, package, secret
    ):
        """Two names for one file would let the record overwrite the
        package; seal refuses before it draws or writes anything."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(tmp_path / "x.json")
        drawn = []
        monkeypatch.setattr("qseal.cli.Random", lambda seed: drawn.append(seed))
        code = run(
            "seal", "--mode", "nary", "--bits", "16", "--k", "4",
            "--secret", "00ff", "--out-package", package, "--out-secret", secret,
        )
        assert code == 2
        assert "same file" in capsys.readouterr().err
        assert drawn == [] and not (tmp_path / "x.json").exists()

    def test_new_outputs_resolve_no_path(self, tmp_path, monkeypatch):
        """Two missing outputs that are no links and end in different names
        are two files, known without os.path.realpath.  One final name in
        two directories still takes realpath, which tells them apart."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        seal = (
            "seal", "--mode", "nary", "--bits", "16", "--k", "4", "--secret", "00ff"
        )

        def refuse(path):
            raise AssertionError(f"realpath({path!r})")

        with monkeypatch.context() as patch:
            patch.setattr("qseal.cli.os.path.realpath", refuse)
            code = run(*seal, "--out-package", "p.json", "--out-secret", "sub/s.json")
        assert code == 0 and (tmp_path / "sub" / "s.json").exists()
        assert run(*seal, "--out-package", "x.json", "--out-secret", "sub/x.json") == 0
        assert (tmp_path / "x.json").exists() and (tmp_path / "sub" / "x.json").exists()

    def test_failed_record_write_removes_the_package(self, tmp_path, capsys):
        """A package is never left without its secret record."""
        pkg = tmp_path / "p.json"
        code = run(
            "seal", "--mode", "binary", "--bits", "16",
            "--out-package", str(pkg),
            "--out-secret", str(tmp_path / "nonexist" / "s.json"),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @given(
        mode_k=st.one_of(
            st.just(("binary", None)),
            st.tuples(st.just("nary"), st.integers(min_value=2, max_value=64)),
            st.tuples(
                st.sampled_from(["binary", "nary"]),
                st.none() | st.integers(min_value=1, max_value=65),
            ),
        ),
        bits=st.one_of(
            st.integers(min_value=-1, max_value=1100),
            st.integers(min_value=2, max_value=128),
            st.integers(min_value=MAX_BIT_LEN - 2, max_value=MAX_BIT_LEN + 2),
            st.integers(min_value=2**31),
        ),
        secret=st.none() | st.sampled_from(["", "ab", "00112233", "zz", "abc"]),
        seed=st.sampled_from([0, 1, 2**63, -(2**63) - 1]),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_no_traceback(self, mode_k, bits, secret, seed):
        """Every seal request either writes both documents (0) or is a usage
        error (2), also for widths past MAX_BIT_LEN."""
        mode, k = mode_k
        with tempfile.TemporaryDirectory() as out:
            pkg, sec = Path(out, "p.json"), Path(out, "s.json")
            argv = [
                "seal", "--mode", mode, "--bits", str(bits), f"--seed={seed}",
                "--out-package", str(pkg), "--out-secret", str(sec),
            ]
            argv += [] if k is None else ["--k", str(k)]
            argv += [] if secret is None else [f"--secret={secret}"]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2), argv
            assert (code == 0) == (pkg.exists() and sec.exists()), argv

    def test_open_missing_file_is_io_error(self, tmp_path):
        assert run("open", "--package", str(tmp_path / "nope.json")) == 3

    def test_open_corrupt_file_is_integrity_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert run("open", "--package", str(bad)) == 3

    def test_open_wrong_kind_is_integrity_error(self, binary_files):
        _, sec = binary_files
        assert run("open", "--package", str(sec)) == 3

    @pytest.mark.parametrize(
        "amplitude",
        [["root", 1, 10**400], ["hex", "0x1p99999"], ["hex", "nan"]],
        ids=["root-overflow", "hex-overflow", "nan"],
    )
    def test_open_unusable_amplitude_is_integrity_error(
        self, binary_files, tmp_path, capsys, amplitude
    ):
        pkg, _ = binary_files
        doc = json.loads(pkg.read_text())
        doc["payload"]["register"]["terms"][0][1] = amplitude
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("open", "--package", str(bad)) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_open_non_integer_version_is_integrity_error(
        self, binary_files, tmp_path, capsys, version
    ):
        pkg, _ = binary_files
        doc = json.loads(pkg.read_text())
        doc["format_version"] = version
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("open", "--package", str(bad)) == 3
        assert "format_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "amplitude",
        [["root", True, 2], ["root", 1.0, 2], ["root", 1, True]],
        ids=["sign-true", "sign-float", "root-true"],
    )
    def test_open_non_integer_amplitude_is_integrity_error(
        self, binary_files, tmp_path, capsys, amplitude
    ):
        pkg, _ = binary_files
        doc = json.loads(pkg.read_text())
        assert doc["payload"]["register"]["terms"][0][1] == ["root", 1, 2]
        doc["payload"]["register"]["terms"][0][1] = amplitude
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("open", "--package", str(bad)) == 3
        assert "amplitude encoding" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, rewrite",
        [
            (("register", "terms", 0, 0), lambda text: "+" + text[1:]),
            (("register", "terms", 1, 0), str.upper),
            (("tcf", "salt"), lambda text: text[:2] + " " + text[2:]),
            (("tcf", "shift"), str.upper),
        ],
        ids=["signed-key", "uppercase-key", "spaced-salt", "uppercase-shift"],
    )
    def test_open_non_canonical_hex_is_integrity_error(
        self, binary_files, tmp_path, capsys, path, rewrite
    ):
        pkg, _ = binary_files
        doc = json.loads(pkg.read_text())
        parent = doc["payload"]
        for step in path[:-1]:
            parent = parent[step]
        original = parent[path[-1]]
        parent[path[-1]] = rewrite(original)
        assert int(parent[path[-1]].replace(" ", ""), 16) == int(original, 16)
        assert parent[path[-1]] != original
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("open", "--package", str(bad)) == 3
        assert "canonical" in capsys.readouterr().err

    def test_open_oracle_of_another_width_is_integrity_error(
        self, binary_files, tmp_path, capsys
    ):
        # 16-bit branches that differ by the shift of an 8-bit oracle.
        pkg, _ = binary_files
        doc = json.loads(pkg.read_text())
        payload = doc["payload"]
        payload["register"]["terms"][0][0] = "1200"
        payload["register"]["terms"][1][0] = "125a"
        payload["tcf"]["bit_len"] = 8
        payload["tcf"]["shift"] = "5a"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("open", "--package", str(bad)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "width" in err

    @pytest.mark.parametrize("command", ["open", "respond"])
    @pytest.mark.parametrize("image_bits", [64, 128])
    def test_package_with_short_images_is_integrity_error(
        self, binary_files, tmp_path, capsys, command, image_bits
    ):
        # Images are whole SHA-256 digests; a shorter one is not the secret.
        pkg, _ = binary_files
        doc = json.loads(pkg.read_text())
        assert doc["payload"]["tcf"]["image_bits"] == 256
        doc["payload"]["tcf"]["image_bits"] = image_bits
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = ["--package", str(bad)]
        if command == "respond":
            argv += ["--kind", "quantum", "--out", str(tmp_path / "r.json")]
        assert run(command, *argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "image_bits" in captured.err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe\x00garbage", b"1" * 5000, b"[" * 100_000],
        ids=["undecodable", "long-integer", "deep-nesting"],
    )
    def test_open_unloadable_bytes_is_integrity_error(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert run("open", "--package", str(bad)) == 3
        assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# respond / verify
# ---------------------------------------------------------------------------


class TestRespondVerify:
    def test_honest_quantum_round_trip_accepts(self, binary_files, tmp_path, capsys):
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        assert (
            run(
                "respond", "--package", str(pkg), "--strategy", "honest",
                "--kind", "quantum", "--seed", "1", "--out", str(ret),
            )
            == 0
        )
        for method in ("projective", "helstrom"):
            code = run(
                "verify", "--secret", str(sec), "--return", str(ret),
                "--method", method, "--seed", "2",
            )
            assert code == 0
            assert capsys.readouterr().out.strip() == "accept"

    def test_honest_classical_round_trip_accepts(self, binary_files, tmp_path, capsys):
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg), "--strategy", "honest",
            "--kind", "classical", "--seed", "1", "--out", str(ret),
        )
        assert run("verify", "--secret", str(sec), "--return", str(ret)) == 0
        assert capsys.readouterr().out.strip() == "accept"

    @pytest.mark.parametrize("method", [m.value for m in VerifyMethod])
    def test_classical_return_refuses_a_method(
        self, binary_files, tmp_path, capsys, method
    ):
        # A classical return has one fixed check; --method must not be dropped.
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg), "--strategy", "honest",
            "--kind", "classical", "--seed", "1", "--out", str(ret),
        )
        capsys.readouterr()
        argv = ["verify", "--secret", str(sec), "--return", str(ret)]
        assert run(*argv, "--method", method) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "method" in captured.err

    def test_quantum_return_without_a_method_verifies_projectively(
        self, binary_files, tmp_path, capsys
    ):
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg), "--strategy", "measure-keep",
            "--kind", "quantum", "--seed", "0", "--out", str(ret),
        )
        capsys.readouterr()
        argv = ["verify", "--secret", str(sec), "--return", str(ret)]
        outcomes = []
        for seed in map(str, range(8)):
            code = run(*argv, "--seed", seed)
            printed = capsys.readouterr().out
            assert (code, printed) == (
                run(*argv, "--method", "projective", "--seed", seed),
                capsys.readouterr().out,
            )
            outcomes.append(code)
        assert set(outcomes) == {0, 1}

    def test_measure_keep_is_caught_by_helstrom(self, binary_files, tmp_path, capsys):
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg), "--strategy", "measure-keep",
            "--kind", "quantum", "--seed", "0", "--out", str(ret),
        )
        code = run(
            "verify", "--secret", str(sec), "--return", str(ret),
            "--method", "helstrom", "--seed", "0",
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "reject"

    def test_measure_keep_sometimes_slips_past(self, binary_files, tmp_path):
        # The optimal test still errs at rate 1 - p_check; seed 1 shows it.
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg), "--strategy", "measure-keep",
            "--kind", "quantum", "--seed", "0", "--out", str(ret),
        )
        assert (
            run(
                "verify", "--secret", str(sec), "--return", str(ret),
                "--method", "helstrom", "--seed", "1",
            )
            == 0
        )

    def test_guess_mask_splits_by_respond_seed(self, binary_files, tmp_path):
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        outcomes = {}
        for rseed in (0, 1):
            run(
                "respond", "--package", str(pkg), "--strategy", "measure-guess-d",
                "--kind", "classical", "--seed", str(rseed), "--out", str(ret),
            )
            outcomes[rseed] = run("verify", "--secret", str(sec), "--return", str(ret))
        assert outcomes == {0: 1, 1: 0}

    def test_incompatible_strategy_kind_is_usage_error(self, binary_files, tmp_path):
        pkg, _ = binary_files
        assert (
            run(
                "respond", "--package", str(pkg), "--strategy", "measure-guess-d",
                "--kind", "quantum", "--seed", "0",
                "--out", str(tmp_path / "r.json"),
            )
            == 2
        )
        assert not (tmp_path / "r.json").exists()

    def test_classical_verify_of_three_branch_secret_is_unsupported(
        self, nary_files, binary_files, tmp_path
    ):
        """Neither respond nor verify takes a classical challenge to a
        three-branch seal: respond exits 2 for every strategy, writing no
        file and leaving the package as it was."""
        bpkg, _ = binary_files
        npkg, nsec = nary_files
        sealed = npkg.read_bytes()
        ret = tmp_path / "ret.json"
        for strategy in CheatStrategy:
            assert run(
                "respond", "--package", str(npkg), "--strategy", strategy.value,
                "--kind", "classical", "--seed", "1", "--out", str(ret),
            ) == 2, strategy
            assert not ret.exists() and npkg.read_bytes() == sealed, strategy
        run(
            "respond", "--package", str(bpkg), "--strategy", "honest",
            "--kind", "classical", "--seed", "1", "--out", str(ret),
        )
        assert run("verify", "--secret", str(nsec), "--return", str(ret)) == 2

    def test_width_mismatch_between_documents_is_usage_error(
        self, binary_files, tmp_path
    ):
        pkg8 = tmp_path / "p8.json"
        sec8 = tmp_path / "s8.json"
        run(
            "seal", "--mode", "binary", "--bits", "8", "--seed", "1",
            "--out-package", str(pkg8), "--out-secret", str(sec8),
        )
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg8), "--strategy", "honest",
            "--kind", "quantum", "--seed", "1", "--out", str(ret),
        )
        _, sec16 = binary_files
        assert run("verify", "--secret", str(sec16), "--return", str(ret)) == 2

    def test_respond_is_byte_identical_across_reruns(self, binary_files, tmp_path):
        pkg, _ = binary_files
        blobs = []
        for tag in ("x", "y"):
            out = tmp_path / f"ret-{tag}.json"
            run(
                "respond", "--package", str(pkg), "--strategy", "measure-keep",
                "--kind", "quantum", "--seed", "9", "--out", str(out),
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "out", ["p.json", "sub/../p.json", "link.json", "hard.json"]
    )
    def test_return_over_its_own_package_is_usage_error(
        self, tmp_path, monkeypatch, capsys, out
    ):
        """Writing the return over the package would destroy the seal, by
        any name: respond refuses before it reads or writes anything."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(tmp_path / "p.json")
        assert run(
            "seal", "--mode", "nary", "--bits", "16", "--k", "4",
            "--secret", "00ff", "--out-package", "p.json", "--out-secret", "s.json",
        ) == 0
        (tmp_path / "hard.json").hardlink_to(tmp_path / "p.json")
        sealed = (tmp_path / "p.json").read_bytes()
        loaded = []
        with monkeypatch.context() as patch:
            patch.setattr("qseal.cli._load", lambda *args: loaded.append(args))
            code = run(
                "respond", "--package", "p.json", "--kind", "quantum", "--out", out
            )
        assert code == 2
        assert "same file" in capsys.readouterr().err
        assert loaded == []
        assert (tmp_path / "p.json").read_bytes() == sealed
        assert run("open", "--package", "p.json") == 0
        assert capsys.readouterr().out == "00ff\n"

    def test_new_return_file_resolves_no_path(
        self, binary_files, tmp_path, monkeypatch
    ):
        """A missing --out beside an existing --package is another file, known
        without os.path.realpath, which would stat every component of both."""
        pkg, _ = binary_files

        def refuse(path):
            raise AssertionError(f"realpath({path!r})")

        with monkeypatch.context() as patch:
            patch.setattr("qseal.cli.os.path.realpath", refuse)
            code = run(
                "respond", "--package", str(pkg), "--kind", "quantum",
                "--out", str(tmp_path / "r.json"),
            )
        assert code == 0

    def test_sign_flipped_documents_are_integrity_errors(
        self, binary_files, tmp_path, capsys
    ):
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg), "--strategy", "honest",
            "--kind", "classical", "--seed", "1", "--out", str(ret),
        )
        flipped = {}
        for name, path, field in (("package", pkg, "register"),
                                  ("secret", sec, "original_state")):
            doc = json.loads(path.read_text())
            terms = doc["payload"][field]["terms"]
            assert terms[1][1] == ["root", 1, 2]
            terms[1][1] = ["root", -1, 2]
            flipped[name] = tmp_path / f"flipped-{name}.json"
            flipped[name].write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("open", "--package", str(flipped["package"])) == 3
        assert (
            run(
                "respond", "--package", str(flipped["package"]),
                "--strategy", "honest", "--kind", "classical", "--seed", "1",
                "--out", str(tmp_path / "r.json"),
            )
            == 3
        )
        assert (
            run("verify", "--secret", str(flipped["secret"]), "--return", str(ret))
            == 3
        )
        assert capsys.readouterr().err.count("1/sqrt(2)") == 3

    def test_wrong_trapdoor_is_rejected_by_verify(self, binary_files, tmp_path):
        pkg, sec = binary_files
        ret = tmp_path / "ret.json"
        run(
            "respond", "--package", str(pkg), "--strategy", "honest",
            "--kind", "classical", "--seed", "1", "--out", str(ret),
        )
        doc = json.loads(sec.read_text())
        trapdoor = int(doc["payload"]["trapdoor"], 16)
        doc["payload"]["trapdoor"] = format(trapdoor ^ 1, "04x")
        bad = tmp_path / "bad-secret.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", "--secret", str(bad), "--return", str(ret)) == 3

    def test_empty_secret_is_rejected_by_verify(self, nary_files, tmp_path, capsys):
        pkg, sec = nary_files
        ret = tmp_path / "ret.json"
        assert (
            run("respond", "--package", str(pkg), "--kind", "quantum", "--out", str(ret))
            == 0
        )
        doc = json.loads(sec.read_text())
        doc["payload"]["secret"] = ""
        bad = tmp_path / "bad-secret.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", "--secret", str(bad), "--return", str(ret)) == 3
        assert "secret must be nonempty bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["open", "respond"])
    def test_unpaired_ciphertext_is_an_integrity_error(
        self, nary_files, tmp_path, capsys, command
    ):
        pkg, _ = nary_files
        doc = json.loads(pkg.read_text())
        entry = doc["payload"]["ciphertexts"][0]
        tag = entry["key_tag"]
        entry["key_tag"] = ("1" if tag[0] == "0" else "0") + tag[1:]
        bad = tmp_path / "unpaired.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["--package", str(bad)]
        if command == "respond":
            argv += ["--kind", "quantum", "--out", str(tmp_path / "r.json")]
        assert run(command, *argv) == 3
        assert "must match exactly one ciphertext" in capsys.readouterr().err

    def test_tampered_package_is_rejected_by_respond(self, binary_files, tmp_path):
        pkg, _ = binary_files
        doc = json.loads(pkg.read_text())
        doc["payload"]["register"]["terms"][0][0] = "0000"
        twisted = tmp_path / "twisted.json"
        twisted.write_text(json.dumps(doc))
        assert (
            run(
                "respond", "--package", str(twisted), "--strategy", "honest",
                "--kind", "quantum", "--seed", "0",
                "--out", str(tmp_path / "r.json"),
            )
            == 3
        )


# ---------------------------------------------------------------------------
# simulate / curve
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_report_line_shape(self, capsys):
        assert (
            run(
                "simulate", "--mode", "binary", "--strategy", "measure-keep",
                "--kind", "quantum", "--method", "helstrom",
                "--trials", "400", "--seed", "3",
            )
            == 0
        )
        line = capsys.readouterr().out.strip()
        assert line.startswith("statistic=detection p_hat=0.")
        assert "p_theory=0.853553" in line

    def test_csv_row(self, tmp_path, capsys):
        csv = tmp_path / "row.csv"
        run(
            "simulate", "--mode", "nary", "--k", "3", "--strategy", "measure-keep",
            "--kind", "quantum", "--method", "helstrom",
            "--trials", "400", "--seed", "3", "--csv", str(csv),
        )
        capsys.readouterr()
        header, row = csv.read_text().strip().splitlines()
        assert header == "k,p_theory,p_hat,ci_low,ci_high,trials"
        fields = row.split(",")
        assert fields[0] == "3"
        assert fields[1] == "0.908248"
        assert fields[5] == "400"

    def test_report_document(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(
            "simulate", "--strategy", "honest", "--kind", "classical",
            "--trials", "200", "--seed", "4", "--out-report", str(out),
        )
        capsys.readouterr()
        payload = parse_document(out.read_text(), "report")
        assert payload["statistic"] == "acceptance"
        assert payload["p_hat"] == 1.0

    @pytest.mark.parametrize(
        "report, mixture",
        [
            ("r.txt", ()), ("sub/../r.txt", ()), ("link.txt", ()),
            ("r.txt", ("--mixture",)),
        ],
        ids=["same", "dotdot", "symlink", "mixture"],
    )
    def test_one_path_for_csv_and_report_is_usage_error(
        self, tmp_path, monkeypatch, capsys, report, mixture
    ):
        """The report would replace the CSV; simulate refuses before it runs
        a trial or writes anything."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.txt").symlink_to(tmp_path / "r.txt")
        ran = []
        for name in ("run_trials", "mixture_diagnostic"):
            monkeypatch.setattr(f"qseal.cli.{name}", lambda *args: ran.append(args))
        code = run(
            "simulate", *mixture, "--trials", "100",
            "--csv", "r.txt", "--out-report", report,
        )
        assert code == 2
        assert "same file" in capsys.readouterr().err
        assert ran == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.txt", "sub"]

    def test_mixture_flag(self, capsys):
        assert run("simulate", "--mixture", "--trials", "2000", "--seed", "5") == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("statistic=discrimination_success")
        assert "p_theory=0.750000" in line

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "binary"],
            ["--mode", "nary"],
            ["--k", "7"],
            ["--strategy", "honest"],
            ["--strategy", "measure-keep"],
            ["--kind", "quantum"],
            ["--method", "helstrom"],
            ["--mode", "nary", "--k", "7", "--strategy", "measure-keep",
             "--method", "helstrom"],
        ],
    )
    def test_mixture_refuses_protocol_flags(self, capsys, flags):
        assert run("simulate", "--mixture", *flags, "--trials", "50") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flags[0] in captured.err

    def test_absent_protocol_flags_take_the_documented_defaults(self, capsys):
        assert run("simulate", "--trials", "40", "--seed", "3") == 0
        implicit = capsys.readouterr().out
        argv = [
            "simulate", "--mode", "binary", "--strategy", "honest",
            "--kind", "quantum", "--method", "projective",
            "--trials", "40", "--seed", "3",
        ]
        assert run(*argv) == 0
        assert capsys.readouterr().out == implicit

    def test_usage_errors(self, capsys):
        assert run("simulate", "--mode", "nary", "--trials", "10") == 2  # no --k
        capsys.readouterr()

    def test_negative_width_is_usage_error(self, capsys):
        for mode in (["--mode", "nary", "--k", "2"], ["--mode", "binary"]):
            assert run("simulate", *mode, "--bits", "-1", "--trials", "10") == 2
        assert run("simulate", "--mixture", "--bits", "-1", "--trials", "10") == 2
        capsys.readouterr()

    def test_classical_run_needs_two_branches(self, tmp_path, capsys):
        """A classical challenge to a seal of three branches is refused, for
        every strategy, before a trial runs or a file is written."""
        csv, report = tmp_path / "c.csv", tmp_path / "r.json"
        for strategy in CheatStrategy:
            assert run(
                "simulate", "--mode", "nary", "--k", "3", "--kind", "classical",
                "--strategy", strategy.value, "--trials", "10",
                "--csv", str(csv), "--out-report", str(report),
            ) == 2, strategy
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_zero_trials_is_usage_error(self, capsys):
        assert run("simulate", "--trials", "0") == 2
        assert run("simulate", "--mixture", "--trials", "0") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["projective", "helstrom"])
    def test_random_state_wider_than_the_float_range(self, capsys, method):
        # 2^1100 has no float; the exact rate rounds to 1.
        argv = [
            "simulate", "--mode", "nary", "--k", "2", "--bits", "1100",
            "--strategy", "measure-random-state", "--method", method,
            "--trials", "3",
        ]
        assert run(*argv) == 0
        assert "p_theory=1.000000" in capsys.readouterr().out

    @given(
        mode_k=st.one_of(
            st.just(("binary", None)),
            st.tuples(st.just("nary"), st.integers(min_value=2, max_value=64)),
            st.tuples(
                st.sampled_from(["binary", "nary"]),
                st.none() | st.integers(min_value=1, max_value=65),
            ),
        ),
        bits=st.one_of(
            st.integers(min_value=-1, max_value=1100),
            st.integers(min_value=3, max_value=128),
            st.integers(min_value=1024, max_value=1100),
            st.integers(min_value=MAX_BIT_LEN - 2, max_value=MAX_BIT_LEN + 2),
            st.integers(min_value=2**31),
        ),
        strategy_kind=st.sampled_from(
            list(product(
                [s.value for s in CheatStrategy], [k.value for k in ReturnKind]
            ))
        ),
        method=st.none() | st.sampled_from([m.value for m in VerifyMethod]),
        trials=st.one_of(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=-1, max_value=3),
        ),
        seed=st.sampled_from([0, 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
        mixture=st.none() | st.integers(min_value=0, max_value=5),
        write=st.booleans(),
    )
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_no_traceback(
        self, mode_k, bits, strategy_kind, method, trials, seed, mixture, write
    ):
        """Every simulate request either runs (0) or is a usage error (2).

        The draws lean towards valid requests, so that most examples reach
        the trials; the widths 1024..1100 have no float 2^bits, and widths
        past MAX_BIT_LEN, 2^31 and up included, are usage errors.  ``mixture``
        None runs the protocol; a count n runs --mixture with the first n
        protocol flags, and any such flag makes it a usage error.  An absent
        --method lets classical runs reach the trials; a given one makes them
        a usage error.
        """
        mode, k = mode_k
        strategy, kind = strategy_kind
        protocol = [
            ["--mode", mode], ["--k", str(k)], ["--strategy", strategy],
            ["--kind", kind], ["--method", method],
        ]
        if method is None:
            del protocol[4]
        if k is None:
            del protocol[1]
        given = protocol if mixture is None else protocol[:mixture]
        argv = [
            "simulate", "--bits", str(bits), "--trials", str(trials),
            f"--seed={seed}", *(part for flag in given for part in flag),
        ]
        argv += [] if mixture is None else ["--mixture"]
        with tempfile.TemporaryDirectory() as out:
            if write:
                argv += ["--csv", str(Path(out, "row.csv"))]
                argv += ["--out-report", str(Path(out, "report.json"))]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 2), argv
        if mixture is not None and given:
            assert code == 2, argv
        if mixture is None and kind == "classical" and method is not None:
            assert code == 2, argv

    @pytest.mark.parametrize("method", [m.value for m in VerifyMethod])
    def test_classical_run_refuses_a_method(self, capsys, method):
        # A classical return has one fixed check; --method must not be dropped.
        argv = [
            "simulate", "--kind", "classical", "--method", method,
            "--trials", "10",
        ]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "method" in captured.err
        assert run(*argv[:3], *argv[5:]) == 0
        assert "statistic=acceptance" in capsys.readouterr().out

    def test_honest_helstrom_combination_accepted(self, capsys):
        assert (
            run(
                "simulate", "--strategy", "honest", "--kind", "quantum",
                "--method", "helstrom", "--trials", "10",
            )
            == 0
        )
        assert "statistic=acceptance p_hat=1.000000" in capsys.readouterr().out


class TestCurve:
    def test_csv_file(self, tmp_path, capsys):
        a = tmp_path / "curve-a.csv"
        run(
            "curve", "--k-max", "4", "--trials", "300", "--seed", "6",
            "--out", str(a),
        )
        assert capsys.readouterr().out == ""
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "k,p_theory,p_hat,ci_low,ci_high,trials"
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4"]

    def test_stdout_mode(self, capsys):
        assert run("curve", "--k-max", "2", "--trials", "100", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert out.startswith("k,p_theory,p_hat")

    def test_k_max_bounds(self):
        assert run("curve", "--k-max", "1", "--trials", "10") == 2
        assert run("curve", "--k-max", "65", "--trials", "10") == 2

    def test_width_and_trial_checks_are_usage_errors(self, capsys):
        assert run("curve", "--k-max", "4", "--bits", "3", "--trials", "10") == 2
        assert run("curve", "--k-max", "2", "--trials", "0") == 2
        capsys.readouterr()

    @given(
        k_max=st.one_of(
            st.integers(min_value=2, max_value=6),
            st.integers(min_value=-1, max_value=65),
        ),
        bits=st.one_of(
            st.integers(min_value=-1, max_value=1100),
            st.integers(min_value=3, max_value=64),
            st.integers(min_value=MAX_BIT_LEN - 2, max_value=MAX_BIT_LEN + 2),
            st.integers(min_value=2**31),
        ),
        trials=st.one_of(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=-1, max_value=3),
        ),
        seed=st.one_of(
            st.sampled_from([2**63 - 1, -(2**63)]),
            st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
        ),
        write=st.booleans(),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_no_traceback(self, k_max, bits, trials, seed, write):
        """Every curve request either runs (0) or is a usage error (2).

        The draws lean towards valid requests, so that many examples reach
        the sweep.  At most three trials per point keep each example short.
        Widths past MAX_BIT_LEN are usage errors.
        """
        argv = [
            "curve", "--k-max", str(k_max), "--bits", str(bits),
            "--trials", str(trials), f"--seed={seed}",
        ]
        with tempfile.TemporaryDirectory() as out:
            if write:
                argv += ["--out", str(Path(out, "curve.csv"))]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 2), argv


MONTE_CARLO_COMMANDS = {
    "simulate": ["simulate", "--trials", "3"],
    "mixture": ["simulate", "--mixture", "--trials", "3"],
    "curve": ["curve", "--k-max", "2", "--trials", "3"],
}


class TestSeedRange:
    """simulate and curve take seeds in [-2^63, 2^63): exit 2 outside."""

    @pytest.mark.parametrize("command", sorted(MONTE_CARLO_COMMANDS))
    @pytest.mark.parametrize("seed, code", [
        (2**63 - 1, 0), (-(2**63), 0), (2**63, 2), (-(2**63) - 1, 2),
    ])
    def test_edges(self, capsys, command, seed, code):
        assert run(*MONTE_CARLO_COMMANDS[command], f"--seed={seed}") == code
        capsys.readouterr()


# The commands that draw random branches of --bits bits, each with the widest
# --bits it takes: a binary branch is at most half the 256-bit claw image.
WIDE_COMMANDS = {
    "seal": (["seal", "--mode", "nary", "--k", "2", "--secret", "ab"], MAX_BIT_LEN),
    "seal-binary": (["seal", "--mode", "binary"], 128),
    "simulate": (
        ["simulate", "--mode", "nary", "--k", "2", "--trials", "2"], MAX_BIT_LEN
    ),
    "simulate-binary": (["simulate", "--mode", "binary", "--trials", "2"], 128),
    "mixture": (["simulate", "--mixture", "--trials", "2"], MAX_BIT_LEN),
    "curve": (["curve", "--k-max", "2", "--trials", "2"], MAX_BIT_LEN),
}


@pytest.mark.parametrize("command", sorted(WIDE_COMMANDS))
@pytest.mark.parametrize(
    "bits", [128, 129, MAX_BIT_LEN, MAX_BIT_LEN + 1, 2**31, 2**63]
)
def test_width_cap(tmp_path, capsys, command, bits):
    """--bits past the command's cap exits 2 before any draw, naming the cap;
    Random.getrandbits would raise OverflowError from 2^31 on."""
    argv, cap = WIDE_COMMANDS[command]
    argv = [*argv, "--bits", str(bits)]
    if command.startswith("seal"):
        argv += [
            "--out-package", str(tmp_path / "p.json"),
            "--out-secret", str(tmp_path / "s.json"),
        ]
    code = 0 if bits <= cap else 2
    assert run(*argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and str(cap) in err
        assert "image_bits" not in err


@pytest.mark.parametrize("command", sorted(MONTE_CARLO_COMMANDS))
def test_zero_workers_is_usage_error(capsys, command):
    """No Monte Carlo command takes --workers: every trial runs serially."""
    for workers in ("0", "1", "2"):
        assert run(*MONTE_CARLO_COMMANDS[command], "--workers", workers) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --workers {workers}" in err


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_module_entry_point_exits_with_mains_status(self, tmp_path):
        """``python -m qseal.cli`` runs console_entry, the console script's
        target, in a fresh interpreter: its exit status is main's, a bad
        document ends in an error line, not a traceback, and a command's
        unparsed token is rejected under the top-level usage line."""
        env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")

        def entry(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "qseal.cli", *argv],
                env=env,
                cwd=tmp_path,
                capture_output=True,
                text=True,
            )

        shown = entry("--help")
        assert shown.returncode == 0 and shown.stdout.startswith("usage: qseal ")
        unknown = entry("frobnicate")
        assert unknown.returncode == 2
        assert "invalid choice: 'frobnicate'" in unknown.stderr
        missing = entry("open", "--package", "missing.json")
        assert missing.returncode == 3 and missing.stdout == ""
        assert missing.stderr.startswith("error: ") and "missing.json" in missing.stderr
        extra = entry("open", "--package", "missing.json", "--bogus")
        assert extra.returncode == 2 and extra.stdout == ""
        assert extra.stderr == (
            "usage: qseal [-h] {seal,open,respond,verify,simulate,curve} ...\n"
            "qseal: error: unrecognized arguments: --bogus\n"
        )
        for result in (shown, unknown, missing, extra):
            assert "Traceback" not in result.stderr

    def test_open_builds_one_parser_and_other_argv_build_seven(
        self, binary_files, monkeypatch, capsys
    ):
        """A command named first builds only its own parser; any other argv
        builds the top level and all six subcommands, and so does a command
        that leaves tokens unparsed, to reject them under the top level."""
        pkg, _ = binary_files
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            return init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run("open", "--package", str(pkg)) == 0
        assert built == ["qseal open"]
        for argv in (["--help"], [], ["frobnicate"], ["--bogus", "open", "x"]):
            built.clear()
            run(*argv)
            assert len(built) == 1 + len(COMMANDS) == 7, (argv, built)
        built.clear()
        assert run("open", "--package", str(pkg), "--bogus") == 2
        assert built[0] == "qseal open" and len(built) == 1 + 7, built
        capsys.readouterr()

    def test_open_adds_only_its_own_options(self, binary_files, monkeypatch, capsys):
        """One `open` adds its parser's -h and open's two options: 3
        add_argument calls, where building every subcommand's options makes
        41."""
        pkg, _ = binary_files
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert run("open", "--package", str(pkg)) == 0
        capsys.readouterr()
        assert len(calls) == 3, calls
        calls.clear()
        _full_parser()
        assert len(calls) == 41, len(calls)

    @given(
        argv=st.lists(
            st.sampled_from([
                # command names, and tokens that only look like them
                *COMMANDS, "OPEN", "ope", "open=", "--open",
                # real flags, whole, abbreviated and joined to a value
                "--mode", "--bits", "--k", "--secret", "--seed", "--out-package",
                "--out-secret", "--package", "--strategy", "--kind", "--out",
                "--return", "--method", "--trials", "--mixture", "--csv",
                "--out-report", "--k-max", "--workers", "-h", "--help",
                "--pack", "--out-p", "--k-m", "--seed=3", "--kind=quantum",
                # values
                "binary", "nary", "honest", "measure-keep", "quantum",
                "classical", "helstrom", "projective", "16", "3", "0", "x",
                # stray tokens
                "-1", "--bogus", "--", "-", "-x", "-hx", "--he", "--=x",
                "-1x", "--mod=binary", "-k",
            ]),
            max_size=8,
        )
    )
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_main_parses_argv_like_the_full_parser(self, argv):
        """parse_args, main's parse path, gives the namespace, or the exit
        code, stdout and stderr, that the parser with every command's
        options gives."""

        def parse(parse_argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    result = parse_argv(argv)
                except SystemExit as exc:
                    result = exc.code
            return result, out.getvalue(), err.getvalue()

        assert parse(parse_args) == parse(_full_parser().parse_args)


def _full_parser() -> argparse.ArgumentParser:
    """build_parser's top level, which builds all six subcommands whatever
    argv names: the parser argparse alone would parse argv with."""
    parser = build_parser()
    assert "{%s}" % ",".join(COMMANDS) in parser.format_usage()
    return parser
