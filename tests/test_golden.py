"""Golden gate: the exact bytes of CLI outputs for fixed seeds.

Every file and every stdout below is pinned by its SHA-256.  Reruns of one
build agreeing with each other say nothing about a refactor that changes
the bytes; this test does.  A deliberate format change reprints the table
with ``PYTHONPATH=src python tests/test_golden.py`` and says why in the
change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from qseal.cli import main

GOLDEN = {
    "curve.stdout.console": "59f7617321e68d12f3dbda63308010220ee36f6b986e328ea847bce320eae05f",
    "curve.workers1.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "curve.workers1.csv": "28e29a8ee3873e8cda3ce9626b3194a17ff6cad66c9bf896b53bcd32e49cde17",
    "open.binary.console": "a0ebfd914a712701b8cd21a5c1cc66cbbc3fcd0c8e67e83cc4d5b6c91a961d06",
    "open.nary.console": "86e7601bf04613ff07f99ec0998bdb9114210e1e3fc1a409b07d9b42c7d32d4d",
    "respond.binary.guess.classical": "82d532c2650dc49244971e7e3729d5184fef1012a65fdc2dab5439431459c370",
    "respond.binary.guess.classical.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "respond.binary.honest.classical": "bc31d18ebcabba5b6b4765abc437567d30d369ca77b4bd2abefd60ba062ef215",
    "respond.binary.honest.classical.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "respond.binary.honest.quantum": "32b4e5feb66e1ecf6911da3ae9b59896709298bfe1785eec4d7035c8debd0fd1",
    "respond.binary.honest.quantum.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "respond.binary.keep.quantum": "78a9b7d7a48e1430ced581e270ace217e944d2fb014a720bb92b4ea0b4bee1d5",
    "respond.binary.keep.quantum.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "respond.nary.keep.quantum": "6c834e4d54f33db2e0b2c328e93f5a7e8d1f9ff3ef78328dd697e5b1e045ca03",
    "respond.nary.keep.quantum.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "seal.binary.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "seal.binary.package": "8d9a0f9d0178a2f8b86c0ef707e9cb94e2de655677de4f87412464dedecdd710",
    "seal.binary.secret": "3c2b5906316c6943adc6c270775dc73610b8565da04c0fb8918cadb02464e9c9",
    "seal.nary.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "seal.nary.package": "73a3f645693fb77525f688e03731d77a78761ea7c37105c8cf88b87b87d669d7",
    "seal.nary.secret": "05505ada16d39eab7e1d1b0741cbb77a0326c45b4f24d15f282b37b80a17fe95",
    "simulate.binary.guess.classical.console": "f8efe6f1f6597a5ae5b56cbdb2a89148bf38ccab6b9cfc24c0949e496567b677",
    "simulate.binary.guess.classical.csv": "eb09f9760dbe6638067619ae0b94db6755c9a449469edcc245e4c09d5692e7ac",
    "simulate.binary.guess.classical.report": "e96ce1a626d2b5d37b18688f69f43089e0384b0e7e390d3246db0c75f17db389",
    "simulate.binary.keep.helstrom.console": "d0ab8f3026e6122a6752b7e459c1d9c73ba7cb13f78901e1dff78d168f6c74b4",
    "simulate.binary.keep.helstrom.csv": "1128fc5107784c2338e8731d00983685c4b6f410f7d931f2c37162919805ddad",
    "simulate.binary.keep.helstrom.report": "b716763be2c39b1123531d40ff7a291842296960095c20cdcc483a63c58611a3",
    "simulate.mixture.console": "27b733433f6100339bcf6b16607b1f789bcfec7acac78b1e75625c3dfe36c056",
    "simulate.mixture.csv": "30954149f8a125696e79a3846724edc7b848442fb5fd92cda46441a439dfcdb0",
    "simulate.mixture.report": "b9c3ccfc4db10040fd5015b26228649d9e8fcb5a996545a88534c0379f4f718d",
    "simulate.nary.random.projective.console": "28c53d6bb580d0cc58ef26d1a78d159566b7ad6ef4b9865020d86300c7002632",
    "simulate.nary.random.projective.csv": "eefd6cb9426af36d86b67c6a4f7aac655e4c87777a4683e96cbaddcb17735375",
    "simulate.nary.random.projective.report": "3333c88101d8d9e8d801a6af93826ee507040894b867ba961b4b8c4e3378e014",
    "verify.binary.guess.classical.projective.1.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.binary.guess.classical.projective.2.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.binary.honest.classical.projective.1.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.binary.honest.classical.projective.2.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.binary.honest.quantum.projective.1.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.binary.honest.quantum.projective.2.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.binary.keep.quantum.helstrom.1.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.binary.keep.quantum.helstrom.2.console": "1791a7c8d625f3aeb08756495ecdf867e5f4b42fe9ee2d90cfb06f2d79e3ec76",
    "verify.nary.keep.quantum.projective.1.console": "ed0236c875b20a13dfdf5a18bac5434e6ba0e62ae62c89e9e22b4447539c33ca",
    "verify.nary.keep.quantum.projective.2.console": "1791a7c8d625f3aeb08756495ecdf867e5f4b42fe9ee2d90cfb06f2d79e3ec76",
    # A Hadamard challenge to a 5-branch seal: respond exits 2, writes no file.
    "respond.nary.honest.classical.refused": "ac4ccd469f3bfea22f4c10d36fa327932a0bc82e055d93288667305f54b2ca9d",
    "respond.nary.honest.classical.refused.console": "5362fb632b157f283b9135804a517da6491d939d8635435911a91f389c9e4aff",
    # The sweep the benchmark's curve-nary workload runs: k = 2..32 at 16 bits.
    "curve.bench.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "curve.bench.csv": "7b3a7a0b52e49cc9d630b5b4223d41e74829c0ece18cd6d308fad8b6137b481f",
    # A sweep at 5 bits, where about 60% of k = 8 seals redraw a branch:
    # pins the draws past the first k.
    "curve.topup.console": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "curve.topup.csv": "efcd09c4dadd8550e94e1a1759c1fbeaf6037c5249dffcaa7c3a8d504eaea904",
}


def _outputs(tmp: Path) -> dict[str, bytes]:
    """Run a fixed CLI session; return each exit code with its stdout, and
    each written file, by name."""
    out: dict[str, bytes] = {}

    def run(name: str, *argv: str) -> None:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        out[f"{name}.console"] = f"exit {code}\n{buffer.getvalue()}".encode()

    for mode, extra in (
        ("binary", ()),
        ("nary", ("--k", "5", "--secret", "00112233445566778899aabbccddeeff")),
    ):
        pkg, sec = tmp / f"{mode}-package.json", tmp / f"{mode}-secret.json"
        run(
            f"seal.{mode}", "seal", "--mode", mode, "--bits", "16", *extra,
            "--seed", "7", "--out-package", str(pkg), "--out-secret", str(sec),
        )
        out[f"seal.{mode}.package"] = pkg.read_bytes()
        out[f"seal.{mode}.secret"] = sec.read_bytes()
        run(f"open.{mode}", "open", "--package", str(pkg), "--seed", "3")

    binary_pkg, binary_sec = tmp / "binary-package.json", tmp / "binary-secret.json"
    nary_pkg, nary_sec = tmp / "nary-package.json", tmp / "nary-secret.json"
    responses = (
        # name, package, strategy, kind
        ("binary.honest.quantum", binary_pkg, "honest", "quantum"),
        ("binary.honest.classical", binary_pkg, "honest", "classical"),
        ("binary.keep.quantum", binary_pkg, "measure-keep", "quantum"),
        ("binary.guess.classical", binary_pkg, "measure-guess-d", "classical"),
        ("nary.keep.quantum", nary_pkg, "measure-keep", "quantum"),
        ("nary.honest.classical.refused", nary_pkg, "honest", "classical"),
    )
    for name, pkg, strategy, kind in responses:
        ret = tmp / f"{name}.json"
        run(
            f"respond.{name}", "respond", "--package", str(pkg),
            "--strategy", strategy, "--kind", kind, "--seed", "5",
            "--out", str(ret),
        )
        out[f"respond.{name}"] = ret.read_bytes() if ret.exists() else b"no file\n"

    verifies = (
        # name, secret record, method
        ("binary.honest.quantum", binary_sec, "projective"),
        ("binary.honest.classical", binary_sec, "projective"),
        ("binary.keep.quantum", binary_sec, "helstrom"),
        ("binary.guess.classical", binary_sec, "projective"),
        ("nary.keep.quantum", nary_sec, "projective"),
    )
    for name, sec, method in verifies:
        # A classical return has one fixed check and refuses --method; its
        # rows keep the method in their digest names, pinned before that.
        flags = ("--method", method) if name.endswith(".quantum") else ()
        for seed in ("1", "2"):
            run(
                f"verify.{name}.{method}.{seed}", "verify", "--secret", str(sec),
                "--return", str(tmp / f"{name}.json"), *flags, "--seed", seed,
            )

    simulations = (
        ("binary.keep.helstrom", "--strategy", "measure-keep", "--kind", "quantum",
         "--method", "helstrom"),
        ("nary.random.projective", "--mode", "nary", "--k", "3",
         "--strategy", "measure-random-state", "--kind", "quantum",
         "--method", "projective", "--bits", "4"),
        ("binary.guess.classical", "--strategy", "measure-guess-d",
         "--kind", "classical"),
        ("mixture", "--mixture"),
    )
    for name, *flags in simulations:
        csv, report = tmp / f"sim-{name}.csv", tmp / f"sim-{name}.json"
        run(
            f"simulate.{name}", "simulate", *flags, "--trials", "150",
            "--seed", "9", "--csv", str(csv), "--out-report", str(report),
        )
        out[f"simulate.{name}.csv"] = csv.read_bytes()
        out[f"simulate.{name}.report"] = report.read_bytes()

    csv = tmp / "curve-1.csv"
    run(
        "curve.workers1", "curve", "--k-max", "5", "--trials", "60",
        "--seed", "4", "--out", str(csv),
    )
    out["curve.workers1.csv"] = csv.read_bytes()
    run("curve.stdout", "curve", "--k-max", "3", "--trials", "40", "--seed", "2")
    csv = tmp / "curve-bench.csv"
    run(
        "curve.bench", "curve", "--k-max", "32", "--trials", "64", "--bits", "16",
        "--seed", "6", "--out", str(csv),
    )
    out["curve.bench.csv"] = csv.read_bytes()
    csv = tmp / "curve-topup.csv"
    run(
        "curve.topup", "curve", "--k-max", "8", "--trials", "200", "--bits", "5",
        "--seed", "3", "--out", str(csv),
    )
    out["curve.topup.csv"] = csv.read_bytes()
    return out


# Help and usage errors, which argparse writes: each argv's exit code, stdout
# and stderr at an 80-column terminal.
USAGE_ARGV = {
    "help": ["--help"],
    **{f"help.{cmd}": [cmd, "--help"] for cmd in (
        "seal", "open", "respond", "verify", "simulate", "curve",
    )},
    "usage.no-command": [],
    "usage.unknown-command": ["frobnicate"],
    "usage.negative-token": ["-1"],
    "usage.flag-before-command": ["--bogus", "open", "--package", "x"],
    "usage.missing-flag": ["respond", "--package", "x", "--out", "y"],
    "usage.bad-choice": ["simulate", "--kind", "telepathic"],
    "usage.bad-int": ["curve", "--k-max", "four"],
    "usage.extra-argument": ["open", "--package", "x", "extra"],
    "usage.unknown-option": ["open", "--package", "x", "--bogus"],
    "usage.ambiguous-abbreviation": [
        "seal", "--mode", "binary", "--bits", "16", "--out", "x",
    ],
}

USAGE_GOLDEN = {
    "help": "acf37845ff17efdc9ee312696c9b5302bd1f6205cd5cb4d771dbcf43368af358",
    "help.curve": "5b00d0ca808abbaaac12cf394bc468e7c49aefa1999868c25bd9ffc0c228e21a",
    "help.open": "4e958add566e1ba9e005c8829230f5a327778fa47226bdeff2db2ededb88cf51",
    "help.respond": "b03cf322b5923e18cbc0c1c9fb783e7bce63123e282be516fe2af50edff057cd",
    "help.seal": "a8656e4c5dd2ca1571f63dca2fc60b4d7b36ebb421967e4c59fdf807a836d0b1",
    "help.simulate": "74f5877daecf8b45496d3968e3b2b4edd9da42661a6ad9e6746c8d96a2046118",
    "help.verify": "84c229ae02e7dacc9cfdcc86462558ed2c935bc17f2e671ee7aee86f8941e8a0",
    "usage.ambiguous-abbreviation": "42b3e052fab89a160460b6b83a5cd2d6c6a1950b8121c35304cd3fcbe39b9069",
    "usage.bad-choice": "7d0e1ea54cf6c9d24999eff63ddd8d17df5fab60d408e80c3c7d28221f2cfe7d",
    "usage.bad-int": "37e370ce242fc5d3b588e1d2fc3a1880a23c21e93b4aacd5e2ee91c1dc625ff9",
    "usage.extra-argument": "b2bddcc71b0d66624d118a7dbd244449cf75f8f25dba95739bd3869399f07445",
    "usage.flag-before-command": "b7a093af5d8a5b2d25903710d02f22a34b848e65470c68f3fa28c1f4531e0245",
    "usage.missing-flag": "133f8a1b8ea9e065c9511e22b2584462e7b32559da18e5878d793afa61858ee8",
    "usage.negative-token": "0161be43fb85d7f44478e52c0a7398783e0d85ec51e57c32167067442f0b5e67",
    "usage.no-command": "a0d7a77651508160aa809c10c6a55f4f53342b00d8f83cb67c418f2df01928d9",
    "usage.unknown-command": "bd7f2181632e3c05426270df5c119e6e91132bd40aa05cf8fb265d23bbfe5334",
    "usage.unknown-option": "b7a093af5d8a5b2d25903710d02f22a34b848e65470c68f3fa28c1f4531e0245",
}


def _usage_digests() -> dict[str, str]:
    digests = {}
    for name, argv in sorted(USAGE_ARGV.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def _digests(tmp: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(_outputs(tmp).items())
    }


def test_outputs_are_byte_identical_to_the_pinned_digests(tmp_path):
    assert _digests(tmp_path) == GOLDEN


def test_help_and_usage_errors_are_byte_identical_to_the_pinned_digests(
    monkeypatch,
):
    monkeypatch.setenv("COLUMNS", "80")
    assert _usage_digests() == USAGE_GOLDEN


def _print_table(title: str, digests: dict[str, str]) -> None:
    sys.stdout.write(f"{title} = {{\n")
    for name, digest in digests.items():
        sys.stdout.write(f'    "{name}": "{digest}",\n')
    sys.stdout.write("}\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        _print_table("GOLDEN", _digests(Path(scratch)))
    os.environ["COLUMNS"] = "80"
    _print_table("USAGE_GOLDEN", _usage_digests())
