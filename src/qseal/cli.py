"""Command-line front end.

Subcommands mirror the protocol roles: seal writes a package and a secret
record, open reads a package, respond answers a return challenge, verify
judges a response, and simulate/curve run the Monte Carlo experiments.

Exit codes: 0 success (verify: accept), 1 verify reject, 2 usage or
unsupported combination, 3 unreadable or corrupt documents and other IO
failures.  All randomness flows from --seed; reruns with equal arguments
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from pathlib import Path
from random import Random
from typing import Any, Callable, Sequence

from . import documents
from .errors import InvalidInputError, QsealError
from .experiment import (
    DEFAULT_BIT_LEN,
    TrialConfig,
    curve_csv,
    fig1_curve,
    mixture_diagnostic,
    run_trials,
)
from .seal import (
    BinaryTcf,
    CheatStrategy,
    ClassicalReturn,
    NarySymmetric,
    ReturnKind,
    SealMode,
    VerifyMethod,
    alice_seal_binary,
    alice_seal_nary,
    alice_verify_classical,
    alice_verify_quantum,
    bob_open,
    bob_respond,
)
from .tcf import TcfParams


class CLIError(Exception):
    """A flag combination the command does not accept; exits 2."""


# Exit 2 for a request that is itself invalid; every other deliberate
# failure (corrupt documents, inconsistent protocol material, IO) exits 3.
_USAGE_ERRORS = (CLIError, InvalidInputError)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _load(path: str, kind: str, decode: Callable[[Any], Any]) -> Any:
    return decode(documents.parse_document(Path(path).read_bytes(), kind))


def _mode(args: argparse.Namespace) -> SealMode:
    """The seal mode named by --mode and --k."""
    if args.mode == "binary":
        if args.k is not None:
            raise CLIError("binary mode always has 2 branches; --k is not allowed")
        return BinaryTcf()
    if args.k is None:
        raise CLIError("nary mode needs --k")
    return NarySymmetric(args.k)


def _distinct(flag: str, path: str | None, other_flag: str, other: str | None) -> None:
    """Refuse two paths to one file before anything is read or written, where
    writing one would replace the other.  Two existing files are one when
    os.path.samefile says so, two missing ones when their os.path.realpath
    agree; an existing and a missing one never are.  realpath, which walks
    every component of both paths, runs only for a dangling link or for two
    missing names with one final component: other missing pairs are two files."""
    if path is None or other is None:
        return
    found = [os.path.exists(path), os.path.exists(other)]
    if all(found):
        same = os.path.samefile(path, other)
    else:
        names = {os.path.basename(os.path.normpath(p)) for p in (path, other)}
        same = not any(found) and (
            len(names) == 1 or os.path.lexists(path) or os.path.lexists(other)
        ) and os.path.realpath(path) == os.path.realpath(other)
    if same:
        raise CLIError(f"{flag} and {other_flag} name the same file")


def _secret_bytes(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise CLIError(f"--secret must be hex, got {text!r}") from exc


def _format_report(report: Any) -> str:
    return (
        f"statistic={report.statistic} p_hat={report.p_hat:.6f} "
        f"ci95_low={report.ci_low:.6f} ci95_high={report.ci_high:.6f} "
        f"trials={report.trials} p_theory={report.p_theory:.6f}"
    )


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_seal(args: argparse.Namespace) -> int:
    _distinct("--out-package", args.out_package, "--out-secret", args.out_secret)
    rng = Random(args.seed)
    mode = _mode(args)
    if isinstance(mode, BinaryTcf):
        if args.secret is not None:
            raise CLIError("binary mode derives its secret; --secret is not allowed")
        package, record = alice_seal_binary(TcfParams(args.bits), rng)
    else:
        if args.secret is None:
            raise CLIError("nary mode needs --secret")
        package, record = alice_seal_nary(
            mode.k, _secret_bytes(args.secret), args.bits, rng
        )
    Path(args.out_package).write_text(documents.package_to_document(package))
    try:
        Path(args.out_secret).write_text(documents.secret_to_document(record))
    except OSError:  # leave no package without its record
        Path(args.out_package).unlink(missing_ok=True)
        raise
    return 0


def cmd_open(args: argparse.Namespace) -> int:
    package = _load(
        args.package, documents.KIND_PACKAGE, documents.package_from_payload
    )
    print(bob_open(package, Random(args.seed)).hex())
    return 0


def cmd_respond(args: argparse.Namespace) -> int:
    _distinct("--package", args.package, "--out", args.out)
    package = _load(
        args.package, documents.KIND_PACKAGE, documents.package_from_payload
    )
    message = bob_respond(
        package,
        CheatStrategy(args.strategy),
        ReturnKind(args.kind),
        Random(args.seed),
    )
    Path(args.out).write_text(documents.return_to_document(message))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    record = _load(args.secret, documents.KIND_SECRET, documents.secret_from_payload)
    message = _load(
        args.return_path, documents.KIND_RETURN, documents.return_from_payload
    )
    if isinstance(message, ClassicalReturn):
        if args.method is not None:
            raise CLIError(
                "classical returns have a fixed check; --method is not allowed"
            )
        accepted = alice_verify_classical(record, message.mask)
    else:
        method = args.method or VerifyMethod.PROJECTIVE.value
        accepted = alice_verify_quantum(
            record, message.state, VerifyMethod(method), Random(args.seed)
        )
    print("accept" if accepted else "reject")
    return 0 if accepted else 1


def _simulate_config(args: argparse.Namespace) -> TrialConfig:
    kind = ReturnKind(args.kind)
    method = args.method
    if method is None and kind is ReturnKind.QUANTUM:
        method = VerifyMethod.PROJECTIVE.value
    return TrialConfig(
        mode=_mode(args),
        bit_len=args.bits,
        strategy=CheatStrategy(args.strategy),
        return_kind=kind,
        verify_method=None if method is None else VerifyMethod(method),
        trials=args.trials,
        seed=args.seed,
    )


# simulate's protocol flags default to None, so that --mixture, which runs no
# protocol, can tell a given flag from an absent one; absent flags take these.
# An absent --method stays None: quantum runs verify projectively, and a
# classical run, whose check is fixed, takes no method.
_SIMULATE_DEFAULTS = {
    "mode": "binary",
    "k": None,
    "strategy": CheatStrategy.HONEST.value,
    "kind": ReturnKind.QUANTUM.value,
    "method": None,
}


def cmd_simulate(args: argparse.Namespace) -> int:
    _distinct("--csv", args.csv, "--out-report", args.out_report)
    if args.mixture:
        for flag in _SIMULATE_DEFAULTS:
            if getattr(args, flag) is not None:
                raise CLIError(f"--mixture runs no protocol; --{flag} is not allowed")
        report = mixture_diagnostic(args.bits, args.trials, args.seed)
        context: dict[str, Any] = {"experiment": "mixture_diagnostic"}
    else:
        for flag, default in _SIMULATE_DEFAULTS.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
        report = run_trials(_simulate_config(args))
        context = {
            "experiment": "run_trials",
            "mode": args.mode,
            "strategy": args.strategy,
            "return_kind": args.kind,
        }
    print(_format_report(report))
    if args.csv is not None:
        Path(args.csv).write_text(curve_csv([report]))
    if args.out_report is not None:
        Path(args.out_report).write_text(
            documents.report_to_document(
                report, {**context, "bit_len": args.bits, "seed": args.seed}
            )
        )
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    points = fig1_curve(
        k_max=args.k_max,
        trials_per_point=args.trials,
        bit_len=args.bits,
        seed=args.seed,
    )
    text = curve_csv(points)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _seal_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["binary", "nary"], required=True)
    p.add_argument("--bits", type=int, required=True, help="branch width")
    p.add_argument("--k", type=int, help="branch count (nary only)")
    p.add_argument("--secret", help="hex secret to seal (nary only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-package", required=True)
    p.add_argument("--out-secret", required=True)


def _open_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--package", required=True)
    p.add_argument("--seed", type=int, default=0)


def _respond_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--package", required=True)
    p.add_argument(
        "--strategy",
        choices=[s.value for s in CheatStrategy],
        default=CheatStrategy.HONEST.value,
    )
    p.add_argument("--kind", choices=[k.value for k in ReturnKind], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--secret", required=True, help="secret record path")
    p.add_argument("--return", dest="return_path", required=True)
    p.add_argument(
        "--method",
        choices=[m.value for m in VerifyMethod],
        help="quantum returns only; classical returns have a fixed check",
    )
    p.add_argument("--seed", type=int, default=0)


def _simulate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["binary", "nary"])
    p.add_argument("--bits", type=int, default=DEFAULT_BIT_LEN)
    p.add_argument("--k", type=int)
    p.add_argument("--strategy", choices=[s.value for s in CheatStrategy])
    p.add_argument("--kind", choices=[k.value for k in ReturnKind])
    p.add_argument("--method", choices=[m.value for m in VerifyMethod])
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mixture",
        action="store_true",
        help="run the unlabeled-branch diagnostic instead of a strategy",
    )
    p.add_argument("--csv", help="also write a one-row CSV")
    p.add_argument("--out-report", help="also write a report document")


def _curve_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--trials", type=int, default=20_000, help="per point")
    p.add_argument("--bits", type=int, default=DEFAULT_BIT_LEN)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path; stdout when omitted")


# name: (help line, handler, option builder), in the order help lists them.
COMMANDS = {
    "seal": ("seal a secret; write package and record", cmd_seal, _seal_options),
    "open": ("measure a package and print the secret", cmd_open, _open_options),
    "respond": ("answer a return challenge", cmd_respond, _respond_options),
    "verify": ("judge a response against a record", cmd_verify, _verify_options),
    "simulate": ("Monte Carlo rate estimate", cmd_simulate, _simulate_options),
    "curve": (
        "detection rate versus branch count, as CSV", cmd_curve, _curve_options
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """``qseal <command>``'s own parser, with ``command`` and ``handler`` as
    defaults; with ``None``, the top level and every subcommand.  A build
    reads the terminal width once, for all its formatters, as argparse would."""
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    if command is not None:
        _, handler, add_options = COMMANDS[command]
        parser = argparse.ArgumentParser(
            prog=f"qseal {command}", formatter_class=formatter
        )
        add_options(parser)
        parser.set_defaults(handler=handler, command=command)
        return parser
    parser = argparse.ArgumentParser(
        prog="qseal",
        description="Quantum seal protocol simulator: seal, open, and verify.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_options) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text, formatter_class=formatter)
        add_options(subparser)
        subparser.set_defaults(handler=handler)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """A command named first parses the rest itself, as the top level would;
    the top level is built for any other argv or to reject leftover tokens."""
    if argv and argv[0] in COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``); return its exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    try:
        return args.handler(args)
    except (CLIError, QsealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 3


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
