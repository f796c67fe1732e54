"""Workload inputs, the commands each workload issues, and replica checks.

Every workload is a closed loop with one client: the next command starts when
the previous one returns.  Commands are grouped in blocks, one pass through
the workload's fixed mix, and throughput is taken per block.

- mc-binary: run_trials in binary mode at bit_len 16, one worker, over four
  verify paths, plus mixture_diagnostic.  tcf, sparsestate and the per-trial
  RNG derivation do the work; symcrypto, documents and cli never run.
- curve-nary: fig1_curve(k_max=32, bit_len=16) at min(2, nproc) workers.
  n-ary sealing (3k+1 SHA-256 calls per trial) dominates; tcf never runs.
  It is the only workload that splits trials across the worker pool.
- cli-roundtrip: qseal.cli.main(argv) in-process for seal, open, respond and
  verify over a mix of binary and n-ary seals and honest and cheating
  returns.  Parser construction, file IO and documents do the work.

Inputs come only from the workload seed: the library sees the generated
master seeds, secrets and round orders and nothing else.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import checks

WORKLOADS = ("mc-binary", "curve-nary", "cli-roundtrip")

BIT_LEN = 16
SEED_BITS = 62  # master seeds stay inside the library's signed 64-bit range

# mc-binary: one block runs each path once, then the mixture diagnostic.
MC_TRIALS = 100
MIXTURE_TRIALS = 200
MC_PATHS = (
    # name, strategy, return kind, verify method, statistic, closed-form rate
    ("keep-helstrom", "measure-keep", "quantum", "helstrom", "detection",
     checks.helstrom_detection(2)),
    ("keep-projective", "measure-keep", "quantum", "projective", "detection", 0.5),
    ("honest-classical", "honest", "classical", None, "acceptance", 1.0),
    ("guess-classical", "measure-guess-d", "classical", None, "acceptance", 0.5),
)
MIXTURE_RATE = 0.75

# curve-nary: one block is one sweep.  run_trials starts a thread pool for
# each point, about 0.4 ms on 2 CPUs.  At 64 trials a point takes about 25 ms,
# so pool start-up is under 2% of it and the sweep times trials, as real
# sweeps (the CLI's default is 20 000 trials per point) do; a 30 s run still
# holds about 40 sweeps.
CURVE_K_MAX = 32
CURVE_TRIALS = 64
CURVE_WORKERS = min(2, os.cpu_count() or 1)

# cli-roundtrip: one block runs every round type once, in a seeded order.
CLI_ROUNDS = (
    # name, k (None: binary), strategy, return kind, verify method,
    # closed-form reject probability
    ("binary-honest-classical", None, "honest", "classical", None, 0.0),
    ("binary-guess-classical", None, "measure-guess-d", "classical", None, 0.5),
    ("binary-honest-quantum", None, "honest", "quantum", "projective", 0.0),
    ("binary-keep-helstrom", None, "measure-keep", "quantum", "helstrom",
     checks.helstrom_detection(2)),
    ("k8-honest-quantum", 8, "honest", "quantum", "projective", 0.0),
    ("k8-keep-helstrom", 8, "measure-keep", "quantum", "helstrom",
     checks.helstrom_detection(8)),
    ("k32-honest-helstrom", 32, "honest", "quantum", "helstrom", 0.0),
    ("k32-keep-projective", 32, "measure-keep", "quantum", "projective", 1 - 1 / 32),
)
CLI_SECRET_BYTES = 16

# Blocks generated at set-up, whatever the run length; a run that needs more
# generates them from the same stream, outside the timed blocks.
INPUT_BLOCKS = 100

QSEAL_MODULES = (
    "bits", "cli", "documents", "errors", "experiment", "seal", "sparsestate",
    "symcrypto", "tcf",
)


def load_qseal(src: Path) -> types.SimpleNamespace:
    """Import qseal from ``src`` and return its modules by name.

    Drops any qseal modules already imported, so none comes from elsewhere.
    """
    for name in [n for n in sys.modules if n == "qseal" or n.startswith("qseal.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("qseal")
    if Path(package.__file__).resolve().parent != (src / "qseal").resolve():
        raise ImportError(f"qseal imported from {package.__file__}, not {src}")
    modules = {name: importlib.import_module(f"qseal.{name}") for name in QSEAL_MODULES}
    return types.SimpleNamespace(qseal=package, **modules)


class Inputs:
    """Blocks of generated inputs; equal (workload, seed) give equal blocks."""

    def __init__(self, workload: str, seed: int, blocks: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"qseal-bench/{workload}/{seed}")
        self.blocks: list[tuple] = []
        self.extend(blocks)

    def extend(self, count: int) -> None:
        for _ in range(count):
            self.blocks.append(self._make_block())

    def block(self, index: int) -> tuple:
        if index >= len(self.blocks):
            self.extend(index + 1 - len(self.blocks))
        return self.blocks[index]

    def _make_block(self) -> tuple:
        rng = self._rng
        if self.workload == "mc-binary":
            return tuple(rng.getrandbits(SEED_BITS) for _ in range(len(MC_PATHS) + 1))
        if self.workload == "curve-nary":
            return (rng.getrandbits(SEED_BITS),)
        order = list(range(len(CLI_ROUNDS)))
        rng.shuffle(order)
        rounds = []
        for kind in order:
            seeds = tuple(rng.getrandbits(SEED_BITS) for _ in range(4))
            secret = rng.getrandbits(8 * CLI_SECRET_BYTES).to_bytes(
                CLI_SECRET_BYTES, "big"
            )
            rounds.append((kind, *seeds, secret.hex()))
        return tuple(rounds)


class Context:
    """What the commands of one run share: library, checker and records."""

    def __init__(self, q, checker: checks.Checker, workdir: Path) -> None:
        self.q = q
        self.checker = checker
        self.tally = checks.Tally()
        self.workdir = workdir
        self.curve_workers = CURVE_WORKERS
        self.latencies_ns: list[int] = []
        self.tracer = None  # set for the traced phase
        self.record: list | None = None  # replica material, traced phase only
        self.package_bytes: dict[str, int] = {}
        self.rounds_started = 0

    def command(self, label: str, fn, check) -> bool:
        """Time one call into qseal, then check its result."""

        def operation():
            if self.tracer is not None:
                self.tracer.trace_id += 1  # the command's spans share an id
            start = perf_counter_ns()
            result = fn()
            self.latencies_ns.append(perf_counter_ns() - start)
            return check(result)

        return self.checker.op(label, operation)


# ---------------------------------------------------------------------------
# mc-binary
# ---------------------------------------------------------------------------


def binary_config(q, seed: int, trials: int, strategy: str, kind: str, method):
    seal = q.seal
    return q.experiment.TrialConfig(
        mode=seal.BinaryTcf(),
        bit_len=BIT_LEN,
        strategy=seal.CheatStrategy(strategy),
        return_kind=seal.ReturnKind(kind),
        verify_method=None if method is None else seal.VerifyMethod(method),
        trials=trials,
        seed=seed,
    )


def mc_binary_block(ctx: Context, block: tuple) -> tuple[int, int]:
    q = ctx.q
    for (name, strategy, kind, method, statistic, rate), seed in zip(MC_PATHS, block):

        def run(seed=seed, strategy=strategy, kind=kind, method=method):
            return q.experiment.run_trials(
                binary_config(q, seed, MC_TRIALS, strategy, kind, method)
            )

        def check(report, name=name, statistic=statistic, rate=rate, seed=seed,
                  strategy=strategy, kind=kind, method=method):
            events = round(report.p_hat * MC_TRIALS)
            ctx.tally.add(name, rate, events, MC_TRIALS)
            if ctx.record is not None:
                ctx.record.append(("run_trials", (seed, strategy, kind, method), events))
            return checks.report_error(report, statistic, MC_TRIALS, rate)

        ctx.command(name, run, check)

    mixture_seed = block[len(MC_PATHS)]

    def run_mixture():
        return q.experiment.mixture_diagnostic(BIT_LEN, MIXTURE_TRIALS, mixture_seed)

    def check_mixture(report):
        events = round(report.p_hat * MIXTURE_TRIALS)
        ctx.tally.add("mixture", MIXTURE_RATE, events, MIXTURE_TRIALS)
        if ctx.record is not None:
            ctx.record.append(("mixture", mixture_seed, events))
        return checks.report_error(
            report, "discrimination_success", MIXTURE_TRIALS, MIXTURE_RATE
        )

    ctx.command("mixture", run_mixture, check_mixture)
    return len(MC_PATHS) * MC_TRIALS + MIXTURE_TRIALS, 1


# ---------------------------------------------------------------------------
# curve-nary
# ---------------------------------------------------------------------------


def curve_block(ctx: Context, block: tuple) -> tuple[int, int]:
    (seed,) = block
    q = ctx.q

    def run():
        return q.experiment.fig1_curve(
            k_max=CURVE_K_MAX,
            trials_per_point=CURVE_TRIALS,
            bit_len=BIT_LEN,
            seed=seed,
            workers=ctx.curve_workers,
        )

    def check(points):
        error = checks.curve_error(points, CURVE_K_MAX, CURVE_TRIALS)
        if error is not None:
            return error
        events = [(pt.k, round(pt.p_hat * CURVE_TRIALS)) for pt in points]
        for k, hits in events:
            ctx.tally.add(f"k{k:02d}", checks.helstrom_detection(k), hits, CURVE_TRIALS)
        if ctx.record is not None:
            ctx.record.append(("curve", seed, events))
        return None

    ctx.command("fig1_curve", run, check)
    return (CURVE_K_MAX - 1) * CURVE_TRIALS, 1


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------


def run_cli(q, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = q.cli.main(argv)
    return code, out.getvalue()


def cli_block(ctx: Context, block: tuple) -> tuple[int, int]:
    for round_input in block:
        cli_round(ctx, round_input)
    return len(block), len(block)


def cli_round(ctx: Context, round_input: tuple) -> None:
    # Fresh names each round: rewriting a file in place makes ext4 flush it
    # to disk on close, which would time the disk rather than the CLI.
    ctx.rounds_started += 1
    stem = ctx.workdir / f"round{ctx.rounds_started}"
    package, secret, returned = (
        f"{stem}-{part}.json" for part in ("package", "secret", "return")
    )
    try:
        _cli_round(ctx, round_input, package, secret, returned)
    finally:
        for path in (package, secret, returned):
            Path(path).unlink(missing_ok=True)


def _cli_round(ctx: Context, round_input: tuple, package: str, secret: str,
               returned: str) -> None:
    kind_index, seal_seed, open_seed, respond_seed, verify_seed, secret_hex = round_input
    name, k, strategy, kind, method, reject_rate = CLI_ROUNDS[kind_index]
    q = ctx.q
    sealed: list[str] = []

    def cmd(sub: str, argv: list[str], check) -> bool:
        return ctx.command(f"{name} {sub}", lambda: run_cli(q, argv), check)

    seal_argv = ["seal", "--mode", "binary" if k is None else "nary",
                 "--bits", str(BIT_LEN)]
    if k is not None:
        seal_argv += ["--k", str(k), "--secret", secret_hex]
    seal_argv += ["--seed", str(seal_seed), "--out-package", package,
                  "--out-secret", secret]

    def check_seal(result):
        code, _ = result
        if code != 0:
            return f"seal exited {code}"
        recorded = json.loads(Path(secret).read_text())["payload"]["secret"]
        if k is not None and recorded != secret_hex:
            return f"secret record holds {recorded}, sealed {secret_hex}"
        sealed.append(recorded)
        if ctx.record is not None:
            ctx.package_bytes["binary" if k is None else f"k{k}"] = os.path.getsize(package)
        return None

    if not cmd("seal", seal_argv, check_seal):
        return

    opened: list[str] = []

    def check_open(result):
        code, printed = result
        opened.append(printed.strip())
        return checks.open_error(code, printed, sealed[0])

    if not cmd("open", ["open", "--package", package, "--seed", str(open_seed)],
               check_open):
        return

    respond_argv = ["respond", "--package", package, "--strategy", strategy,
                    "--kind", kind, "--seed", str(respond_seed), "--out", returned]
    if not cmd("respond", respond_argv,
               lambda r: None if r[0] == 0 else f"respond exited {r[0]}"):
        return

    verify_argv = ["verify", "--secret", secret, "--return", returned,
                   "--seed", str(verify_seed)]
    if method is not None:
        verify_argv += ["--method", method]
    honest = strategy == "honest"

    def check_verify(result):
        code, printed = result
        error = checks.verify_error(code, printed, honest)
        if error is None:
            if not honest:
                ctx.tally.add(name, reject_rate, code, 1)
            if ctx.record is not None:
                ctx.record.append(("cli", round_input, opened[0], code))
        return error

    cmd("verify", verify_argv, check_verify)


BLOCK_RUNNERS = {
    "mc-binary": mc_binary_block,
    "curve-nary": curve_block,
    "cli-roundtrip": cli_block,
}


# ---------------------------------------------------------------------------
# replicas: rebuild recorded commands from public calls
# ---------------------------------------------------------------------------


def _replica_trials(q, seed: int, trials: int, strategy: str, kind: str, method,
                    k=None) -> int:
    """Event count of run_trials rebuilt from the public protocol calls."""
    exp, seal = q.experiment, q.seal
    strategy_e = seal.CheatStrategy(strategy)
    kind_e = seal.ReturnKind(kind)
    method_e = None if method is None else seal.VerifyMethod(method)
    detection = kind == "quantum" and strategy != "honest"
    events = 0
    for index in range(trials):
        rng = exp._spawned_rng(seed, "trial", index)
        if k is None:
            package, record = seal.alice_seal_binary(q.tcf.TcfParams(BIT_LEN), rng)
        else:
            size = exp.NARY_SECRET_BYTES
            secret = rng.getrandbits(8 * size).to_bytes(size, "big")
            package, record = seal.alice_seal_nary(k, secret, BIT_LEN, rng)
        message = seal.bob_respond(package, strategy_e, kind_e, rng)
        if kind == "classical":
            accepted = seal.alice_verify_classical(record, message.mask)
        else:
            accepted = seal.alice_verify_quantum(record, message.state, method_e, rng)
        events += (not accepted) if detection else accepted
    return events


def _replica_mixture(q, seed: int, trials: int) -> int:
    exp, sps, bits = q.experiment, q.sparsestate, q.bits
    amp = 2.0 ** -0.5
    events = 0
    for index in range(trials):
        rng = exp._spawned_rng(seed, "mixture", index)
        x1 = bits.BitString.random(BIT_LEN, rng)
        x2 = x1
        while x2 == x1:
            x2 = bits.BitString.random(BIT_LEN, rng)
        original = sps.uniform_superposition((x1, x2))
        complement = sps.SparseState(BIT_LEN, {x1: amp, x2: -amp})
        honest = rng.random() < 0.5
        truth = original if honest else sps.measure_computational(original, rng)[1]
        said_honest = sps.helstrom_discriminate(truth, original, complement, rng) == 0
        events += said_honest == honest
    return events


def _replica_cli(q, round_input: tuple) -> tuple[str, int]:
    """Open output and verify exit code rebuilt from the library calls."""
    kind_index, seal_seed, open_seed, respond_seed, verify_seed, secret_hex = round_input
    _, k, strategy, kind, method, _ = CLI_ROUNDS[kind_index]
    seal = q.seal
    rng = random.Random(seal_seed)
    if k is None:
        package, record = seal.alice_seal_binary(q.tcf.TcfParams(BIT_LEN), rng)
    else:
        package, record = seal.alice_seal_nary(k, bytes.fromhex(secret_hex), BIT_LEN, rng)
    opened = seal.bob_open(package, random.Random(open_seed)).hex()
    message = seal.bob_respond(
        package, seal.CheatStrategy(strategy), seal.ReturnKind(kind),
        random.Random(respond_seed),
    )
    if kind == "classical":
        accepted = seal.alice_verify_classical(record, message.mask)
    else:
        accepted = seal.alice_verify_quantum(
            record, message.state, seal.VerifyMethod(method),
            random.Random(verify_seed),
        )
    return opened, 0 if accepted else 1


def replica_mismatches(q, record: list) -> list[str]:
    """Recorded commands whose replica disagrees; empty when all match."""
    mismatches = []
    for entry in record:
        if entry[0] == "run_trials":
            _, (seed, strategy, kind, method), events = entry
            got = _replica_trials(q, seed, MC_TRIALS, strategy, kind, method)
            if got != events:
                mismatches.append(f"run_trials seed={seed} {strategy}/{kind}: "
                                  f"{events} events, replica {got}")
        elif entry[0] == "mixture":
            _, seed, events = entry
            got = _replica_mixture(q, seed, MIXTURE_TRIALS)
            if got != events:
                mismatches.append(f"mixture seed={seed}: {events} events, replica {got}")
        elif entry[0] == "curve":
            _, seed, points = entry
            for k, events in points:
                point_seed = q.experiment._spawned_rng(seed, "curve", k).getrandbits(63)
                got = _replica_trials(
                    q, point_seed, CURVE_TRIALS, "measure-keep", "quantum",
                    "helstrom", k,
                )
                if got != events:
                    mismatches.append(f"curve seed={seed} k={k}: {events} events, "
                                      f"replica {got}")
        else:
            _, round_input, opened, code = entry
            got = _replica_cli(q, round_input)
            if got != (opened, code):
                mismatches.append(f"cli round {round_input}: ({opened}, {code}), "
                                  f"replica {got}")
    return mismatches
