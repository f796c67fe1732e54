"""qseal benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload mc-binary --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports qseal from ``src/``
there and writes only under ``bench/out/``.  Workloads are described in
workloads.py and listed in BENCHMARK.json with the metric names and units.

--trace 0 prints the end-to-end metrics.  Throughput is the median over
blocks (one pass through the workload's fixed mix) of work per second;
command latency is taken over every call into qseal's public API; set-up is
timed in fresh interpreters that import qseal and generate the inputs
(setup_child.py), started between blocks all through the run.

--trace 1 prints the per-layer metrics.  It times a share of the run with
timing wrappers around each module's public functions (see spans.py), next
to an untraced share for the tracing overhead; rebuilds every traced command
from public calls and compares event counts (trace.replica_match); measures
the speedup of the worker pool on curve-nary; and, on cli-roundtrip, times
cold CLI processes.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The line before it carries provenance and sample
counts.  The full result and the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_FIRST = 3  # set-up samples before the first block
SETUP_INTERVAL = 1.5  # seconds between later samples
COLD_RUNS = 15
WARMUP_SECONDS = 1.0
# Shares of --seconds in a traced run: alternating untraced and traced
# blocks, then the worker-speedup measurement.
PAIRED_SHARE = 0.65
SPEEDUP_SHARE = 0.25

MODULES = (
    "experiment", "seal", "tcf", "symcrypto", "sparsestate", "bits",
    "documents", "cli",
)
# Per-call span metrics: metric name -> spans summed; the last one counts calls.
SPAN_METRICS = {
    "experiment.rng_us": ("experiment.rng",),
    "seal.seal_us": ("seal.seal",),
    "seal.seal_us.k2": ("seal.seal.k2",),
    "seal.seal_us.k8": ("seal.seal.k8",),
    "seal.seal_us.k32": ("seal.seal.k32",),
    "seal.package_check_us": ("seal.package_check",),
    "seal.record_check_us": ("seal.record_check",),
    "seal.respond_us": ("seal.respond",),
    "seal.verify_us": ("seal.verify",),
    "seal.open_us": ("seal.open",),
    "tcf.keygen_us": ("tcf.keygen",),
    "tcf.claw_us": ("tcf.claw",),
    "tcf.eval_us": ("tcf.eval",),
    "symcrypto.enc_us": ("symcrypto.enc",),
    "symcrypto.key_tag_us": ("symcrypto.key_tag",),
    "symcrypto.dec_us": ("symcrypto.dec",),
    "sparsestate.superpose_us": ("sparsestate.superpose",),
    "sparsestate.measure_us": ("sparsestate.measure",),
    "sparsestate.hadamard_us": ("sparsestate.hadamard",),
    "sparsestate.helstrom_us": ("sparsestate.helstrom",),
    "sparsestate.inner_product_us": ("sparsestate.inner_product",),
    "sparsestate.state_check_us": ("sparsestate.state_check",),
    "bits.random_us": ("bits.random",),
    "bits.encode_us": ("bits.encode",),
    "cli.parser_us": ("cli.parser",),
}
for _part in ("package", "secret", "return"):
    SPAN_METRICS[f"documents.{_part}_encode_us"] = (f"documents.{_part}_encode",)
    SPAN_METRICS[f"documents.{_part}_decode_us"] = (
        f"documents.{_part}_parse",
        f"documents.{_part}_from_payload",
    )
for _sub in ("seal", "open", "respond", "verify"):
    SPAN_METRICS[f"cli.cmd_us.{_sub}"] = (f"cli.cmd.{_sub}",)


def self_metric(name: str) -> str:
    """seal.seal_us.k8 -> seal.seal_self_us.k8"""
    return name.replace("_us", "_self_us", 1)


class Phase:
    """Blocks of one measured interval: rates and command latencies.

    The host this runs on has bursts of up to 1.6x faster CPU lasting
    seconds.  Statistics come from the base blocks, the slower half by
    throughput, so a run reports the host's base speed whenever bursts
    cover less than half of it.  A change to qseal moves every block alike.
    """

    def __init__(self) -> None:
        # (trials per s, rounds per s, command latencies in ns) per block
        self.blocks: list[tuple[float, float, list[int]]] = []
        self.trials = 0
        self.rounds = 0

    def run_block(self, ctx, runner, block) -> None:
        latencies: list[int] = []
        ctx.latencies_ns = latencies
        start = perf_counter_ns()
        trials, rounds = runner(ctx, block)
        elapsed = (perf_counter_ns() - start) / 1e9
        self.blocks.append((trials / elapsed, rounds / elapsed, latencies))
        self.trials += trials
        self.rounds += rounds

    def base_blocks(self) -> list[tuple[float, float, list[int]]]:
        ordered = sorted(self.blocks, key=lambda b: b[0])
        return ordered[: math.ceil(len(ordered) / 2)]

    @property
    def trials_per_s(self) -> float:
        return statistics.median(b[0] for b in self.base_blocks())

    @property
    def rounds_per_s(self) -> float:
        return statistics.median(b[1] for b in self.base_blocks())

    def base_latencies(self) -> list[int]:
        return [ns for b in self.base_blocks() for ns in b[2]]


def measure(ctx, runner, inputs, index: int, seconds: float,
            between=None) -> tuple[Phase, int]:
    """Run blocks until ``seconds`` have passed; always at least one.

    ``between`` is called after each block, outside its timing.
    """
    phase = Phase()
    deadline = perf_counter() + seconds
    while True:
        phase.run_block(ctx, runner, inputs.block(index))
        index += 1
        if between is not None:
            between()
        if perf_counter() >= deadline:
            return phase, index


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qseal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


class SetupTimer:
    """Set-up time, sampled in fresh interpreters (setup_child.py).

    A few samples come first and then one every SETUP_INTERVAL seconds
    between blocks, so they fall in the host's slow and fast spells as the
    blocks do; like the blocks, the slower half gives the value.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), str(SRC),
                     workload, str(seed)]
        self.times: list[float] = []
        self.due = 0.0

    def sample(self) -> None:
        proc = subprocess.run(
            self.argv, cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True,
        )
        self.times.append(float(proc.stdout))
        self.due = perf_counter() + SETUP_INTERVAL

    def sample_if_due(self) -> None:
        if perf_counter() >= self.due:
            self.sample()

    @property
    def seconds(self) -> float:
        ordered = sorted(self.times)
        return statistics.median(ordered[len(ordered) // 2:])


# ---------------------------------------------------------------------------
# traced-run extras
# ---------------------------------------------------------------------------


def worker_speedup(ctx, inputs, index: int, seconds: float):
    """Median sweep time at one worker over that at CURVE_WORKERS workers.

    The two settings alternate on the same inputs.
    """
    ctx.latencies_ns = []  # these commands belong to no measured phase
    many = workloads.CURVE_WORKERS
    times: dict[int, list[int]] = {1: [], many: []}
    deadline = perf_counter() + seconds
    flip = False
    while True:
        block = inputs.block(index)
        index += 1
        flip = not flip
        for workers in ((1, many) if flip else (many, 1)):
            ctx.curve_workers = workers
            start = perf_counter_ns()
            workloads.curve_block(ctx, block)
            times[workers].append(perf_counter_ns() - start)
        if perf_counter() >= deadline:
            break
    ctx.curve_workers = workloads.CURVE_WORKERS
    return statistics.median(times[1]) / statistics.median(times[many]), index


def cold_cli(ctx) -> tuple[float, float]:
    """Median import time of qseal.cli, and of a whole `verify` process, in ms."""
    checker = ctx.checker
    package = str(ctx.workdir / "cold-package.json")
    secret = str(ctx.workdir / "cold-secret.json")
    returned = str(ctx.workdir / "cold-return.json")
    checker.op("cold seal", lambda: _exit_error(workloads.run_cli(ctx.q, [
        "seal", "--mode", "binary", "--bits", str(workloads.BIT_LEN), "--seed", "1",
        "--out-package", package, "--out-secret", secret,
    ])))
    checker.op("cold respond", lambda: _exit_error(workloads.run_cli(ctx.q, [
        "respond", "--package", package, "--strategy", "honest",
        "--kind", "classical", "--seed", "1", "--out", returned,
    ])))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    import_ms: list[float] = []
    cmd_ms: list[float] = []
    probe = (
        "import time; start = time.perf_counter(); import qseal.cli; "
        "print(time.perf_counter() - start)"
    )

    def cold_import():
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            return f"import exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
        import_ms.append(float(proc.stdout) * 1000.0)
        return None

    def cold_verify():
        start = perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-m", "qseal.cli", "verify", "--secret", secret,
             "--return", returned],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        cmd_ms.append((perf_counter_ns() - start) / 1e6)
        return checks.verify_error(proc.returncode, proc.stdout, honest=True)

    for _ in range(COLD_RUNS):
        checker.op("cold import", cold_import)
    for _ in range(COLD_RUNS):
        checker.op("cold verify", cold_verify)
    return (
        statistics.median(import_ms) if import_ms else 0.0,
        statistics.median(cmd_ms) if cmd_ms else 0.0,
    )


def _exit_error(result) -> str | None:
    code, _ = result
    return None if code == 0 else f"exited {code}"


def layer_metrics(tracer: spans.Tracer, trials: int) -> dict[str, float]:
    """Per-call span times, per-trial module self time and call counts."""
    metrics: dict[str, float] = {}
    for name, parts in SPAN_METRICS.items():
        totals = [tracer.total(part) for part in parts]
        calls = totals[-1][0]
        inclusive = sum(t[1] for t in totals)
        own = sum(t[2] for t in totals)
        metrics[name] = inclusive / calls / 1000.0 if calls else 0.0
        metrics[self_metric(name)] = own / calls / 1000.0 if calls else 0.0
    for module in MODULES:
        entries = [v for k, v in tracer.totals.items() if k.startswith(module + ".")]
        metrics[f"{module}.self_us_per_trial"] = (
            sum(e[2] for e in entries) / trials / 1000.0
        )
        metrics[f"{module}.calls_per_trial"] = sum(e[0] for e in entries) / trials

    by_variant: dict[str, list[int]] = {}
    for variant, batch_trials, hashes in tracer.batches:
        entry = by_variant.setdefault(variant, [0, 0])
        entry[0] += batch_trials
        entry[1] += hashes
    for variant in ("binary", "mixture", "k2", "k8", "k32"):
        n, hashes = by_variant.get(variant, (0, 0))
        metrics[f"hash_calls_per_trial.{variant}"] = hashes / n if n else 0.0
    if tracer.batches:
        metrics["hash_calls_per_trial"] = (
            sum(h for _, _, h in tracer.batches) / sum(n for _, n, _ in tracer.batches)
        )
    else:  # cli-roundtrip: every hash belongs to a round
        metrics["hash_calls_per_trial"] = tracer.hash_calls / trials
    return metrics


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def warm_up(ctx, runner, inputs, seconds: float) -> int:
    """Run (and check) blocks before timing; returns the next block index."""
    _, index = measure(ctx, runner, inputs, 0, min(WARMUP_SECONDS, seconds / 10))
    return index


def run_untraced(ctx, workload, inputs, seed, seconds, detail) -> dict[str, float]:
    runner = workloads.BLOCK_RUNNERS[workload]
    setup = SetupTimer(workload, seed)
    for _ in range(SETUP_FIRST):
        setup.sample()
    index = warm_up(ctx, runner, inputs, seconds)
    phase, _ = measure(ctx, runner, inputs, index, seconds, setup.sample_if_due)
    lat = phase.base_latencies()
    detail.update(
        setup_samples=len(setup.times),
        blocks=len(phase.blocks), base_blocks=len(phase.base_blocks()),
        trials=phase.trials, rounds=phase.rounds,
        cmd_samples=len(lat),
        cmd_samples_beyond_p95=len(lat) - math.ceil(0.95 * len(lat)),
    )
    return {
        "trials_per_s": phase.trials_per_s,
        "rounds_per_s": phase.rounds_per_s,
        "cmd_ms_p50": percentile(lat, 50) / 1e6,
        "cmd_ms_p95": percentile(lat, 95) / 1e6,
        "setup_s": setup.seconds,
    }


def run_traced(ctx, workload, inputs, seconds, detail) -> tuple[dict, spans.Tracer]:
    runner = workloads.BLOCK_RUNNERS[workload]
    index = warm_up(ctx, runner, inputs, seconds)

    # Untraced and traced blocks alternate, so a drift in machine speed
    # does not show up as tracing overhead.  Both run curve sweeps at one
    # worker: with two threads taking turns on the interpreter lock, a span
    # would also time the other thread's work whenever a switch fell inside
    # it.  The pool is measured on its own below.
    ctx.curve_workers = 1
    tracer = spans.Tracer()
    record: list = []
    reference, traced = Phase(), Phase()
    deadline = perf_counter() + PAIRED_SHARE * seconds
    orders = itertools.cycle(((True, False), (False, True)))
    while perf_counter() < deadline or not traced.trials:
        for with_trace in next(orders):
            block = inputs.block(index)
            index += 1
            if not with_trace:
                reference.run_block(ctx, runner, block)
                continue
            patches = spans.install(ctx.q, tracer)
            ctx.tracer, ctx.record = tracer, record
            try:
                traced.run_block(ctx, runner, block)
            finally:
                patches.restore()
                ctx.tracer, ctx.record = None, None

    mismatches = workloads.replica_mismatches(ctx.q, record)
    if mismatches:
        print("!" * 72, file=sys.stderr)
        print(f"!!! trace.replica_match FAILED for {len(mismatches)} of "
              f"{len(record)} traced commands: the per-layer split no longer "
              "describes the program", file=sys.stderr)
        for line in mismatches[:10]:
            print(f"!!!   {line}", file=sys.stderr)
        print("!" * 72, file=sys.stderr)

    if workload == "curve-nary":
        speedup, index = worker_speedup(ctx, inputs, index, SPEEDUP_SHARE * seconds)
    else:
        speedup = 1.0  # no worker pool in use
    import_ms, cold_ms = cold_cli(ctx) if workload == "cli-roundtrip" else (0.0, 0.0)

    metrics = layer_metrics(tracer, traced.trials)
    metrics.update({
        "experiment.worker_speedup": speedup,
        "trace.overhead": traced.trials_per_s / reference.trials_per_s,
        "trace.replica_match": 0.0 if mismatches else 1.0,
        "cli.import_ms": import_ms,
        "cli.cold_cmd_ms": cold_ms,
    })
    for mode in ("binary", "k8", "k32"):
        metrics[f"documents.package_bytes.{mode}"] = float(
            ctx.package_bytes.get(mode, 0)
        )
    detail.update(
        traced_trials=traced.trials, reference_trials=reference.trials,
        replica_commands=len(record), replica_mismatches=len(mismatches),
    )
    return metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qseal benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "qseal" / "__init__.py").is_file():
        print(f"error: no qseal sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    digest = source_digest()
    # Loading qseal here first also writes its bytecode cache, which the
    # set-up samples then read, as a user's repeated runs would.
    q = workloads.load_qseal(SRC)
    inputs = workloads.Inputs(args.workload, args.seed, workloads.INPUT_BLOCKS)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    checker = checks.Checker()
    ctx = workloads.Context(q, checker, workdir)
    detail: dict = {}
    tracer = None
    try:
        if args.trace:
            computed, tracer = run_traced(ctx, args.workload, inputs, args.seconds, detail)
        else:
            computed = run_untraced(
                ctx, args.workload, inputs, args.seed, args.seconds, detail
            )
        ctx.tally.check(checker, "aggregate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    computed["peak_rss_mib"] = peak_rss_mib()
    computed["failed_share"] = checker.failed_share

    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "qseal_version": q.qseal.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest,
        "curve_workers": workloads.CURVE_WORKERS,
        "curve_trials_per_point": workloads.CURVE_TRIALS,
        **detail,
        "problems": checker.problems,
    }
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n"
    )
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()) + "\n")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
