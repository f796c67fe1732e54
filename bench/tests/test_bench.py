"""Tests of the benchmark itself: its checker, its inputs and its tracing.

Run with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def q():
    return workloads.load_qseal(ROOT / "src")


def report(**fields):
    base = dict(
        statistic="detection", p_hat=0.85, ci_low=0.77, ci_high=0.91,
        trials=100, p_theory=checks.helstrom_detection(2),
    )
    return SimpleNamespace(**{**base, **fields})


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------


def test_checker_flags_a_wrong_p_hat():
    checker = checks.Checker()
    rate = checks.helstrom_detection(2)

    def check(r):
        return lambda: checks.report_error(r, "detection", 100, rate)

    assert checker.op("right", check(report()))
    assert not checker.op("wrong", check(report(p_hat=0.5, ci_low=0.4, ci_high=0.6)))
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "standard errors" in checker.problems[0]


def test_honest_acceptance_must_be_exact():
    assert checks.estimate_error(100, 100, 1.0) is None
    assert checks.estimate_error(99, 100, 1.0) is not None


def test_checker_flags_a_wrong_theory_value():
    wrong = report(p_theory=0.75)
    rate = checks.helstrom_detection(2)
    assert checks.report_error(wrong, "detection", 100, rate) is not None


def test_checker_flags_wrong_cli_outputs():
    assert checks.open_error(0, "abcd\n", "abcd") is None
    assert checks.open_error(0, "abce\n", "abcd") is not None
    assert checks.open_error(3, "", "abcd") is not None
    assert checks.verify_error(0, "accept\n", honest=True) is None
    assert checks.verify_error(1, "reject\n", honest=False) is None
    assert checks.verify_error(1, "reject\n", honest=True) is not None
    assert checks.verify_error(2, "", honest=False) is not None
    assert checks.verify_error(0, "reject\n", honest=False) is not None


def test_a_raised_exception_is_a_failure_not_an_abort():
    checker = checks.Checker()
    assert not checker.op("raises", lambda: 1 / 0)
    assert checker.op("after", lambda: None)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "ZeroDivisionError" in checker.problems[0]
    assert checker.failed_share == 0.5


def test_tally_flags_a_pooled_drift_that_no_single_key_shows():
    tally = checks.Tally()
    for k in range(2, 33):
        # 500 of 1000 events per key where 0.55 is expected: 3.2 standard
        # errors low per key, 17.8 pooled.
        tally.add(f"k{k}", 0.55, 500, 1000)
    checker = checks.Checker()
    tally.check(checker, "aggregate")
    assert checker.failed == 1
    assert checker.problems[0].startswith("aggregate pooled")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_equal_seeds_give_identical_inputs(workload):
    first = workloads.Inputs(workload, 7, 3)
    second = workloads.Inputs(workload, 7, 6)
    assert first.blocks == second.blocks[:3]
    # Blocks generated on demand continue the same stream.
    assert first.block(5) == second.blocks[5]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    assert workloads.Inputs(workload, 7, 3).blocks != workloads.Inputs(workload, 8, 3).blocks


# ---------------------------------------------------------------------------
# runs against the library
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_block_runs_clean(q, workload, tmp_path):
    ctx = workloads.Context(q, checks.Checker(), tmp_path)
    trials, rounds = workloads.BLOCK_RUNNERS[workload](
        ctx, workloads.Inputs(workload, 3, 1).block(0)
    )
    assert trials >= 1 and rounds >= 1
    assert ctx.checker.failed == 0, ctx.checker.problems
    assert len(ctx.latencies_ns) == ctx.checker.attempted


def test_traced_block_counts_hashes_and_matches_its_replica(q, tmp_path):
    ctx = workloads.Context(q, checks.Checker(), tmp_path)
    tracer = spans.Tracer()
    ctx.record = []
    ctx.curve_workers = 1  # as in the traced run
    patches = spans.install(q, tracer)
    ctx.tracer = tracer
    try:
        workloads.mc_binary_block(ctx, workloads.Inputs("mc-binary", 4, 1).block(0))
        workloads.curve_block(ctx, workloads.Inputs("curve-nary", 4, 1).block(0))
    finally:
        patches.restore()
    assert ctx.checker.failed == 0, ctx.checker.problems
    assert workloads.replica_mismatches(q, ctx.record) == []

    per_trial: dict[str, set[float]] = {}
    for variant, trials, hashes in tracer.batches:
        per_trial.setdefault(variant, set()).add(hashes / trials)
    assert per_trial.pop("binary") == {4.0}
    assert per_trial.pop("mixture") == {1.0}
    for k in range(2, workloads.CURVE_K_MAX + 1):
        assert per_trial.pop(f"k{k}") == {3 * k + 1}
    assert per_trial == {}

    calls, inclusive, own = tracer.total("seal.seal")
    assert calls == len(workloads.MC_PATHS) * workloads.MC_TRIALS
    assert 0 < own < inclusive


def test_replica_notices_a_wrong_count(q):
    seed = workloads.Inputs("mc-binary", 5, 1).block(0)[0]
    entry = ("run_trials", (seed, "measure-keep", "quantum", "helstrom"), -1)
    assert len(workloads.replica_mismatches(q, [entry])) == 1


def test_patches_are_restored(q):
    import hashlib

    before = (q.experiment.run_trials, q.seal.SealPackage.__post_init__,
              q.bits.BitString.random, hashlib.sha256)
    spans.install(q, spans.Tracer()).restore()
    after = (q.experiment.run_trials, q.seal.SealPackage.__post_init__,
             q.bits.BitString.random, hashlib.sha256)
    assert before == after


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


def test_run_prints_every_declared_metric_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-binary", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-binary", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
