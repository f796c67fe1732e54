"""Acceptance gate: eleven release criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they happen; without -s pytest shows them only for failing criteria.
Every statistical criterion runs under a fixed seed that was checked in
advance, so reruns are deterministic.  Wall-clock budgets are asserted
with at least 2x headroom on a development-class machine.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from scipy.stats import chisquare

from qseal.bits import BitString
from qseal.cli import main
from qseal.experiment import (
    TrialConfig,
    curve_csv,
    fig1_curve,
    mixture_diagnostic,
    run_trials,
    theory_pcheck,
)
from qseal.seal import (
    BinaryTcf,
    CheatStrategy,
    NarySymmetric,
    ReturnKind,
    VerifyMethod,
    acceptance_probability,
    alice_seal_binary,
    alice_seal_nary,
    bob_open,
)
from qseal.sparsestate import hadamard_measure, uniform_superposition
from qseal.tcf import TcfParams, keygen


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {number:2d} {name}: {detail}")
    assert ok, f"criterion {number} {name}: {detail}"


def _binary_config(**kw) -> TrialConfig:
    base = dict(mode=BinaryTcf(), bit_len=16, seed=0)
    base.update(kw)
    return TrialConfig(**base)


def test_01_theory_constants():
    pair = uniform_superposition([BitString(4, 3), BitString(4, 9)])
    branch = uniform_superposition([BitString(4, 3)])
    checks = [
        ("pcheck(2)", theory_pcheck(2), 0.853553),
        ("pcheck(3)", theory_pcheck(3), 0.908248),
        ("pcheck(4)", theory_pcheck(4), 0.933013),
        ("pcheck(5)", theory_pcheck(5), 0.947214),
        ("delta(2)", math.sqrt(
            1.0 - acceptance_probability(pair, branch, VerifyMethod.PROJECTIVE)
        ), 0.707107),
        ("helstrom(pair, branch)", 1.0 - acceptance_probability(
            pair, branch, VerifyMethod.HELSTROM_PER_BRANCH
        ), 0.853553),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    _verdict(1, "theory-constants", worst <= 1e-6, f"max |error| = {worst:.2e}")


def test_02_binary_helstrom_detection():
    t0 = time.perf_counter()
    report = run_trials(_binary_config(
        strategy=CheatStrategy.MEASURE_KEEP,
        return_kind=ReturnKind.QUANTUM,
        verify_method=VerifyMethod.HELSTROM_PER_BRANCH,
        trials=100_000,
    ))
    elapsed = time.perf_counter() - t0
    dev = abs(report.p_hat - theory_pcheck(2))
    ok = dev <= 0.005 and elapsed < 10.0
    _verdict(2, "binary-helstrom-detection",
             ok, f"p_hat={report.p_hat:.6f} dev={dev:.6f} in {elapsed:.1f}s")


def test_03_detection_curve_vs_theory():
    t0 = time.perf_counter()
    points = fig1_curve(k_max=8, trials_per_point=20_000, seed=1)
    elapsed = time.perf_counter() - t0
    outside = [p.k for p in points if not (p.ci_low <= p.p_theory <= p.ci_high)]
    ok = len(points) == 7 and not outside and elapsed < 60.0
    _verdict(3, "detection-curve-vs-theory",
             ok, f"k outside own 95% CI: {outside or 'none'} in {elapsed:.1f}s")


def test_04_classical_channel_rates():
    t0 = time.perf_counter()
    honest = run_trials(_binary_config(
        strategy=CheatStrategy.HONEST,
        return_kind=ReturnKind.CLASSICAL,
        verify_method=None,
        trials=2_000,
    ))
    guess = run_trials(_binary_config(
        strategy=CheatStrategy.MEASURE_GUESS_MASK,
        return_kind=ReturnKind.CLASSICAL,
        verify_method=None,
        trials=20_000,
    ))
    elapsed = time.perf_counter() - t0
    dev = abs(guess.p_hat - 0.5)
    ok = honest.p_hat == 1.0 and dev <= 0.015 and elapsed < 5.0
    _verdict(4, "classical-channel-rates",
             ok, f"honest={honest.p_hat} guess_dev={dev:.6f} in {elapsed:.1f}s")


def test_05_projective_detection_of_kept_branch():
    t0 = time.perf_counter()
    devs = {}
    for k in (2, 3, 4):
        report = run_trials(TrialConfig(
            mode=NarySymmetric(k), bit_len=16,
            strategy=CheatStrategy.MEASURE_KEEP,
            return_kind=ReturnKind.QUANTUM,
            verify_method=VerifyMethod.PROJECTIVE,
            trials=20_000, seed=0,
        ))
        devs[k] = abs(report.p_hat - (1.0 - 1.0 / k))
    elapsed = time.perf_counter() - t0
    worst = max(devs.values())
    ok = worst <= 0.015 and elapsed < 10.0
    _verdict(5, "projective-detection-of-kept-branch",
             ok, f"max dev={worst:.6f} over k=2..4 in {elapsed:.1f}s")


def test_06_random_state_substitution_detected():
    t0 = time.perf_counter()
    rates = {}
    for method in (VerifyMethod.HELSTROM_PER_BRANCH, VerifyMethod.PROJECTIVE):
        report = run_trials(_binary_config(
            bit_len=8,
            strategy=CheatStrategy.MEASURE_RANDOM_STATE,
            return_kind=ReturnKind.QUANTUM,
            verify_method=method,
            trials=20_000,
        ))
        rates[method.value] = report.p_hat
    elapsed = time.perf_counter() - t0
    ok = all(rate >= 0.99 for rate in rates.values()) and elapsed < 5.0
    _verdict(6, "random-state-substitution-detected",
             ok, f"rates={ {m: round(r, 5) for m, r in rates.items()} } in {elapsed:.1f}s")


def test_07_read_probability_is_one():
    t0 = time.perf_counter()
    reads = 0
    trials = 500
    rng = random.Random(123)
    for _ in range(trials):
        package, record = alice_seal_binary(TcfParams(12), rng)
        if bob_open(package, rng) == record.secret:
            reads += 1
    for _ in range(trials):
        secret = rng.randbytes(8)
        package, record = alice_seal_nary(3, secret, 12, rng)
        if bob_open(package, rng) == secret:
            reads += 1
    elapsed = time.perf_counter() - t0
    p_read = reads / (2 * trials)
    ok = p_read == 1.0 and elapsed < 5.0
    _verdict(7, "read-probability-is-one", ok, f"p_read={p_read} in {elapsed:.1f}s")


def test_08_images_are_exactly_two_to_one():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for bit_len in (4, 8, 12):
        pair = keygen(TcfParams(bit_len), random.Random(bit_len))
        buckets: dict[bytes, list[int]] = {}
        for value in range(2 ** bit_len):
            buckets.setdefault(pair.eval(BitString(bit_len, value)), []).append(value)
        sizes = Counter(len(v) for v in buckets.values())
        paired = all(len(v) == 2 and v[0] ^ v[1] == pair.shift.value
                     for v in buckets.values())
        good = sizes == Counter({2: 2 ** (bit_len - 1)}) and paired
        ok = ok and good
        detail.append(f"n={bit_len}:{'2-to-1' if good else 'BROKEN'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(8, "images-are-exactly-two-to-one",
             ok, f"{' '.join(detail)} in {elapsed:.1f}s")


def _dense_mask_distribution(state) -> dict[BitString, float]:
    # Brute-force reference: p(d) = (sum of signed amplitudes)^2 / 2^n.
    n = state.bit_len
    scale = 2.0 ** (-n / 2.0)
    out = {}
    for value in range(2 ** n):
        mask = BitString(n, value)
        amp = sum(a if mask.dot(b) == 0 else -a
                  for b, a in state.terms.items()) * scale
        if amp * amp > 1e-18:
            out[mask] = amp * amp
    return out


def test_09_mask_sampling_matches_exact_distribution():
    t0 = time.perf_counter()
    draws = 100_000
    ok = True
    detail = []
    for bit_len in (6, 8):
        rng = random.Random(9)
        x1 = BitString(bit_len, 0b101)
        x2 = BitString(bit_len, 0b101 ^ (2 ** bit_len - 3))
        state = uniform_superposition([x1, x2])
        exact = _dense_mask_distribution(state)
        counts = Counter(hadamard_measure(state, rng) for _ in range(draws))
        stray = sum(c for d, c in counts.items() if d not in exact)
        tv = 0.5 * (sum(abs(counts.get(d, 0) / draws - p)
                        for d, p in exact.items()) + stray / draws)
        support = sorted(exact)
        result = chisquare([counts.get(d, 0) for d in support],
                           [exact[d] * draws for d in support])
        good = tv < 0.02 and result.pvalue > 0.001 and stray == 0
        ok = ok and good
        detail.append(f"n={bit_len}:TV={tv:.4f},p={result.pvalue:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(9, "mask-sampling-matches-exact-distribution",
             ok, f"{' '.join(detail)} in {elapsed:.1f}s")


def test_10_mixture_discrimination_rate():
    t0 = time.perf_counter()
    report = mixture_diagnostic(bit_len=16, trials=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    dev = abs(report.p_hat - 0.75)
    ok = dev <= 0.01 and elapsed < 10.0
    _verdict(10, "mixture-discrimination-rate",
             ok, f"p_hat={report.p_hat:.6f} dev={dev:.6f} in {elapsed:.1f}s")


def test_11_outputs_are_reproducible(tmp_path):
    curve_a = curve_csv(fig1_curve(k_max=3, trials_per_point=500, seed=5, workers=1))
    curve_b = curve_csv(fig1_curve(k_max=3, trials_per_point=500, seed=5, workers=2))

    blobs = []
    for tag in ("a", "b"):
        pkg = tmp_path / f"pkg-{tag}.json"
        sec = tmp_path / f"sec-{tag}.json"
        ret = tmp_path / f"ret-{tag}.json"
        assert main(["seal", "--mode", "binary", "--bits", "16", "--seed", "7",
                     "--out-package", str(pkg), "--out-secret", str(sec)]) == 0
        assert main(["respond", "--package", str(pkg), "--strategy", "honest",
                     "--kind", "classical", "--seed", "2", "--out", str(ret)]) == 0
        blobs.append(pkg.read_bytes() + sec.read_bytes() + ret.read_bytes())

    ok = curve_a == curve_b and blobs[0] == blobs[1]
    _verdict(11, "outputs-are-reproducible",
             ok, f"curve workers 1==2: {curve_a == curve_b}; documents: {blobs[0] == blobs[1]}")
