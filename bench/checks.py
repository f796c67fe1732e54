"""Output checks and failure counting for the benchmark workloads.

An operation is one call into qseal's public API (a library call or one CLI
command) or one aggregate statistical check at the end of a run.  It fails
when it raises or when its output is wrong; a failure is counted and the run
goes on.

Rates are judged against closed forms written out here, independently of the
library's own theory code: an estimate fails when p_hat lies more than
Z_TOLERANCE binomial standard errors from the closed-form rate, and a rate
that is exactly 0 or 1 in theory must be observed exactly.  The standard
error rule needs a binomial variance n*p*(1-p) of at least MIN_VARIANCE,
where the normal tail holds; smaller estimates (a 4-trial curve point) are
judged through the aggregate checks at the end of the run.
"""

from __future__ import annotations

import math

# Multiples of the binomial standard error an estimate may stray.  Each run
# makes a few thousand such checks, so a correct program fails one with
# probability well under 1e-5.
Z_TOLERANCE = 6.0
MIN_VARIANCE = 10.0
THEORY_TOL = 1e-12
MAX_PROBLEMS = 20


def helstrom_detection(k: int) -> float:
    """Per-branch Helstrom detection of a kept measurement over k branches."""
    return 0.5 + 0.5 * math.sqrt(1.0 - 1.0 / k)


def estimate_error(successes: int, trials: int, p_theory: float) -> str | None:
    """None when successes/trials is consistent with p_theory."""
    if trials < 1:
        return f"no trials ({trials})"
    p_hat = successes / trials
    if p_theory in (0.0, 1.0):
        if p_hat != p_theory:
            return f"p_hat {p_hat!r} over {trials} trials, exact rate {p_theory}"
        return None
    variance = trials * p_theory * (1.0 - p_theory)
    if variance < MIN_VARIANCE:
        return None
    se = math.sqrt(variance) / trials
    if abs(p_hat - p_theory) > Z_TOLERANCE * se:
        return (
            f"p_hat {p_hat:.6f} over {trials} trials is more than "
            f"{Z_TOLERANCE} standard errors from {p_theory:.6f}"
        )
    return None


def report_error(report, statistic: str, trials: int, p_theory: float) -> str | None:
    """Check an EstimateReport from run_trials or mixture_diagnostic."""
    if report.statistic != statistic:
        return f"statistic {report.statistic!r}, expected {statistic!r}"
    if report.trials != trials:
        return f"trials {report.trials}, expected {trials}"
    if report.p_theory is None or abs(report.p_theory - p_theory) > THEORY_TOL:
        return f"p_theory {report.p_theory!r}, closed form {p_theory!r}"
    if not 0.0 <= report.ci_low <= report.p_hat <= report.ci_high <= 1.0:
        return (
            f"interval [{report.ci_low}, {report.ci_high}] does not hold "
            f"p_hat {report.p_hat}"
        )
    return estimate_error(round(report.p_hat * trials), trials, p_theory)


def curve_error(points, k_max: int, trials: int) -> str | None:
    """Check fig1_curve output point by point."""
    ks = [pt.k for pt in points]
    if ks != list(range(2, k_max + 1)):
        return f"curve covers k={ks}, expected 2..{k_max}"
    for pt in points:
        theory = helstrom_detection(pt.k)
        if abs(pt.p_theory - theory) > THEORY_TOL:
            return f"k={pt.k}: p_theory {pt.p_theory!r}, closed form {theory!r}"
        if pt.trials != trials:
            return f"k={pt.k}: trials {pt.trials}, expected {trials}"
        if not 0.0 <= pt.ci_low <= pt.p_hat <= pt.ci_high <= 1.0:
            return f"k={pt.k}: interval does not hold p_hat {pt.p_hat}"
        error = estimate_error(round(pt.p_hat * trials), trials, theory)
        if error is not None:
            return f"k={pt.k}: {error}"
    return None


def open_error(exit_code: int, printed: str, secret_hex: str) -> str | None:
    if exit_code != 0:
        return f"open exited {exit_code}"
    if printed.strip() != secret_hex:
        return f"open printed {printed.strip()!r}, sealed {secret_hex!r}"
    return None


def verify_error(exit_code: int, printed: str, honest: bool) -> str | None:
    if exit_code not in (0, 1):
        return f"verify exited {exit_code}"
    verdict = printed.strip()
    if verdict != ("accept" if exit_code == 0 else "reject"):
        return f"verify printed {verdict!r} with exit code {exit_code}"
    if honest and exit_code != 0:
        return "honest return rejected"
    return None


class Checker:
    """Counts attempted and failed operations; keeps the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, fn) -> bool:
        """Run one operation; fn returns None when its output is right."""
        self.attempted += 1
        try:
            error = fn()
        except Exception as exc:  # a raising operation is a failure, not an abort
            error = f"raised {type(exc).__name__}: {exc}"
        if error is None:
            return True
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{label}: {error}")
        return False

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Tally:
    """Event counts per key, each key with one closed-form rate."""

    def __init__(self) -> None:
        self.keys: dict[str, list] = {}  # key -> [events, trials, p_theory]

    def add(self, key: str, p_theory: float, events: int, trials: int) -> None:
        entry = self.keys.setdefault(key, [0, 0, p_theory])
        entry[0] += events
        entry[1] += trials

    def check(self, checker: Checker, label: str) -> None:
        """One aggregate check per key, and one over all keys together.

        The pooled check compares the total event count with the sum of the
        per-key expectations, with the variance of a sum of binomials.
        """
        for key, (events, trials, p) in sorted(self.keys.items()):
            checker.op(
                f"{label} {key}",
                lambda e=events, n=trials, p=p: estimate_error(e, n, p),
            )
        if len(self.keys) > 1:
            checker.op(f"{label} pooled", self._pooled_error)

    def _pooled_error(self) -> str | None:
        events = sum(e for e, _, _ in self.keys.values())
        expected = sum(n * p for _, n, p in self.keys.values())
        variance = sum(n * p * (1.0 - p) for _, n, p in self.keys.values())
        if variance == 0.0:
            return None if events == expected else f"{events} events, exactly {expected}"
        if variance < MIN_VARIANCE:
            return None
        if abs(events - expected) > Z_TOLERANCE * math.sqrt(variance):
            return f"{events} events, expected {expected:.2f} (variance {variance:.2f})"
        return None
