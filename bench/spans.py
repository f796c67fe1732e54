"""In-memory span recording around calls into qseal's public functions.

The traced run swaps each wrapped callable for a timing wrapper in every
qseal module namespace that holds it, so calls made from inside the library
are timed too, and puts the originals back afterwards.  Library code is not
edited.  Spans nest per thread; a span's self time is its duration minus the
durations of the spans directly inside it.

Raw spans are kept up to a cap and written out when the run ends; per-name
totals are kept for every call.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import sys
import threading
from time import perf_counter_ns

MAX_RAW_SPANS = 20_000


class Tracer:
    """Span store: per-name totals plus a capped list of raw spans."""

    def __init__(self, max_raw: int = MAX_RAW_SPANS) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.max_raw = max_raw
        # name -> [calls, inclusive ns, self ns]
        self.totals: dict[str, list[int]] = {}
        # (span id, parent id, trace id, name, start ns, end ns)
        self.raw: list[tuple[int, int, int, str, int, int]] = []
        self.trace_id = 0
        self.hash_calls = 0
        # (variant, trials, SHA-256 calls) per run_trials/mixture_diagnostic call
        self.batches: list[tuple[str, int, int]] = []

    def wrap(self, fn, name):
        """Timing wrapper; ``name`` is a string or a function of the call's args."""
        local, totals, raw, ids = self._local, self.totals, self.raw, self._ids
        fixed = isinstance(name, str)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if fixed else name(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [0, next(ids)]  # [child ns, span id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = totals.get(span)
                if entry is None:
                    entry = totals[span] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if len(raw) < tracer.max_raw:
                    raw.append((frame[1], parent, tracer.trace_id, span, start, end))

        return wrapper

    def total(self, name: str) -> tuple[int, int, int]:
        entry = self.totals.get(name)
        return (0, 0, 0) if entry is None else tuple(entry)

    def dump(self) -> dict:
        return {
            "totals": {
                name: {"calls": c, "inclusive_ns": inc, "self_ns": own}
                for name, (c, inc, own) in sorted(self.totals.items())
            },
            "raw_spans": [
                {
                    "id": sid,
                    "parent": pid,
                    "trace": tid,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                for sid, pid, tid, name, start, end in self.raw
            ],
            "raw_spans_dropped": max(0, self.total_spans() - len(self.raw)),
        }

    def total_spans(self) -> int:
        return sum(entry[0] for entry in self.totals.values())


class Patches:
    """Swap callables for wrappers and put the originals back on restore()."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make_wrapper) -> None:
        """Replace module.attr in every qseal namespace that holds it."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "qseal" and not name.startswith("qseal."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            self._set(cls, attr, make_wrapper(raw))

    def count_sha256(self, tracer: Tracer) -> None:
        """Count hashlib.sha256 constructions; the library looks it up per call."""
        original = hashlib.sha256

        def counting_sha256(*args, **kwargs):
            tracer.hash_calls += 1
            return original(*args, **kwargs)

        self._set(hashlib, "sha256", counting_sha256)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(q, tracer: Tracer) -> Patches:
    """Wrap the layer boundaries of the loaded qseal modules.

    ``q`` carries the modules (see workloads.load_qseal).  Span names are
    ``<module>.<call>`` with an optional ``.<variant>`` suffix.
    """
    patches = Patches()

    def named(name):
        return lambda fn: tracer.wrap(fn, name)

    exp, seal, tcf, sym, sps, bits, docs, cli = (
        q.experiment, q.seal, q.tcf, q.symcrypto, q.sparsestate, q.bits,
        q.documents, q.cli,
    )
    patches.count_sha256(tracer)

    def batch(name, variant_of):
        """Span that also records the call's trials and SHA-256 calls."""

        def make(fn):
            def counted(*args, **kwargs):
                before = tracer.hash_calls
                report = fn(*args, **kwargs)
                tracer.batches.append(
                    (variant_of(*args, **kwargs), report.trials,
                     tracer.hash_calls - before)
                )
                return report

            return tracer.wrap(functools.wraps(fn)(counted), name)

        return make

    patches.function(
        exp,
        "run_trials",
        batch(
            "experiment.run_trials",
            lambda config, *a, **kw: (
                "binary" if isinstance(config.mode, seal.BinaryTcf)
                else f"k{config.mode.k}"
            ),
        ),
    )
    patches.function(
        exp, "mixture_diagnostic",
        batch("experiment.mixture_diagnostic", lambda *a, **kw: "mixture"),
    )
    patches.function(exp, "fig1_curve", named("experiment.fig1_curve"))
    patches.function(exp, "_spawned_rng", named("experiment.rng"))

    patches.function(seal, "alice_seal_binary", named("seal.seal"))
    patches.function(
        seal, "alice_seal_nary", named(lambda k, *a, **kw: f"seal.seal.k{k}")
    )
    patches.method(seal.SealPackage, "__post_init__", named("seal.package_check"))
    patches.method(seal.AliceSecret, "__post_init__", named("seal.record_check"))
    patches.function(seal, "bob_respond", named("seal.respond"))
    patches.function(seal, "bob_open", named("seal.open"))
    patches.function(seal, "alice_verify_quantum", named("seal.verify"))
    patches.function(seal, "alice_verify_classical", named("seal.verify"))

    patches.function(tcf, "keygen", named("tcf.keygen"))
    patches.function(tcf, "sample_claw", named("tcf.claw"))
    patches.method(tcf.TcfOracle, "eval", named("tcf.eval"))
    patches.method(tcf.TcfKeyPair, "eval", named("tcf.eval"))

    patches.function(sym, "enc", named("symcrypto.enc"))
    patches.function(sym, "key_tag", named("symcrypto.key_tag"))
    patches.function(sym, "find_and_dec", named("symcrypto.dec"))

    patches.function(sps, "uniform_superposition", named("sparsestate.superpose"))
    patches.function(sps, "measure_computational", named("sparsestate.measure"))
    patches.function(sps, "hadamard_measure", named("sparsestate.hadamard"))
    patches.function(sps, "helstrom_discriminate", named("sparsestate.helstrom"))
    patches.function(sps, "inner_product", named("sparsestate.inner_product"))
    patches.method(sps.SparseState, "__post_init__", named("sparsestate.state_check"))

    patches.method(bits.BitString, "random", named("bits.random"))
    patches.method(bits.BitString, "encode", named("bits.encode"))

    short = {
        docs.KIND_PACKAGE: "package",
        docs.KIND_SECRET: "secret",
        docs.KIND_RETURN: "return",
    }
    patches.function(
        docs,
        "parse_document",
        named(
            lambda text, expected_kind=None: (
                f"documents.{short.get(expected_kind, 'other')}_parse"
            )
        ),
    )
    for part in ("package", "secret", "return"):
        patches.function(docs, f"{part}_to_document", named(f"documents.{part}_encode"))
        patches.function(
            docs, f"{part}_from_payload", named(f"documents.{part}_from_payload")
        )

    patches.function(cli, "build_parser", named("cli.parser"))
    patches.function(cli, "main", named(lambda argv, *a, **kw: f"cli.cmd.{argv[0]}"))
    return patches
