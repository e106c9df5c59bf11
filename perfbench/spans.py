"""Spans and counters around gramsem's public functions, for traced runs.

:meth:`Tracer.install` replaces each timed function in every ``gramsem``
module namespace that holds it, so calls are seen wherever callers look the
name up (``functor`` calls its own imported ``contract``, for instance).
Nothing under ``src/`` changes.  A span's self time is its duration minus
the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span; monotone and oracle are not
# timed because no workload's users wait on them.
TIMED = [
    ("pregroup", "parse_type_expr"),
    ("pregroup", "enumerate_reductions"),
    ("functor", "enumerate_analyses"),
    ("functor", "sentence_meaning"),
    ("linalg", "tensor_product"),
    ("linalg", "contract"),
    ("corpus", "tokenize"),
    ("corpus", "count_cooccurrence"),
    ("corpus", "build_noun_vector"),
    ("corpus", "save_lexicon"),
    ("corpus", "load_lexicon"),
    ("cli", "main"),
]

# per-layer metrics the traced run reports, with their units
LAYER_METRICS = {
    "pregroup.parse_type_expr.ms": "ms",
    "pregroup.enumerate_reductions.calls": "count",
    "pregroup.enumerate_reductions.ms": "ms",
    "pregroup.reductions_returned": "count",
    "pregroup.limit1.ms": "ms",
    "functor.enumerate_analyses.ms": "ms",
    "functor.analyses_built": "count",
    "functor.analyses_used_ratio": "ratio",
    "linalg.tensor_product.calls": "count",
    "linalg.tensor_product.ms": "ms",
    "linalg.contract.calls": "count",
    "linalg.contract.ms": "ms",
    "linalg.elements_materialised": "count",
    "linalg.largest_tensor_mb": "MB",
    "corpus.tokenize.ms": "ms",
    "corpus.tokens": "count",
    "corpus.count_cooccurrence.ms": "ms",
    "corpus.window_pairs": "count",
    "corpus.build_noun_vector.ms": "ms",
    "corpus.save_lexicon.ms": "ms",
    "corpus.lexicon_mb_written": "MB",
    "corpus.load_lexicon.ms": "ms",
    "cli.interpreter_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
}


class Tracer:
    """Records spans in memory and sums self times and counters per phase.

    ``phase`` is ``"setup"``, ``"warmup"`` or ``"ops"``; ``op`` is the
    identifier shared by the spans of one operation."""

    def __init__(self):
        self.phase = "setup"
        self.op = None
        self.spans = []
        self.sums = defaultdict(lambda: defaultdict(float))
        self.largest_bytes = 0
        self._stack = []

    def install(self):
        for modname, fname in TIMED:
            original = getattr(sys.modules[f"gramsem.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for name, module in list(sys.modules.items()):
                if name == "gramsem" or name.startswith("gramsem."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                sums = self.sums[self.phase]
                sums[name + ".ms"] += (t1 - t0 - frame[1]) * 1e3
                sums[name + ".calls"] += 1
                self.spans.append((self.phase, self.op, name, parent, t0, t1))
                if returned:
                    self._count(name, parent, args, kwargs, result,
                                (t1 - t0) * 1e3, sums)
        return wrapper

    def _count(self, name, parent, args, kwargs, result, ms, sums):
        if name == "pregroup.enumerate_reductions":
            sums["pregroup.reductions_returned"] += len(result)
            limit = args[2] if len(args) > 2 else kwargs.get("limit")
            if limit == 1:
                sums["pregroup.limit1.ms"] += ms
        elif name == "functor.enumerate_analyses":
            sums["functor.analyses_built"] += len(result)
            if parent != "functor.sentence_meaning":
                sums["functor.analyses_used"] += len(result)
        elif name == "functor.sentence_meaning":
            sums["functor.analyses_used"] += 1
        elif name in ("linalg.tensor_product", "linalg.contract"):
            sums["linalg.elements_materialised"] += result.array.size
            self.largest_bytes = max(self.largest_bytes, result.array.nbytes)
        elif name == "corpus.tokenize":
            sums["corpus.tokens"] += len(result)
        elif name == "corpus.count_cooccurrence":
            sums["corpus.window_pairs"] += sum(result.counts.values())
        elif name == "cli.main":
            sums["cli.main_ms"] += ms
        elif name == "corpus.save_lexicon":
            path = args[1] if len(args) > 1 else kwargs["path"]
            sums["corpus.lexicon_mb_written"] += os.path.getsize(path) / 1e6

    def metrics(self, setups, rounds, extra):
        """Per-layer values for one set-up plus one round of operations:
        set-up sums divided by the set-up repetitions, operation sums by
        the rounds.  ``extra`` supplies the cli.* process timings.
        ``cli.main_ms`` is the whole time of the in-process ``main`` calls."""
        per = defaultdict(float)
        for phase, div in (("setup", setups), ("ops", rounds)):
            for key, value in self.sums[phase].items():
                per[key] += value / div if div else 0.0
        built = per["functor.analyses_built"]
        per["functor.analyses_used_ratio"] = (
            per["functor.analyses_used"] / built if built else 0.0)
        per["linalg.largest_tensor_mb"] = self.largest_bytes / 1e6
        per.update(extra)
        return {name: {"value": per.get(name, 0.0), "unit": unit}
                for name, unit in LAYER_METRICS.items()}

    def write(self, path):
        """Write the spans as JSON lines: phase, op, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
