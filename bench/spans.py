"""In-memory spans around the calls the benchmark makes into ``dnll``.

A span is ``[name, parent, start, end]``; ``parent`` is the index of the
span that was open when it started (-1 at top level). Spans are kept in a
list and written out once, when the run ends.

``Tracer.patch`` swaps the library functions that ``dnll.trainer`` bound
at import time for timing wrappers. Patching ``dnll.nn.forward`` alone
would miss every call, because the trainer calls its own reference. The
evaluation helpers call ``forward`` and ``softmax`` through the same module
globals, so their spans nest under ``evaluate`` / ``evaluate_ensemble``.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count_sets(counts, args, result):
    counts["negative_labels.sets"] += len(args[0])
    counts["negative_labels.fallbacks"] += int(result[2])


def _count_bytes(counts, args, result):
    counts["checkpoint.bytes"] += os.path.getsize(args[0])


# Span name for each function ``dnll.trainer`` imports, with an optional
# counter hook that sees the call's positional arguments and result.
TRAINER_CALLS = {
    "forward": ("nn.forward", None),
    "backprop_from": ("nn.backprop", None),
    "softmax": ("nn.softmax", None),
    "cross_entropy": ("losses.cross_entropy", None),
    "negative_loss": ("losses.negative_loss", None),
    "sample_negative_batch": ("negative_labels.sample", _count_sets),
    "update_misclass_profile": ("negative_labels.profile", None),
    "sgd_step": ("optim.sgd_step", None),
    "augment_batch": ("data.augment", None),
    "evaluate": ("trainer.evaluate", None),
    "evaluate_ensemble": ("trainer.evaluate_ensemble", None),
    "save_checkpoint": ("checkpoint.save", _count_bytes),
    "load_checkpoint": ("checkpoint.load", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def patch(self, module):
        """Replace ``module.<attr>`` for every TRAINER_CALLS entry with a
        traced wrapper for the duration."""
        originals = {attr: getattr(module, attr) for attr in TRAINER_CALLS}
        try:
            for attr, (name, hook) in TRAINER_CALLS.items():
                setattr(module, attr, self.wrap(name, originals[attr], hook))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans are opened from one thread, so children never
        overlap each other.
        """
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def under(self, child: str, parents: set[str]) -> int:
        """Number of ``child`` spans whose direct parent is named in ``parents``."""
        return sum(
            1 for name, parent, _, _ in self.spans
            if name == child and parent >= 0 and self.spans[parent][0] in parents
        )
