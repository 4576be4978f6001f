"""Timing and spans for the benchmark's calls into ``feynperiods``.

Every call the benchmark makes into the package goes through
:meth:`Recorder.call`, which always times it: an op's latency is the sum of
its program calls, so oracle checks never count as program time.  With
tracing on, each call also leaves a span (name, start, end, parent, op id)
in memory, under the op's own root span; spans are written out once the run
ends.  Counters record work done at the same boundaries in both modes.

Around every op the recorder also times a fixed pure-Python reference
routine, which does no work in the package.  On a shared host the speed of
a core drifts by 30% and more over seconds to minutes, for pure-Python code
of every kind much alike; an op's latency divided by the reference time next
to it, times REFERENCE_S, is its latency at one fixed speed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from fractions import Fraction

_clock = time.perf_counter

# The unit of speed: latencies are scaled as if the reference routine took
# this long, about its median time on a 2-vCPU x86-64 VM.
REFERENCE_S = 180e-6


def _reference_work():
    counts = {}
    for i in range(400):
        counts[i % 37] = counts.get(i % 37, 0) + i * 3
    x = Fraction(1, 3)
    for i in range(1, 30):
        x = x * Fraction(i, i + 1) + 1
    return counts, x


def reference_seconds(repeats=5):
    """Seconds the reference routine takes now: the median of ``repeats`` timings."""
    times = []
    for _ in range(repeats):
        start = _clock()
        _reference_work()
        times.append(_clock() - start)
    return sorted(times)[repeats // 2]


class Recorder:
    """Per-run timing state: op latencies, spans and counters."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []  # (id, parent, op id, name, start, end)
        self.counts = Counter()
        self._op = None  # [op id, root span id, program seconds]
        self._next_op = 0

    def begin_op(self, kind):
        self._next_op += 1
        reference = reference_seconds()
        root = len(self.spans) if self.traced else None
        if self.traced:
            self.spans.append([root, None, self._next_op, f"op.{kind}", _clock(), None])
        self._op = [self._next_op, root, 0.0, reference]

    def end_op(self):
        """Close the current op: its program seconds and the reference seconds around it."""
        _, root, busy, reference = self._op
        if self.traced:
            self.spans[root][5] = _clock()
        self._op = None
        return busy, (reference + reference_seconds()) / 2

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as one program call of the current op, named ``name``.

        ``name`` is ``<module>.<what>``; the module part is the layer.
        """
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            op = self._op
            op[2] += end - start
            if self.traced:
                self.spans.append((len(self.spans), op[1], op[0], name, start, end))

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self):
        """Seconds and call counts by span name, with child time removed."""
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[4], span[5]))
        busy = defaultdict(float)
        calls = Counter()
        for sid, _, _, name, start, end in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            busy[name] += (end - start) - covered
            calls[name] += 1
        return busy, calls

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
