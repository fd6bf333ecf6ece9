"""In-memory spans for the traced run, and the tape subclass that times
each backward closure under the label the benchmark set before the call.

Spans are recorded from the benchmark's own code, around calls into the
package's public functions; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from treehar import numerics


class Tracer:
    """Nested spans kept in memory and written out when the run ends.

    Each span is ``[name, trace_id, parent_index, start, end]``. A span
    opened with no enclosing span starts a new trace, so every span of one
    operation (one training step, one conv call) shares a trace id.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace_id = 0

    @contextmanager
    def span(self, name: str):
        if not self._stack:
            self._trace_id += 1
        parent = self._stack[-1] if self._stack else -1
        record = [name, self._trace_id, parent, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def per_trace_ms(self, name: str) -> list:
        """Summed duration of ``name`` within each trace that has it, in ms."""
        totals = defaultdict(float)
        for span_name, trace_id, _, start, end in self.spans:
            if span_name == name:
                totals[trace_id] += (end - start) * 1e3
        return list(totals.values())

    def median_ms(self, name: str) -> float:
        values = self.per_trace_ms(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def self_ms(self) -> dict:
        """Total self time per span name: duration minus child durations.
        Spans of one thread never overlap, so children tile their parent."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start - child[i]) * 1e3
        return dict(totals)

    def write(self, path):
        origin = self.spans[0][3] if self.spans else 0.0
        doc = {
            "fields": ["name", "trace_id", "parent", "start_ms", "duration_ms"],
            "spans": [
                [name, trace_id, parent, (start - origin) * 1e3, (end - start) * 1e3]
                for name, trace_id, parent, start, end in self.spans
            ],
            "self_ms": self.self_ms(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class TracingTape(numerics.Tape):
    """A Tape whose backward closures each run inside a ``<label>.bwd``
    span, where ``label`` is whatever the caller set before recording."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer
        self.label = "unlabelled"

    def record(self, out, bwd):
        name = self.label + ".bwd"
        span = self.tracer.span

        def traced(g, acc):
            with span(name):
                bwd(g, acc)

        super().record(out, traced)

    def gradients(self, loss):
        with self.tracer.span("numerics.tape.gradients"):
            return super().gradients(loss)
