"""Spans for the traced run.

A span is (op id, span id, parent id, name, start ns, end ns, calls, work).
Spans are recorded only from the benchmark's own files, around each call
it makes into a layer of the program; nothing inside ``src/`` is touched.
Every span of one op carries the op's id.  A span around a batch of tiny
calls (an involution takes about 2 us, a span about 1 us) records the
batch size in ``calls``, so per-call figures are not mostly tracing.

With tracing off, ``span`` hands back one shared no-op object, so the
untraced run pays a method call per span and nothing else.
"""

from __future__ import annotations

import time


class _NullSpan:
    calls = 1
    work = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __setattr__(self, name, value):
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "calls", "work", "is_op", "op_id", "span_id", "parent",
                 "start")

    def __init__(self, tracer, name, calls, work, is_op=False):
        self.tracer = tracer
        self.name = name
        self.calls = calls
        self.work = work
        self.is_op = is_op

    def __enter__(self):
        tracer = self.tracer
        if self.is_op:
            tracer._op_seq += 1
            tracer.op_id = tracer._op_seq
        self.op_id = tracer.op_id
        self.parent = tracer._stack[-1] if tracer._stack else None
        self.span_id = tracer._next_id
        tracer._next_id += 1
        tracer._stack.append(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append((self.op_id, self.span_id, self.parent, self.name,
                             self.start, end, self.calls, self.work))
        if self.is_op:
            tracer.op_id = 0
        return False


class Tracer:
    """In-memory span recorder; ``records`` holds values derived outside spans."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.records = {}
        self.op_id = 0          # 0 outside any op
        self._op_seq = 0
        self._next_id = 0
        self._stack = []

    def span(self, name: str, calls: int = 1, work: int = 0):
        if not self.enabled:
            return _NULL
        return _Span(self, name, calls, work)

    def op(self, kind: str):
        """Root span of one op; the spans under it share its id."""
        if not self.enabled:
            return _NULL
        return _Span(self, "op." + kind, 1, 0, is_op=True)

    def record(self, name: str, value: float = 0.0, calls: int = 1, work: int = 0):
        if not self.enabled:
            return
        total = self.records.setdefault(name, [0.0, 0, 0])
        total[0] += value
        total[1] += calls
        total[2] += work

    def totals(self) -> dict:
        """name -> [seconds, calls, work] over all spans, plus the direct records."""
        out = {}
        for _, _, _, name, start, end, calls, work in self.spans:
            total = out.setdefault(name, [0.0, 0, 0])
            total[0] += (end - start) * 1e-9
            total[1] += calls
            total[2] += work
        for name, (value, calls, work) in self.records.items():
            total = out.setdefault(name, [0.0, 0, 0])
            total[0] += value
            total[1] += calls
            total[2] += work
        return out

    def self_seconds(self) -> dict:
        """Self time per layer: a span's duration minus what its child spans cover.

        Children run inside their parent one after another, so the covered
        part is the sum of their durations.  Op root spans count as ``bench``.
        """
        child_time = {}
        for _, _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0) + (end - start)
        out = {}
        for _, span_id, _, name, start, end, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            layer = "bench" if layer == "op" else layer
            own = (end - start) - child_time.get(span_id, 0)
            out[layer] = out.get(layer, 0.0) + own * 1e-9
        return out

    def dump(self) -> dict:
        return {
            "fields": ["op", "span", "parent", "name", "start_ns", "end_ns", "calls", "work"],
            "spans": self.spans,
            "records": self.records,
        }
