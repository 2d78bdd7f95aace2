"""In-memory spans for the traced run, written out as JSON when it ends.

A span has a name, a start, an end, a parent span and an operation id. Calls
made once per trace or per suborder (hundreds of thousands in a run) are not
kept one by one: each ``(name, parent)`` pair gets one span whose ``calls``
counts the calls and whose ``busy`` sums their durations, from the first
call's start to the last call's end. A span's self time is its busy time
minus the busy time of its children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    calls: int = 1
    busy: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._aggregate: dict[tuple[str, int], int] = {}
        self.op = 0

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    @contextmanager
    def span(self, name: str, calls: int = 1):
        """One interval; ``calls`` says how many calls of ``name`` it covers."""
        index = len(self.spans)
        span = Span(name, perf_counter() - self.origin, 0.0, self._parent(), self.op, calls)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = perf_counter() - self.origin
            span.busy = span.end - span.start

    @contextmanager
    def operation(self, name: str):
        """A root span that starts a new operation id."""
        self.op += 1
        with self.span(name) as span:
            yield span

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call of ``fn`` into the aggregate span ``name``."""
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        t1 = perf_counter()
        slot = (name, self._parent())
        index = self._aggregate.get(slot)
        if index is None:
            index = self._aggregate[slot] = len(self.spans)
            self.spans.append(Span(name, t0 - self.origin, 0.0, slot[1], self.op, 0))
        span = self.spans[index]
        span.calls += 1
        span.busy += t1 - t0
        span.end = t1 - self.origin
        return result

    def totals(self, since: int = 0) -> dict[str, tuple[float, int]]:
        """Busy seconds and calls per span name, over spans from ``since`` on."""
        out: dict[str, tuple[float, int]] = {}
        for s in self.spans[since:]:
            busy, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (busy + s.busy, calls + s.calls)
        return out

    def self_times(self) -> dict[str, float]:
        """Busy time minus children's busy time, summed per span name."""
        own = [s.busy for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.busy
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def write(self, path, **header) -> None:
        doc = dict(header)
        doc["self_times_s"] = self.self_times()
        doc["spans"] = [asdict(s) for s in self.spans]
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
