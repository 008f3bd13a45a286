"""In-memory span tracer with exact self-time arithmetic, async-aware.

A span covers one call into a layer.  Its *self time* is the part of its
duration not covered by its child spans.  Coroutine spans cross
``await``s: while one is suspended, other tasks run (and record their own
spans), so the tracer only charges a span for the *segments* during which
it is actually executing.

The bookkeeping is one stack of executing spans.  Every push/pop charges
the time since the previous transition to the span that was on top, so:

* a span's self time is exactly the time it spent on top of the stack;
* the sum of all self times plus the time the stack was empty equals the
  wall time of the window — the per-layer table's ``other`` row is that
  empty-stack residual;
* a suspended coroutine span is off the stack and accrues nothing.

Aggregates are kept per span name.  Individual span records (name, start,
end, parent, trace id) go into flat arrays, up to a cap, so a traced run
keeps them in memory without creating GC-tracked objects, and
:meth:`SpanTracer.write_jsonl` writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Optional

__all__ = ["LayerTotals", "SpanTracer", "TracedAwaitable"]

#: Span records kept in memory per traced window (aggregates are exact
#: regardless; the cap only bounds the exported record list).
DEFAULT_MAX_RECORDS = 400_000


class LayerTotals:
    """Per-name aggregate: call count and time sums in seconds."""

    __slots__ = ("calls", "self_time", "wall_time", "child_time", "samples")

    def __init__(self) -> None:
        self.calls = 0
        #: time this layer's spans spent on top of the stack.
        self.self_time = 0.0
        #: sum of (end - start) over finished spans, suspensions included.
        self.wall_time = 0.0
        #: executing time of the finished spans' descendants.
        self.child_time = 0.0
        #: per-call self times, when the layer asked for a distribution.
        self.samples: Optional[array] = None


class _Span:
    __slots__ = ("totals", "record", "start", "self_time", "child_time",
                 "trace_id", "active")

    def __init__(self, totals, record, start, trace_id):
        self.totals = totals
        self.record = record
        self.start = start
        self.self_time = 0.0
        self.child_time = 0.0
        self.trace_id = trace_id
        self.active = True


class SpanTracer:
    """Stack-based tracer for one thread (one asyncio loop)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_records: int = DEFAULT_MAX_RECORDS):
        self.clock = clock
        self.max_records = max_records
        self.totals: Dict[str, LayerTotals] = {}
        self._stack: List[_Span] = []
        self._last = clock()
        # Flat span records; index = span id.
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._rec_name = array("H")
        self._rec_start = array("d")
        self._rec_end = array("d")
        self._rec_parent = array("l")
        self._rec_trace = array("q")
        self.dropped_records = 0

    # -- aggregates --------------------------------------------------------------

    def layer(self, name: str, distribution: bool = False) -> LayerTotals:
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = LayerTotals()
        if distribution and totals.samples is None:
            totals.samples = array("d")
        return totals

    def idle_time(self, wall: float) -> float:
        """Window wall time not charged to any span (``other``)."""
        return wall - sum(t.self_time for t in self.totals.values())

    # -- transitions -------------------------------------------------------------

    def _charge(self, now: float) -> None:
        stack = self._stack
        if stack:
            top = stack[-1]
            elapsed = now - self._last
            top.self_time += elapsed
            top.totals.self_time += elapsed
        self._last = now

    def open(self, name: str, trace_id: int = 0, distribution: bool = False) -> _Span:
        """Start a span as a child of the executing span and push it."""
        now = self.clock()
        self._charge(now)
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and not trace_id:
            trace_id = parent.trace_id
        record = self._new_record(name, now, parent, trace_id)
        span = _Span(self.layer(name, distribution), record, now, trace_id)
        stack.append(span)
        return span

    def suspend(self, span: _Span) -> None:
        """A coroutine span hit an ``await`` that yields to the loop."""
        now = self.clock()
        self._charge(now)
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - nesting bug guard
            raise RuntimeError("span stack out of order on suspend")
        span.active = False

    def resume(self, span: _Span) -> None:
        now = self.clock()
        self._charge(now)
        self._stack.append(span)
        span.active = True

    def close(self, span: _Span) -> None:
        now = self.clock()
        if span.active:
            self._charge(now)
            popped = self._stack.pop()
            if popped is not span:  # pragma: no cover - nesting bug guard
                raise RuntimeError("span stack out of order on close")
            span.active = False
        totals = span.totals
        totals.calls += 1
        totals.wall_time += now - span.start
        totals.child_time += span.child_time
        if totals.samples is not None:
            totals.samples.append(span.self_time)
        stack = self._stack
        if stack:
            stack[-1].child_time += span.self_time + span.child_time
        if span.record >= 0:
            self._rec_end[span.record] = now

    # -- records -----------------------------------------------------------------

    def _new_record(self, name, now, parent, trace_id) -> int:
        index = len(self._rec_start)
        if index >= self.max_records:
            self.dropped_records += 1
            return -1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._rec_name.append(name_id)
        self._rec_start.append(now)
        self._rec_end.append(-1.0)
        self._rec_parent.append(parent.record if parent is not None else -1)
        self._rec_trace.append(trace_id)
        return index

    def record_count(self) -> int:
        return len(self._rec_start)

    def write_jsonl(self, path) -> int:
        """Write every kept span as one JSON object per line; returns the
        number written.  Times are seconds on the tracer's clock."""
        names = self._names
        with open(path, "w", encoding="utf-8") as out:
            for index in range(len(self._rec_start)):
                out.write(json.dumps({
                    "id": index,
                    "name": names[self._rec_name[index]],
                    "start": self._rec_start[index],
                    "end": self._rec_end[index],
                    "parent": self._rec_parent[index],
                    "trace_id": self._rec_trace[index],
                }) + "\n")
        return len(self._rec_start)


class TracedAwaitable:
    """Drive a coroutine step by step, charging only its executing
    segments to one span (see the module docstring)."""

    __slots__ = ("tracer", "name", "coro", "trace_id")

    def __init__(self, tracer: SpanTracer, name: str, coro, trace_id: int = 0):
        self.tracer = tracer
        self.name = name
        self.coro = coro
        self.trace_id = trace_id

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        span = tracer.open(self.name, self.trace_id)
        send_value, error = None, None
        try:
            while True:
                try:
                    if error is not None:
                        pending, error = error, None
                        yielded = coro.throw(pending)
                    else:
                        yielded = coro.send(send_value)
                except StopIteration as stop:
                    return stop.value
                tracer.suspend(span)
                try:
                    send_value = yield yielded
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine
                    send_value, error = None, exc
                tracer.resume(span)
        finally:
            tracer.close(span)
