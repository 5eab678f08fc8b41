"""Structured tracing: span/event records to pluggable sinks.

The trace half of :mod:`repro.obs`.  Where the metrics registry answers
"how many / how fast so far", the tracer answers "what is the run doing
right now and in what order": the instrumented drivers emit a span tree

    inventory -> frame -> slot (events)

(and analogous spans for monitoring rounds, mobile runs, multi-reader
sweeps and Monte-Carlo grid points) to whatever sink is configured.

Records are plain dicts so every sink serializes them trivially:

``span``  -- ``{"type": "span", "name", "span_id", "parent_id", "start",
"end", "duration", "attrs"}`` (emitted when the span *closes*);
``event`` -- ``{"type": "event", "name", "span_id", "time", "attrs"}``
(``span_id`` is the enclosing span, or ``None`` at top level).

Sinks:

* :class:`NullSink`       -- drops everything (the default);
* :class:`RingBufferSink` -- keeps the last ``capacity`` records in
  memory, for tests and interactive inspection;
* :class:`JsonlSink`      -- appends one JSON object per line to a file,
  the interchange format for offline span analysis.

Timestamps are wall-clock ``time.perf_counter()`` values: tracing measures
*host* execution, while the simulation's airtime clock stays inside the
:class:`~repro.sim.trace.SlotRecord` stream.  Simulation quantities that
matter to a span (airtime, slot counts) travel in ``attrs``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["Tracer", "TraceSink", "NullSink", "RingBufferSink", "JsonlSink"]

#: Process-wide span-id allocator.  Span ids must stay unique across
#: *all* tracers sharing a sink (the serve layer runs one short-lived
#: tracer per request, all appending to one JSONL file), so ids come
#: from one shared counter -- ``itertools.count.__next__`` is atomic
#: under the GIL, which makes allocation thread-safe for free.
_SPAN_IDS = itertools.count(1)


class TraceSink:
    """Sink interface: receives finished record dicts."""

    def emit(self, record: dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class NullSink(TraceSink):
    """Discards every record."""

    def emit(self, record: dict[str, object]) -> None:
        pass


class RingBufferSink(TraceSink):
    """Keeps the newest ``capacity`` records in memory."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.records: deque[dict[str, object]] = deque(maxlen=capacity)

    def emit(self, record: dict[str, object]) -> None:
        self.records.append(record)

    def spans(self, name: str | None = None) -> list[dict[str, object]]:
        return [
            r
            for r in self.records
            if r["type"] == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: str | None = None) -> list[dict[str, object]]:
        return [
            r
            for r in self.records
            if r["type"] == "event" and (name is None or r["name"] == name)
        ]


class JsonlSink(TraceSink):
    """Appends records as JSON lines to ``path``.

    Emission is locked: the serve layer shares one sink between the
    event loop and its ``to_thread`` compute workers, and two half
    written lines interleaved would corrupt the whole file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("a")
        self._lock = threading.Lock()

    def emit(self, record: dict[str, object]) -> None:
        line = json.dumps(record, allow_nan=True) + "\n"
        with self._lock:
            self._fh.write(line)

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            self._fh.close()


class Tracer:
    """Emits a span tree to a sink.

    Two APIs over the same stack:

    * the context manager :meth:`span` for lexically scoped phases;
    * the explicit :meth:`start_span` / :meth:`end_span` pair for spans
      whose boundaries only become known inside a loop (the reader learns
      a frame ended when the *next* frame's first slot arrives).

    Not thread-safe by design: one tracer per driving thread (the
    simulators are single-threaded; the serve layer binds one tracer
    per request via :mod:`repro.obs.context`, and hands it across the
    ``to_thread`` boundary only while the owning task is suspended).

    ``trace_id`` stamps every record this tracer emits, so records from
    many tracers can share one sink and still be regrouped offline (the
    serve layer uses the request id).  ``root_parent_id`` grafts this
    tracer's top-level spans under a span owned by *another* tracer --
    how a grid point's spans nest under the admitting request's
    ``serve.request`` span even though the two are emitted from
    different tasks.  Span ids come from a process-wide counter, so
    ``(trace_id, span_id)`` -- and in one process ``span_id`` alone --
    is unique across tracers.
    """

    def __init__(
        self,
        sink: TraceSink | None = None,
        *,
        trace_id: str | None = None,
        root_parent_id: int | None = None,
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.trace_id = trace_id
        self.root_parent_id = root_parent_id
        self._stack: list[dict[str, object]] = []

    # -- spans ----------------------------------------------------------

    def start_span(self, name: str, **attrs: object) -> int:
        """Open a span; returns its id.  Close with :meth:`end_span`."""
        span_id = next(_SPAN_IDS)
        record: dict[str, object] = {
            "type": "span",
            "name": name,
            "span_id": span_id,
            "parent_id": (
                self._stack[-1]["span_id"]
                if self._stack
                else self.root_parent_id
            ),
            "start": time.perf_counter(),
            "attrs": dict(attrs),
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        self._stack.append(record)
        return span_id

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent_id: int | None = None,
        **attrs: object,
    ) -> int:
        """Emit a retroactive span whose boundaries are already known.

        For phases observed only after the fact -- e.g. queue wait,
        measured when a worker dequeues the item it was enqueued with.
        The span does not touch the stack; ``parent_id`` defaults to the
        innermost open span (or ``root_parent_id``).
        """
        span_id = next(_SPAN_IDS)
        if parent_id is None:
            parent_id = (
                self._stack[-1]["span_id"]  # type: ignore[assignment]
                if self._stack
                else self.root_parent_id
            )
        record: dict[str, object] = {
            "type": "span",
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "start": start,
            "end": end,
            "duration": end - start,
            "attrs": dict(attrs),
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        self.sink.emit(record)
        return span_id

    def end_span(self, **attrs: object) -> None:
        """Close the innermost open span, merging ``attrs`` into it."""
        if not self._stack:
            raise RuntimeError("end_span with no open span")
        record = self._stack.pop()
        record["attrs"].update(attrs)  # type: ignore[union-attr]
        record["end"] = time.perf_counter()
        record["duration"] = record["end"] - record["start"]  # type: ignore[operator]
        self.sink.emit(record)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[int]:
        """``with tracer.span("inventory", n_tags=50): ...``"""
        span_id = self.start_span(name, **attrs)
        try:
            yield span_id
        finally:
            # Unwind any child spans an exception left open.
            while self._stack and self._stack[-1]["span_id"] != span_id:
                self.end_span(aborted=True)
            if self._stack:
                self.end_span()

    # -- events ---------------------------------------------------------

    def event(self, name: str, **attrs: object) -> None:
        """Point-in-time record parented to the innermost open span.

        Builds nothing when the sink :attr:`discards` records: per-slot
        events dominate the enabled reader's tracing cost, and a dropped
        record need not be assembled.
        """
        if self.discards:
            return
        record: dict[str, object] = {
            "type": "event",
            "name": name,
            "span_id": (
                self._stack[-1]["span_id"]
                if self._stack
                else self.root_parent_id
            ),
            "time": time.perf_counter(),
            "attrs": attrs,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        self.sink.emit(record)

    # -- housekeeping ---------------------------------------------------

    @property
    def discards(self) -> bool:
        """True when the sink drops every record (a :class:`NullSink`),
        so hot callers may skip assembling event attributes at all."""
        return type(self.sink) is NullSink

    @property
    def depth(self) -> int:
        return len(self._stack)

    def close(self) -> None:
        """Close any dangling spans and the sink."""
        while self._stack:
            self.end_span(aborted=True)
        self.sink.close()
