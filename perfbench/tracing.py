"""In-memory span recording around the benchmark's calls into each layer.

Spans live in the benchmark's own code, never inside the program: each
workload wraps its calls into a layer's public functions in
``tracer.span(name)``.  A root span starts a new trace; spans opened
inside it (on the same thread) share its trace id and name it as their
parent.  Nothing is written until the run ends (:meth:`Tracer.write_jsonl`).

Untraced runs and phases pass a :class:`NullTracer` along the same code
path: its ``span`` returns a shared no-op context, so the end-to-end
numbers carry no recording cost.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    span_id: int
    parent_id: int | None
    trace_id: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records spans in memory; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._current.get()
        span_id = next(self._ids)
        rec = Span(
            name=name,
            start=0.0,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else span_id,
            attrs=attrs,
        )
        token = self._current.set(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(rec)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """The span's duration minus what its direct children cover."""
        covered = sum(
            s.duration for s in self.spans if s.parent_id == span.span_id
        )
        return span.duration - covered

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        with path.open("w") as fh:
            for s in ordered:
                fh.write(json.dumps(s.to_json(), sort_keys=True) + "\n")


class NullTracer:
    """Tracing off: every span is the same inert context."""

    _NULL = contextlib.nullcontext(None)

    def span(self, name: str, **attrs):
        return self._NULL
