"""Dependency-free tracing spans with thread-local context propagation.

The serving and training stacks need to answer "where did this request's
time go?" without pulling in an OpenTelemetry SDK.  This module provides
the minimal substrate real SR deployments assume:

* :func:`span` — a context manager that opens a named span under the
  current thread's active span, times it with a monotonic clock
  (``time.perf_counter``), and exports it when it closes.
* thread-local context — spans opened on the same thread nest
  automatically; :func:`attach` carries a :class:`SpanContext` across a
  thread boundary (the engine's tile workers run under the request's
  context this way).
* exporters — every :class:`Tracer` keeps a bounded
  :class:`RingBufferExporter` (what tests and ``/metrics`` aggregates
  read); a :class:`JsonlExporter` can additionally stream finished spans
  to a file for offline analysis.

Span identity follows the W3C-ish convention: a 16-hex ``trace_id``
shared by every span of one logical operation (one HTTP request, one
training step) and an 8-hex ``span_id`` per span, with ``parent_id``
linking the tree.  Spans are exported on *finish*, so children appear
before their parents in export order; :func:`span_tree` rebuilds the
hierarchy.

Everything is thread-safe and allocation-light: opening and closing a
span costs two ``perf_counter`` calls, one ``os.urandom``, and one
locked ring-buffer append — negligible next to a single conv2d tile.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "RingBufferExporter",
    "JsonlExporter",
    "span",
    "current_span",
    "attach",
    "get_tracer",
    "set_tracer",
    "new_trace_id",
    "span_tree",
]

_context = threading.local()


def new_trace_id() -> str:
    """Fresh 16-hex trace identifier."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    return os.urandom(4).hex()


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: enough to parent children to it."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One finished (or in-flight) timed operation.

    ``start_ms`` is a monotonic-clock offset (``time.perf_counter``), so
    differences between spans of one process are meaningful but absolute
    values are not; ``wall_time`` is the epoch timestamp at open, kept for
    JSONL readers that want to line spans up with external logs.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start_ms: float = 0.0
    duration_ms: float = 0.0
    wall_time: float = 0.0
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serialisable form (what the JSONL exporter writes)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "wall_time": self.wall_time,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class RingBufferExporter:
    """Keeps the last ``capacity`` finished spans in memory.

    This is the exporter tests assert against and the one ``/metrics``
    reads for live span aggregates; it is always installed on a
    :class:`Tracer`.  Old spans fall off the end silently — it is a
    flight recorder, not an archive.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._spans: List[Span] = []
        self._next = 0
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) < self.capacity:
                self._spans.append(span)
            else:
                self._spans[self._next % self.capacity] = span
            self._next += 1

    def spans(self) -> List[Span]:
        """All retained spans, oldest first."""
        with self._lock:
            if len(self._spans) < self.capacity:
                return list(self._spans)
            cut = self._next % self.capacity
            return self._spans[cut:] + self._spans[:cut]

    def trace(self, trace_id: str) -> List[Span]:
        """Retained spans belonging to one trace, oldest first."""
        return [s for s in self.spans() if s.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans = []
            self._next = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class JsonlExporter:
    """Appends one JSON object per finished span to a file.

    The file handle opens lazily on the first span and is line-buffered;
    :meth:`close` (or use as a context manager) flushes it.  Writing is
    serialised by a lock, so concurrent engine workers produce valid,
    uninterleaved lines.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _stack() -> List[Span]:
    stack = getattr(_context, "stack", None)
    if stack is None:
        stack = _context.stack = []
    return stack


def current_span() -> Optional[Span]:
    """The innermost span open on this thread (or ``None``)."""
    stack = _stack()
    return stack[-1] if stack else None


def _current_parent() -> Optional[SpanContext]:
    """Active parent context: innermost span, else an attached context."""
    sp = current_span()
    if sp is not None:
        return sp.context
    return getattr(_context, "attached", None)


@contextmanager
def attach(ctx: Optional[SpanContext]) -> Iterator[None]:
    """Adopt ``ctx`` as this thread's parent context.

    Used to carry a trace across a thread boundary: the submitting side
    captures ``span.context``, the worker wraps its work in
    ``with attach(ctx): ...`` and any spans it opens become children of
    the original span.  ``attach(None)`` is a no-op, which lets callers
    pass contexts through unconditionally.
    """
    if ctx is None:
        yield
        return
    prev = getattr(_context, "attached", None)
    _context.attached = ctx
    try:
        yield
    finally:
        _context.attached = prev


class Tracer:
    """Factory for spans plus the exporters that receive them.

    Every tracer owns a :class:`RingBufferExporter` (``tracer.ring``) and
    running per-name aggregates (count / total duration / errors) that
    the Prometheus endpoint renders without scanning the ring.
    """

    def __init__(
        self,
        exporters: Optional[List] = None,
        ring_capacity: int = 4096,
    ) -> None:
        self.ring = RingBufferExporter(ring_capacity)
        self._exporters = [self.ring] + list(exporters or [])
        self._agg: Dict[str, List[float]] = {}  # name -> [count, ms, errors]
        self._agg_lock = threading.Lock()

    def add_exporter(self, exporter) -> None:
        self._exporters.append(exporter)

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[Union[Span, SpanContext]] = None,
        trace_id: Optional[str] = None,
        **attrs,
    ) -> Iterator[Span]:
        """Open a span; yields the live :class:`Span` so callers can set
        attributes (``sp.attrs["cached"] = True``) while it runs.

        ``parent`` overrides the thread-local context (pass a
        :class:`SpanContext` captured on another thread); ``trace_id``
        forces the trace identity of a *root* span (ignored when a parent
        exists — children always follow their parent's trace).
        """
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            parent = _current_parent()
        if parent is not None:
            tid, pid = parent.trace_id, parent.span_id
        else:
            tid, pid = trace_id or new_trace_id(), None
        sp = Span(
            name=name,
            trace_id=tid,
            span_id=_new_span_id(),
            parent_id=pid,
            wall_time=time.time(),
            attrs=attrs,
        )
        stack = _stack()
        stack.append(sp)
        start = time.perf_counter()
        sp.start_ms = start * 1e3
        try:
            yield sp
        except BaseException as exc:
            sp.status = f"error:{type(exc).__name__}"
            raise
        finally:
            sp.duration_ms = (time.perf_counter() - start) * 1e3
            stack.pop()
            self._export(sp)

    def _export(self, sp: Span) -> None:
        with self._agg_lock:
            agg = self._agg.setdefault(sp.name, [0, 0.0, 0])
            agg[0] += 1
            agg[1] += sp.duration_ms
            agg[2] += 0 if sp.status == "ok" else 1
        for exporter in self._exporters:
            exporter.export(sp)

    # ------------------------------------------------------------------ #
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name totals since construction: count, ms, errors."""
        with self._agg_lock:
            return {
                name: {"count": int(c), "total_ms": ms, "errors": int(e)}
                for name, (c, ms, e) in sorted(self._agg.items())
            }


_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer (what :func:`span` uses)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer; returns the previous one (for restoring)."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def span(name: str, **attrs):
    """Open a span on the default tracer (see :meth:`Tracer.span`)."""
    return _default_tracer.span(name, **attrs)


def span_tree(
    spans: List[Span],
) -> Tuple[List[Span], Dict[str, List[Span]]]:
    """Rebuild a trace's hierarchy from a flat span list.

    Returns ``(roots, children)`` where ``children`` maps a span id to
    its child spans.  Spans whose parent is not in the list (e.g. fell
    off the ring) are treated as roots.
    """
    by_id = {s.span_id: s for s in spans}
    children: Dict[str, List[Span]] = {}
    roots: List[Span] = []
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    return roots, children
