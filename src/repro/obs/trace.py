"""Per-request tracing: trace ids, span records, sampled ring buffer.

One trace per sampled request.  The id is minted at the HTTP/service
boundary (or taken from a client ``X-Request-Id`` header); the active
:class:`TraceContext` rides a :mod:`contextvars` variable so the
service and the index never pass it explicitly — they just open
spans.

Sampling is **deterministic**: a fractional accumulator admits
exactly ``sample_rate`` of requests (every request at 1.0, none at
0.0, every other at 0.5) with no randomness — the repository's
determinism discipline applies to observability too.  Finished
traces land in a bounded ring buffer surfaced by ``/v1/stats``.

Span records are plain dicts so they serialize to JSON unchanged:

``{"name", "trace_id", "span_id", "parent_id", "start", "duration"}``

with ``start`` in Unix seconds and ``duration`` in seconds.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

Span = Dict[str, object]

#: the ambient trace of the current request (None = not sampled)
_current: "ContextVar[Optional[TraceContext]]" = ContextVar(
    "repro_obs_trace", default=None)


def make_span(name: str, trace_id: str, span_id: str,
              parent_id: Optional[str], start: float,
              duration: float) -> Span:
    """One span record; a plain dict so it serializes to JSON."""
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "start": start,
        "duration": duration,
    }


class TraceContext:
    """All spans of one sampled request.

    A context belongs to the request's driving thread.  Span ids are
    sequential per trace, so a trace is reproducible given the same
    request flow.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._next = 0
        self._stack: List[str] = []
        self._lock = threading.Lock()

    def _mint_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"s{self._next}"

    @property
    def active_span_id(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a child span of the innermost active span."""
        record = make_span(name, self.trace_id, self._mint_id(),
                           self.active_span_id, time.time(), 0.0)
        self._stack.append(str(record["span_id"]))
        begun = time.perf_counter()
        try:
            yield record
        finally:
            record["duration"] = time.perf_counter() - begun
            self._stack.pop()
            with self._lock:
                self.spans.append(record)

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            spans = list(self.spans)
        return {
            "trace_id": self.trace_id,
            "spans": spans,
            "duration": max(
                (float(span["duration"])  # type: ignore[arg-type]
                 for span in spans if span["parent_id"] is None),
                default=0.0),
        }


@contextlib.contextmanager
def activate(context: Optional[TraceContext]) -> Iterator[
        Optional[TraceContext]]:
    """Make ``context`` the ambient trace for the enclosed block.

    ``None`` deactivates tracing for the block, which is also the
    no-sample fast path — :func:`span` then degrades to a bare
    ``yield``.
    """
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


def current_trace() -> Optional[TraceContext]:
    """The ambient trace of the calling context (None = unsampled)."""
    return _current.get()


@contextlib.contextmanager
def span(name: str) -> Iterator[Optional[Span]]:
    """Open a span on the ambient trace; no-op when unsampled."""
    context = _current.get()
    if context is None:
        yield None
        return
    with context.span(name) as record:
        yield record


class Tracer:
    """Deterministic sampler + bounded ring of finished traces."""

    def __init__(self, sample_rate: float = 0.0,
                 ring_size: int = 32) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate!r}")
        self.sample_rate = sample_rate
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self.requests = 0
        self.sampled = 0
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=ring_size)

    def begin(self, trace_id: str) -> Optional[TraceContext]:
        """Admit or skip one request; returns its context if sampled.

        The fractional accumulator admits exactly ``sample_rate`` of
        the request stream with no randomness: at 0.25 every fourth
        request carries a trace, at 1.0 every request does.
        """
        with self._lock:
            self.requests += 1
            if self.sample_rate <= 0.0:
                return None
            self._accumulator += self.sample_rate
            if self._accumulator < 1.0:
                return None
            self._accumulator -= 1.0
            self.sampled += 1
        return TraceContext(trace_id)

    def finish(self, context: Optional[TraceContext]) -> None:
        """Archive a finished trace into the ring buffer."""
        if context is None:
            return
        with self._lock:
            self._ring.append(context.to_dict())

    def recent(self) -> List[Dict[str, object]]:
        """Finished traces, oldest first (bounded by the ring size)."""
        with self._lock:
            return list(self._ring)

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "requests": self.requests,
                "sampled": self.sampled,
                "recent": list(self._ring),
            }
