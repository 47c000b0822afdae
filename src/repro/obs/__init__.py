"""End-to-end observability: metrics, request tracing, structured logs.

The serving tier spans a router, in-process shards, WALs, a
reuse cache and a candidate index; the engine adds chunked and sharded
execution.  This package is the one place their runtime
behaviour becomes *observable* — and nothing more: every instrument
here records what happened without steering what happens.  Timings
observe, never steer; enabling metrics or tracing changes no float,
no iteration order, no result byte (the serve equivalence suite
enforces this).

* :mod:`repro.obs.registry` — a thread-safe metrics registry:
  counters, gauges and fixed-bucket latency histograms with p50/p99
  summaries, rendered in the Prometheus text exposition format for
  ``GET /v1/metrics``;
* :mod:`repro.obs.trace` — per-request traces: an id minted at the
  HTTP boundary (or taken from ``X-Request-Id``), span records
  (name, parent, start, duration, shard id) collected through the
  service, the cluster router and its shard calls, sampled into a
  bounded ring buffer;
* :mod:`repro.obs.log` — structured JSON line logging (one object
  per line, sorted keys) replacing silent paths and
  ``BaseHTTPRequestHandler``'s raw stderr access lines, including
  the threshold-gated slow-query log.

Everything is stdlib-only and dependency-free, like the rest of the
repository.  See ``docs/observability.md`` for the metric catalog,
the span model and the sampling semantics.
"""

from repro.obs.log import StructuredLogger, get_logger
from repro.obs.registry import (Counter, Gauge, Histogram,
                                MetricsRegistry, percentile)
from repro.obs.trace import (Span, TraceContext, Tracer, activate,
                             current_trace, span)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "StructuredLogger",
    "TraceContext",
    "Tracer",
    "activate",
    "current_trace",
    "get_logger",
    "percentile",
    "span",
]
