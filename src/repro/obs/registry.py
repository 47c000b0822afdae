"""Thread-safe metrics registry with Prometheus text exposition.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — a monotonically increasing total.  Sources that
  already keep their own counters (the index's pruning counters, the
  service's cache hits/misses, WAL append/sync totals) synchronize
  them in through :meth:`Counter.set_total` from a registered
  *collector* at scrape time, so the existing counters stay the
  single source of truth and the hot paths gain no new writes;
* :class:`Gauge` — a value that can go up and down (cache entries,
  live records, largest kernel call);
* :class:`Histogram` — fixed cumulative buckets plus sum and count,
  with :meth:`Histogram.percentile` interpolating p50/p99 estimates
  from the bucket boundaries (the classic ``histogram_quantile``
  math).  Latency histograms observe **seconds** — the Prometheus
  base-unit convention — and the default bucket ladder spans 500µs
  to 10s.

Instruments are identified by ``(name, labels)``; :meth:`MetricsRegistry.
render` emits the text exposition format (``# HELP`` / ``# TYPE``
lines, one sample per label set, ``_bucket``/``_sum``/``_count``
series for histograms) and :meth:`MetricsRegistry.summary` the same
data as a JSON-friendly dict for ``/v1/stats``.

Everything locks around mutation, so HTTP worker threads can observe
while a scrape renders.  No instrument ever feeds back into the code
it measures: registering, observing and rendering are side-effect
free with respect to matching results.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: default latency ladder (seconds): 500µs .. 10s, then +Inf
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: default ladder for size-style histograms (records per kernel call)
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

Labels = Tuple[Tuple[str, str], ...]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of raw ``values`` (0.0 on empty).

    The helper the engine's profile summaries share with the
    registry; histogram percentiles use bucket interpolation instead
    (:meth:`Histogram.percentile`).
    """
    if not values:
        return 0.0
    ranked = sorted(values)
    index = min(len(ranked) - 1,
                int(round(fraction * (len(ranked) - 1))))
    return ranked[index]


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers without the ``.0``."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n") \
        .replace('"', '\\"')


def _render_labels(labels: Labels, extra: Optional[Tuple[str, str]] = None,
                   ) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{key}="{_escape_label(str(value))}"'
                        for key, value in pairs)
    return "{" + rendered + "}"


class _Instrument:
    """Shared plumbing: identity, help text, a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()

    def samples(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc {amount!r})")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Synchronize from an external counter (collector path).

        The external source is authoritative and itself monotonic, so
        the set never moves the sample backwards in practice; a
        defensive clamp keeps the exposition monotone even if a
        source resets (e.g. a restored shard).
        """
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} "
                f"{_format_value(self.value)}"]


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} "
                f"{_format_value(self.value)}"]


class Histogram(_Instrument):
    """Fixed cumulative buckets + sum + count, Prometheus style.

    ``buckets`` are the finite upper bounds (``le`` values) in
    ascending order; an implicit ``+Inf`` bucket catches the rest.
    ``observe`` takes the measured value in the histogram's base unit
    (seconds for latencies).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, labels: Labels,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} needs strictly increasing buckets, "
                f"got {buckets!r}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[position] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def percentile(self, fraction: float) -> float:
        """Estimate the ``fraction`` quantile from the buckets.

        Linear interpolation inside the first bucket whose cumulative
        count reaches the rank — the ``histogram_quantile`` estimate.
        Observations beyond the last finite bound clamp to it (the
        same convention Prometheus uses for the ``+Inf`` bucket).
        """
        counts, _sum, total = self._snapshot()
        if total == 0:
            return 0.0
        rank = fraction * total
        cumulative = 0
        previous_bound = 0.0
        for position, bound in enumerate(self.buckets):
            bucket_count = counts[position]
            if cumulative + bucket_count >= rank:
                if bucket_count == 0:  # pragma: no cover - defensive
                    return bound
                within = (rank - cumulative) / bucket_count
                return previous_bound + (bound - previous_bound) * within
            cumulative += bucket_count
            previous_bound = bound
        return self.buckets[-1]

    def summary(self) -> Dict[str, float]:
        counts, total_sum, total = self._snapshot()
        return {
            "count": float(total),
            "sum": total_sum,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }

    def samples(self) -> List[str]:
        counts, total_sum, total = self._snapshot()
        lines = []
        cumulative = 0
        for position, bound in enumerate(self.buckets):
            cumulative += counts[position]
            label = _render_labels(self.labels,
                                   ("le", _format_value(bound)))
            lines.append(f"{self.name}_bucket{label} {cumulative}")
        label = _render_labels(self.labels, ("le", "+Inf"))
        lines.append(f"{self.name}_bucket{label} {total}")
        base = _render_labels(self.labels)
        lines.append(f"{self.name}_sum{base} {_format_value(total_sum)}")
        lines.append(f"{self.name}_count{base} {total}")
        return lines


class MetricsRegistry:
    """Instrument factory, collector host and exposition renderer.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    same ``(name, labels)`` always returns the same instrument, so
    call sites need no bookkeeping.  ``register_collector`` adds a
    zero-argument callable invoked before every render/summary —
    the pull half of the registry, where existing counter sources
    (index pruning counters, WAL totals, cluster shard stats)
    synchronize their state in without instrumenting their own hot
    paths.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[Tuple[str, Labels], _Instrument]" = {}
        self._collectors: List[Callable[[], None]] = []

    # -- instruments ---------------------------------------------------

    @staticmethod
    def _labels(labels: Optional[Dict[str, object]]) -> Labels:
        if not labels:
            return ()
        return tuple(sorted((key, str(value))
                            for key, value in labels.items()))

    def _get(self, kind: type, name: str, help: str,
             labels: Optional[Dict[str, object]],
             **kwargs: object) -> _Instrument:
        key = (name, self._labels(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = kind(name, help, key[1], **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {kind.kind}")
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, object]] = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, object]] = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, object]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- collectors ----------------------------------------------------

    def register_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> None:
        """Run every registered collector (scrape-time pull)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    # -- output --------------------------------------------------------

    def _grouped(self) -> List[Tuple[str, List[_Instrument]]]:
        with self._lock:
            instruments = list(self._instruments.values())
        groups: Dict[str, List[_Instrument]] = {}
        for instrument in instruments:
            groups.setdefault(instrument.name, []).append(instrument)
        return [(name, sorted(group, key=lambda i: i.labels))
                for name, group in sorted(groups.items())]

    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        self.collect()
        lines: List[str] = []
        for name, group in self._grouped():
            first = group[0]
            if first.help:
                lines.append(f"# HELP {name} {first.help}")
            lines.append(f"# TYPE {name} {first.kind}")
            for instrument in group:
                lines.extend(instrument.samples())
        return "\n".join(lines) + "\n" if lines else ""

    def summary(self) -> Dict[str, object]:
        """The same data as a JSON-friendly dict (``/v1/stats``)."""
        self.collect()
        out: Dict[str, object] = {}
        for name, group in self._grouped():
            for instrument in group:
                key = name + _render_labels(instrument.labels)
                if isinstance(instrument, Histogram):
                    out[key] = instrument.summary()
                else:
                    out[key] = instrument.value  # type: ignore[union-attr]
        return out
