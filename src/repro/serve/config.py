"""One configuration object for the whole serving tier.

PR 5 grew its knobs organically: :class:`MatchService` took nine
keyword arguments, :class:`IncrementalIndex` another four, and the
CLI duplicated both lists.  :class:`ServeConfig` is the single place
those knobs live now — the service, the durable index and ``repro
serve`` all build from one validated instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.engine.request import AttributeSpec
from repro.serve.errors import InvalidRequest


@dataclass
class ServeConfig:
    """Every tunable of the serving tier in one validated dataclass.

    Matching
        ``attribute`` / ``similarity`` configure the simple
        single-attribute case (``similarity`` is a registry name or a
        :class:`~repro.sim.base.SimilarityFunction` instance);
        ``specs`` + ``combiner`` override them for multi-attribute
        scoring; ``missing`` is the single-attribute missing-value
        policy; ``threshold`` filters correspondences and
        ``max_candidates`` bounds candidate generation (``None`` =
        exhaustive scoring, the engine-bit-identical mode).

    Service
        ``cache_size`` bounds the reuse cache; ``source_name`` and
        ``mapping_name`` name persisted same-mappings.

    Index
        ``compact_ratio`` / ``compact_min`` trigger compaction.

    Durability
        ``data_dir`` backs the index with on-disk packed columns + a
        mutation WAL (:class:`~repro.serve.cluster.ClusterIndex`) and
        enables ``snapshot()`` / restore; ``None`` keeps the index in
        the heap only.  ``shards`` selects nothing: it is validated
        (``>= 0``) and kept only for the benchmark harness
        (benchmarks/moma_bench/serve.py), which still passes it.

    HTTP
        ``host`` / ``port`` for ``repro serve``.

    Observability
        ``metrics`` switches the whole subsystem on (registry +
        ``/v1/metrics``, tracing, structured logs — all pure
        observation, match results stay bit-identical);
        ``trace_sample_rate`` admits that fraction of requests to
        per-request tracing (deterministic accumulator, no
        randomness); ``slow_query_ms`` > 0 logs a ``slow_query``
        event for scoring batches slower than the threshold.

    Every field has a value ``validate()`` rejects, unless it is a
    bool or free-form; ``repro serve`` sets it, unless its docs row
    says the CLI cannot; and docs/serving.md's knob table lists it.
    ``tests/serve/test_config.py`` holds each field to all three.
    """

    attribute: str = "title"
    similarity: object = "trigram"
    specs: Optional[List[AttributeSpec]] = None
    combiner: object = None
    missing: str = "skip"
    threshold: float = 0.7
    max_candidates: Optional[int] = 50
    cache_size: int = 1024
    source_name: str = "query.Results"
    mapping_name: Optional[str] = None
    compact_ratio: float = 0.25
    compact_min: int = 64
    shards: int = 0
    data_dir: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 8765
    metrics: bool = False
    trace_sample_rate: float = 0.0
    slow_query_ms: float = 0.0

    def validate(self) -> "ServeConfig":
        """Return this config once its values are validated.

        Raises :class:`InvalidRequest` (a ``ValueError``) on bad
        values.
        """
        if not self.attribute:
            raise InvalidRequest("attribute must be a non-empty string")
        if not self.host:
            raise InvalidRequest("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise InvalidRequest(
                f"port must be in [0, 65535] (0 = ephemeral), "
                f"got {self.port!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise InvalidRequest(
                f"threshold must be in [0, 1], got {self.threshold!r}")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise InvalidRequest("max_candidates must be >= 1 (or None "
                                 "for exhaustive scoring)")
        if self.cache_size < 0:
            raise InvalidRequest("cache_size must be >= 0")
        if self.missing not in ("skip", "zero"):
            raise InvalidRequest(
                f"missing must be 'skip' or 'zero', got {self.missing!r}")
        if self.compact_ratio <= 0:
            raise InvalidRequest("compact_ratio must be positive")
        if self.compact_min < 1:
            raise InvalidRequest("compact_min must be >= 1")
        if self.shards < 0:
            raise InvalidRequest("shards must be >= 0")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise InvalidRequest(
                f"trace_sample_rate must be in [0, 1], "
                f"got {self.trace_sample_rate!r}")
        if self.slow_query_ms < 0:
            raise InvalidRequest("slow_query_ms must be >= 0 "
                                 "(0 disables the slow-query log)")
        if self.specs is not None and not self.specs:
            raise InvalidRequest("specs must be a non-empty list")
        if self.specs is not None and len(self.specs) > 1 \
                and self.combiner is None:
            raise InvalidRequest("multiple attribute specs require a "
                                 "combiner")
        return self

    @property
    def clustered(self) -> bool:
        """Whether this config runs the durable index (has a data dir)."""
        return self.data_dir is not None
