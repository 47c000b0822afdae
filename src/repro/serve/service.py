"""The standing match service: MOMA's online use case as a subsystem.

The paper targets "small-sized online matching (e.g. during query
processing in virtual data integration scenarios)" (§2.1) and builds
its whole architecture around *reusing* materialized mappings (§2.2).
:class:`MatchService` is that combination as a long-lived object:

* queries — single records or batches — are matched against an
  :class:`~repro.serve.index.IncrementalIndex`, whose packed kernel
  state scores a request's cache misses in one vectorized call
  instead of a per-pair ``similarity()`` loop;
* there is one read path: :meth:`MatchService.match_batch` (what
  ``/v1/match`` calls) and :meth:`MatchService.match_record` (its
  one-record form) run the same routine — cache lookup, one
  ``_lock``-serialized index call for the misses, cache put, persist;
* results are reused MOMA-style: a bounded LRU keyed by the query's
  attribute values answers repeats without rescoring, and when a
  :class:`~repro.model.repository.MappingRepository` is attached every
  freshly scored correspondence is appended to a named same-mapping;
* reference mutations invalidate exactly the affected cache entries:
  a record can only enter or leave a query's candidate set when it
  shares a word token with it, so the token-keyed reverse map drops
  precisely those queries (exhaustive mode and compactions, which
  refresh corpus statistics, clear the whole cache).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.concurrency import requires_lock
from repro.core.mapping import Mapping, MappingKind
from repro.model.entity import ObjectInstance
from repro.model.repository import MappingRepository
from repro.model.source import LogicalSource
from repro.obs import trace as obs_trace
from repro.obs.log import StructuredLogger, get_logger
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.serve.cluster import ClusterIndex
from repro.serve.config import ServeConfig
from repro.serve.errors import InvalidRequest, SnapshotUnavailable
from repro.serve.index import (IncrementalIndex, posting_tokens,
                               resolve_specs)

Result = List[Tuple[str, float]]


#: The service's cumulative counters: ``(attribute, metric name, help)``.
#: :meth:`MatchService.stats` and the registry collector both iterate
#: this table, so a counter has exactly one definition.
SERVICE_COUNTERS = (
    ("queries", "repro_service_queries_total",
     "Match queries served (records)."),
    ("hits", "repro_service_cache_hits_total",
     "Queries answered from the reuse cache."),
    ("misses", "repro_service_cache_misses_total",
     "Queries that needed kernel scoring."),
    ("batches", "repro_service_batches_total",
     "Kernel calls (one per request with cache misses)."),
    ("batched_records", "repro_service_batched_records_total",
     "Records scored inside those kernel calls."),
    ("persisted", "repro_service_persisted_total",
     "Correspondences appended to the repository."),
)


class MatchService:
    """Match incoming records against a mutable, indexed reference.

    Construct from a reference source plus a
    :class:`~repro.serve.config.ServeConfig` (the single-attribute
    ``attribute`` / ``similarity`` pair, or ``specs`` + ``combiner``
    for multi-attribute scoring), or inject a prebuilt ``index``.
    ``max_candidates=None`` disables the candidate cut —
    every query scores against the full reference, which is the
    configuration whose results are bit-identical to the offline
    engine's cross-product run on the same snapshot.
    """

    def __init__(self, reference: Optional[LogicalSource] = None, *,
                 config: Optional[ServeConfig] = None,
                 index: Optional[IncrementalIndex] = None,
                 repository: Optional[MappingRepository] = None) -> None:
        if config is None:
            config = ServeConfig()
        config = config.validate()
        if repository is not None and not config.mapping_name:
            raise InvalidRequest(
                "repository persistence needs a mapping_name")
        if index is None:
            index = self._build_index(reference, config)
        self.config = config
        self.index = index
        self.threshold = config.threshold
        self.max_candidates = config.max_candidates
        self.source_name = config.source_name
        self.repository = repository
        self.mapping_name = config.mapping_name

        #: serializes index access (scoring and mutation)
        self._lock = threading.RLock()  # repro: allow-unpicklable -- the service is a process-local front end and is never serialized
        #: guards the cache and the lookup counters (queries/hits/misses)
        self._cache_lock = threading.Lock()  # repro: allow-unpicklable -- process-local, see _lock
        self._cache: "OrderedDict[tuple, Result]" = OrderedDict()
        self._cache_size = config.cache_size
        self._cache_tokens: Dict[str, Set[tuple]] = {}
        self._key_tokens: Dict[tuple, frozenset] = {}
        for attribute, _, _ in SERVICE_COUNTERS:
            setattr(self, attribute, 0)
        self.max_batch = 0
        #: observability (None = off; every hot-path hook no-ops)
        self.metrics: Optional[MetricsRegistry] = None
        self.tracer: Optional[obs_trace.Tracer] = None
        self.logger: Optional[StructuredLogger] = None
        if config.metrics:
            self._init_observability()
        self.index.on_compact(self._clear_cache)
        if self.repository is not None:
            # materialize the mapping header so incremental appends of
            # raw triples always have a home
            header = Mapping(self.source_name, self.index.name,
                             kind=MappingKind.SAME)
            self.repository.append(self.mapping_name, header)

    @staticmethod
    def _build_index(reference: Optional[LogicalSource],
                     config: ServeConfig):
        """Pick the backend the config describes.

        ``shards > 0`` (or a data dir) builds the partitioned
        :class:`~repro.serve.cluster.ClusterIndex`; with a data dir
        and *no* reference, the cluster restores warm from its last
        checkpoint instead of building fresh.
        """
        if config.clustered:
            if reference is None:
                if config.data_dir is None:
                    raise InvalidRequest(
                        "pass a reference source or an index")
                return ClusterIndex.restore(config.data_dir)
            return ClusterIndex.build(
                reference,
                specs=resolve_specs(config.attribute, config.similarity,
                                    config.specs),
                combiner=config.combiner, missing=config.missing,
                compact_ratio=config.compact_ratio,
                compact_min=config.compact_min, shards=config.shards,
                data_dir=config.data_dir)
        if reference is None:
            raise InvalidRequest("pass a reference source or an index")
        return IncrementalIndex(reference, config.attribute,
                                config.similarity, specs=config.specs,
                                combiner=config.combiner,
                                missing=config.missing,
                                compact_ratio=config.compact_ratio,
                                compact_min=config.compact_min)

    # -- observability -------------------------------------------------

    def _init_observability(self) -> None:
        """Build the registry/tracer/logger and register collectors.

        Everything here *observes*: collectors pull the existing
        counters at scrape time, histograms record durations the hot
        path already spends — no instrument feeds back into scoring,
        so results are bit-identical with metrics on or off.
        """
        registry = MetricsRegistry()
        self.metrics = registry
        self.tracer = obs_trace.Tracer(
            sample_rate=self.config.trace_sample_rate)
        self.logger = get_logger("repro.serve")
        self._batch_sizes = registry.histogram(
            "repro_service_batch_size",
            "Records per kernel call (one request's cache misses).",
            buckets=DEFAULT_SIZE_BUCKETS)
        self._match_seconds = registry.histogram(
            "repro_service_match_seconds",
            "Service-side scoring latency per kernel call (seconds).")
        set_metrics = getattr(self.index, "set_metrics", None)
        if set_metrics is not None:
            set_metrics(registry)
        registry.register_collector(self._collect_service_metrics)
        registry.register_collector(self._collect_index_metrics)

    def _collect_service_metrics(self) -> None:
        """Sync the service's own counters into the registry."""
        registry = self.metrics
        for attribute, name, help in SERVICE_COUNTERS:
            registry.counter(name, help).set_total(getattr(self, attribute))
        registry.gauge("repro_service_cache_entries",
                       "Entries in the reuse cache.").set(len(self._cache))
        registry.gauge("repro_service_reference_records",
                       "Live reference records.").set(len(self.index))
        registry.gauge("repro_service_max_batch",
                       "Largest kernel call so far.").set(self.max_batch)

    def _collect_index_metrics(self) -> None:
        """Pull candidate / WAL counters from the backend.

        Both backends answer ``shard_metrics()`` with the same entry
        shape (``shard`` is ``None`` for the single in-heap index).
        Takes the service lock: the indexes are not thread-safe, so
        the pull must not overlap a scoring call.
        """
        registry = self.metrics
        with self._lock:
            entries = self.index.shard_metrics()
        for entry in entries:
            labels = (None if entry["shard"] is None
                      else {"shard": entry["shard"]})
            for key, value in sorted(entry["pruning"].items()):
                registry.counter(
                    f"repro_index_pruning_{key}_total",
                    "Candidate-generation counter (see docs/serving.md).",
                    labels=labels).set_total(value)
            for key, value in sorted((entry["wal"] or {}).items()):
                registry.counter(
                    f"repro_wal_{key}_total",
                    "Write-ahead-log durability counter.",
                    labels=labels).set_total(value)

    def _observe_batch(self, size: int, elapsed: float) -> None:
        """Record one kernel call (no-op with metrics off)."""
        if self.metrics is not None:
            self._batch_sizes.observe(size)
            self._match_seconds.observe(elapsed)
        if (self.logger is not None and self.config.slow_query_ms > 0
                and elapsed * 1000.0 >= self.config.slow_query_ms):
            trace = obs_trace.current_trace()
            self.logger.warning(
                "slow_query", batch=size,
                elapsed_ms=round(elapsed * 1000.0, 3),
                threshold_ms=self.config.slow_query_ms,
                trace_id=None if trace is None else trace.trace_id)

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict:
        """Persist a point-in-time image of the reference (cluster
        backends with a data dir only); returns the written manifest."""
        checkpoint = getattr(self.index, "checkpoint", None)
        if checkpoint is None:
            raise SnapshotUnavailable(
                "snapshotting needs a clustered backend with a data "
                "dir (ServeConfig.data_dir)")
        with self._lock:
            return checkpoint()

    def close(self) -> None:
        """Release backend resources (cluster shard WALs)."""
        close = getattr(self.index, "close", None)
        if close is not None:
            close()

    # -- cache ---------------------------------------------------------

    def _cache_key(self, record: ObjectInstance) -> Optional[tuple]:
        values = tuple(
            None if record.get(spec.attribute) is None
            else str(record.get(spec.attribute))
            for spec in self.index.specs
        )
        if values[0] is None:
            return None
        return values

    @requires_lock("_cache_lock")
    def _cache_get(self, key: tuple) -> Optional[Result]:
        cached = self._cache.get(key)
        if cached is None:
            return None
        self._cache.move_to_end(key)
        return cached

    @requires_lock("_cache_lock")
    def _cache_put(self, key: tuple, result: Result) -> None:
        if self._cache_size == 0:
            return
        if key not in self._cache:
            tokens = frozenset(posting_tokens(key[0]))
            self._key_tokens[key] = tokens
            for token in tokens:  # repro: allow-unordered -- reverse-index bookkeeping; per-token set inserts commute
                self._cache_tokens.setdefault(token, set()).add(key)
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            evicted, _ = self._cache.popitem(last=False)
            self._drop_key_tokens(evicted)

    @requires_lock("_cache_lock")
    def _drop_key_tokens(self, key: tuple) -> None:
        for token in self._key_tokens.pop(key, ()):
            keys = self._cache_tokens.get(token)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._cache_tokens[token]

    def _clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
            self._cache_tokens.clear()
            self._key_tokens.clear()

    def _invalidate(self, *values: object) -> None:
        """Drop cache entries a mutation of ``values`` could affect.

        With a candidate cut, a reference record only influences
        queries sharing a word token with its (old or new) match
        attribute value; without one every query is exposed.
        """
        if self.max_candidates is None:
            self._clear_cache()
            return
        tokens: Set[str] = set()
        for value in values:
            tokens.update(posting_tokens(value))
        if not tokens:
            return
        with self._cache_lock:
            stale: Set[tuple] = set()
            for token in tokens:  # repro: allow-unordered -- set-union accumulation commutes
                stale.update(self._cache_tokens.get(token, ()))
            for key in stale:  # repro: allow-unordered -- each stale key is dropped independently; eviction order is unobservable
                self._cache.pop(key, None)
                self._drop_key_tokens(key)

    # -- mutation ------------------------------------------------------

    def add(self, instance: ObjectInstance) -> None:
        """Add a reference record (ValueError on a live duplicate id)."""
        attribute = self.index.specs[0].range_attribute
        with self._lock:
            self.index.add(instance)
            self._invalidate(instance.get(attribute))

    def update(self, instance: ObjectInstance) -> None:
        """Replace a live reference record (KeyError when absent)."""
        attribute = self.index.specs[0].range_attribute
        with self._lock:
            old = self.index.get(instance.id)
            old_value = None if old is None else old.get(attribute)
            self.index.update(instance)
            self._invalidate(old_value, instance.get(attribute))

    def delete(self, id: str) -> bool:
        """Remove a live reference record; returns whether it existed."""
        attribute = self.index.specs[0].range_attribute
        with self._lock:
            old = self.index.get(id)
            removed = self.index.delete(id)
            if removed:
                self._invalidate(old.get(attribute))
            return removed

    def ingest(self, records: Iterable[ObjectInstance]) -> dict:
        """Upsert a batch of reference records; returns counts."""
        added = updated = 0
        for record in records:
            with self._lock:
                if record.id in self.index:
                    self.update(record)
                    updated += 1
                else:
                    self.add(record)
                    added += 1
        return {"added": added, "updated": updated}

    # -- matching ------------------------------------------------------

    def match_record(self, record: ObjectInstance) -> Result:
        """Match one record; ``[(reference id, similarity), ...]``
        sorted by descending similarity (ties by id)."""
        return list(self._match([record])[0])

    def match_batch(self, records: Iterable[ObjectInstance], *,
                    source_name: Optional[str] = None) -> Mapping:
        """Match a batch of records into a same-mapping.

        Cache misses are scored in one kernel call; hits are served
        from the reuse cache.
        """
        records = list(records)
        domain = source_name if source_name else self.source_name
        mapping = Mapping(domain, self.index.name, kind=MappingKind.SAME)
        for record, result in zip(records, self._match(records)):
            for reference_id, score in result:
                mapping.add(record.id, reference_id, score)
        return mapping

    def _match(self, records: List[ObjectInstance]) -> List[Result]:
        """The one read path; one result list per record.

        Cache lookup, then — for the misses only, serialized with
        mutations by ``_lock`` — one ``index.match_records`` call,
        cache put, persist.  The lookup counters move under the
        ``_cache_lock`` the lookup holds anyway, so concurrent
        callers never lose an increment.  Returned lists may be the
        cache's own: callers must not mutate them.
        """
        results: List[Result] = [[] for _ in records]
        misses: List[Tuple[int, tuple]] = []
        keys = [self._cache_key(record) for record in records]
        with self._cache_lock:
            self.queries += len(records)
            for position, key in enumerate(keys):
                if key is None:
                    continue
                cached = self._cache_get(key)
                if cached is not None:
                    self.hits += 1
                    results[position] = cached
                else:
                    self.misses += 1
                    misses.append((position, key))
        if not misses:
            return results
        with self._lock:
            begun = time.perf_counter()
            with obs_trace.span("service.batch"):
                fresh = self.index.match_records(
                    [records[position] for position, _ in misses],
                    threshold=self.threshold,
                    max_candidates=self.max_candidates)
            self._observe_batch(len(misses), time.perf_counter() - begun)
            self.batches += 1
            self.batched_records += len(misses)
            self.max_batch = max(self.max_batch, len(misses))
            triples = []
            with self._cache_lock:
                for (position, key), result in zip(misses, fresh):
                    results[position] = result
                    self._cache_put(key, result)
                    for reference_id, score in result:
                        triples.append(
                            (records[position].id, reference_id, score))
            self._persist(triples)
        return results

    def _persist(self, triples: List[Tuple[str, str, float]]) -> None:
        if self.repository is None or not triples:
            return
        self.repository.append(self.mapping_name, triples)
        self.persisted += len(triples)

    # -- introspection -------------------------------------------------

    def cache_stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._cache)}

    def stats(self) -> dict:
        stats = {attribute: getattr(self, attribute)
                 for attribute, _, _ in SERVICE_COUNTERS}
        # hits / misses live under "cache" on the wire
        del stats["hits"], stats["misses"]
        stats.update(
            records=len(self.index), max_batch=self.max_batch,
            threshold=self.threshold, max_candidates=self.max_candidates,
            cache=self.cache_stats(), index=self.index.stats())
        if self.tracer is not None:
            stats["trace"] = self.tracer.summary()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MatchService({self.index.name!r}, "
                f"{len(self.index)} reference records, "
                f"threshold={self.threshold})")


def match_query_results(results: Iterable[ObjectInstance],
                        reference: LogicalSource,
                        attribute: str = "title",
                        *, threshold: float = 0.7,
                        source_name: Optional[str] = None) -> Mapping:
    """One-shot online matching of query results against a reference.

    Builds a transient :class:`MatchService`; for repeated batches
    against the same reference, construct the service once instead.
    """
    service = MatchService(reference, config=ServeConfig(
        attribute=attribute, threshold=threshold))
    return service.match_batch(results, source_name=source_name)
