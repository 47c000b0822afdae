"""The parallel batch match engine.

Execution model (replacing the matchers' one-pair-at-a-time loops):

1. candidate pairs are streamed from an explicit iterable, a blocking
   strategy or the cross product, with self-matching dedup applied on
   the fly (reflexive pairs skipped, unordered duplicates dropped);
2. the stream is cut into fixed-size chunks (:mod:`repro.engine.chunks`);
3. each chunk is scored — by a request kernel over packed columns
   (:func:`repro.engine.vectorized.request_kernel`) where one exists,
   by the generic :class:`~repro.engine.scorer.ChunkScorer` otherwise —
   inline for ``workers=1``, or across the engine's one process pool
   (:func:`repro.engine.pool.run_ordered`);
4. surviving triples are merged into one :class:`Mapping` in chunk
   submission order, so serial and parallel execution produce
   *identical* mappings.

Workers are forked after ``prepare`` has run, so corpus-level indexes
(gram caches, TF/IDF document frequencies) and packed columns are
built once and shared copy-on-write.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.blocking.pair_generator import dedup_self_pairs
from repro.core.mapping import Mapping, MappingKind
from repro.engine import vectorized
from repro.engine.chunks import iter_chunks
from repro.engine.pool import run_ordered
from repro.engine.request import MatchRequest
from repro.engine.scorer import ChunkScorer
from repro.engine.vectorized import IndexedScorer
from repro.obs.registry import percentile as obs_percentile

Pair = Tuple[str, str]
Triple = Tuple[str, str, float]


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for batch execution.

    ``workers=1`` is the serial fallback (no processes, no IPC).
    ``chunk_size`` trades scheduling overhead against pipelining; the
    default suits pure-Python similarity kernels.  Everything else
    about a run's plan — shard count, skew rebalancing, how many
    chunks queue ahead of the merge cursor — the engine derives from
    ``workers`` and the shard cost estimates
    (:func:`repro.engine.shards.autotune_plan`).
    """

    workers: int = 1
    chunk_size: int = 2048
    #: run candidate generation inside the workers (``repro.engine.
    #: shards``) instead of streaming every pair through the parent.
    #: Results are identical; on blocked workloads this removes the
    #: parent-side generation bottleneck.  Ignored (falling back to
    #: the streamed paths) for explicit candidate lists, blocking
    #: objects without an authoritative ``shards`` protocol, and
    #: multi-worker runs on platforms without ``fork``.
    shard_blocking: bool = False
    #: record per-stage timings (prepare / chunk scoring / shard
    #: durations) into ``engine.last_profile`` (CLI ``--profile``).
    #: Every task is timed anyway (:mod:`repro.engine.pool`), so the
    #: scored payloads — and therefore the results — are identical
    #: with profiling on or off.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size!r}"
            )


class BatchMatchEngine:
    """Executes :class:`MatchRequest`\\ s serially or on a worker pool."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        #: per-stage timings of the last run (``config.profile`` only;
        #: see :meth:`profile_summary`)
        self.last_profile: Optional[dict] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchMatchEngine(workers={self.config.workers}, "
                f"chunk_size={self.config.chunk_size})")

    # -- execution -----------------------------------------------------

    def execute(self, request: MatchRequest) -> Mapping:
        """Run ``request`` and return its same-mapping."""
        profiling = self.config.profile
        self.last_profile = None
        if profiling:
            self.last_profile = {"path": None, "prepare_seconds": 0.0,
                                 "chunks": 0, "chunk_items": [],
                                 "chunk_seconds": [],
                                 "shard_seconds": []}
        begun = time.perf_counter() if profiling else 0.0
        self._prepare(request)
        if profiling:
            self.last_profile["prepare_seconds"] = \
                time.perf_counter() - begun
        result = Mapping(request.domain.name, request.range.name,
                         kind=MappingKind.SAME, name=request.name)
        if self.config.shard_blocking:
            from repro.engine import shards as shards_module
            if shards_module.execute_sharded(self, request, result):
                self._profile_path("sharded")
                return result
            # not shardable (explicit candidates / foreign blocking
            # object): continue on the streamed paths below
        is_self = request.is_self
        chunks = iter_chunks(self._pair_stream(request),
                             self.config.chunk_size)
        indexed = self._try_indexed(request)
        if indexed is not None:
            # the parent converts id-pair chunks to row arrays and
            # workers return only surviving rows, so IPC is ~8 bytes
            # per candidate pair plus the (sparse) survivors
            self._profile_path("indexed")
            target = indexed.score_rows
            work = ((len(chunk), indexed.convert(chunk)) for chunk in chunks)
        else:
            self._profile_path(
                "parallel" if self.config.workers > 1 else "serial")
            target = ChunkScorer(request).score_chunk
            work = ((len(chunk), (chunk,)) for chunk in chunks)
        # two chunks queued per worker keep the pool busy while the
        # merge cursor drains, and bound what sits in memory
        for items, seconds, output in run_ordered(
                target, work, workers=self.config.workers,
                inflight=2 * self.config.workers):
            self._profile_chunk(items, seconds)
            if indexed is not None:
                output = indexed.triples(*output)
            self._merge(result, output, is_self)
        return result

    # -- profiling -----------------------------------------------------

    def _profile_path(self, path: str) -> None:
        if self.last_profile is not None:
            self.last_profile["path"] = path

    def _profile_chunk(self, items: int, seconds: float) -> None:
        profile = self.last_profile
        if profile is not None:
            profile["chunks"] += 1
            profile["chunk_items"].append(items)
            profile["chunk_seconds"].append(seconds)

    def profile_summary(self) -> Optional[dict]:
        """Per-stage summary of the last run (``None`` unless the
        engine ran with ``EngineConfig(profile=True)``)."""
        profile = self.last_profile
        if profile is None:
            return None
        chunk_seconds = profile["chunk_seconds"]
        shard_seconds = profile["shard_seconds"]
        return {
            "path": profile["path"],
            "prepare_seconds": profile["prepare_seconds"],
            "chunks": profile["chunks"],
            "score_seconds": sum(chunk_seconds) + sum(shard_seconds),
            "chunk_p50_seconds": obs_percentile(chunk_seconds, 0.50),
            "chunk_p99_seconds": obs_percentile(chunk_seconds, 0.99),
            "shards": len(shard_seconds),
        }

    def _try_indexed(self, request: MatchRequest) -> Optional[IndexedScorer]:
        """Build the vectorized fast path when the request is eligible.

        Requests with at least one packed column
        (:func:`repro.engine.vectorized.request_kernel`) score through
        numpy arrays; everything else uses the generic chunk scorer.
        Explicit candidate lists skip the kernel: they are typically
        tiny relative to the sources, and packing full source matrices
        to score a handful of pairs would cost more than it saves.
        """
        if request.candidates is not None:
            return None
        kernel = vectorized.request_kernel(request)
        if kernel is None:
            return None
        return IndexedScorer(
            kernel, request.domain.ids(), request.range.ids(),
            request.threshold,
            missing_zero=(request.combiner is None
                          and request.missing == "zero"))

    def _prepare(self, request: MatchRequest) -> None:
        """Build corpus-level indexes before any pair is scored.

        Must run before workers fork so prepared state is inherited.
        """
        for spec in request.specs:
            corpus = request.domain.attribute_values(spec.attribute)
            if request.range is not request.domain:
                corpus = corpus + request.range.attribute_values(
                    spec.range_attribute)
            spec.similarity.prepare(corpus)

    def _pair_stream(self, request: MatchRequest) -> Iterable[Pair]:
        """Candidate pairs, with the exact unordered-pair dedup the
        matchers always had applied to self-matching streams.

        Two-source streams pass through: the built-in blocking
        strategies already deduplicate, and rescoring a duplicate from
        a custom stream is idempotent at the merge.
        """
        pairs = self._raw_pairs(request)
        return dedup_self_pairs(pairs) if request.is_self else pairs

    def _raw_pairs(self, request: MatchRequest) -> Iterable[Pair]:
        if request.candidates is not None:
            return request.candidates
        if request.blocking is not None:
            first = request.specs[0]
            return request.blocking.candidates(
                request.domain, request.range,
                domain_attribute=first.attribute,
                range_attribute=first.range_attribute,
            )
        return self._cross_product(request)

    @staticmethod
    def _cross_product(request: MatchRequest) -> Iterator[Pair]:
        if request.is_self:
            ids = request.domain.ids()
            for i, id_a in enumerate(ids):
                for id_b in ids[i + 1:]:
                    yield id_a, id_b
        else:
            range_ids = request.range.ids()
            for id_a in request.domain.ids():
                for id_b in range_ids:
                    yield id_a, id_b

    @staticmethod
    def _merge(result: Mapping, triples: List[Triple], is_self: bool) -> None:
        add = result.add
        if is_self:
            for id_a, id_b, score in triples:
                add(id_a, id_b, score)
                add(id_b, id_a, score)
        else:
            for id_a, id_b, score in triples:
                add(id_a, id_b, score)


# ----------------------------------------------------------------------
# Process-wide default engine.
#
# Matchers without an explicit engine use this one, so a single
# configuration point (e.g. the CLI's --workers/--chunk-size flags)
# parallelizes every matcher in every workflow of the process.
# ----------------------------------------------------------------------

_default_engine: Optional[BatchMatchEngine] = None


def get_default_engine() -> BatchMatchEngine:
    """The engine used by matchers when none is injected (serial)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = BatchMatchEngine()
    return _default_engine


def set_default_engine(engine: Optional[BatchMatchEngine]) -> None:
    """Replace the process default; ``None`` resets to a serial engine."""
    global _default_engine
    _default_engine = engine


def configure_default_engine(**fields) -> BatchMatchEngine:
    """Build and install the process default engine; returns it.

    ``fields`` are :class:`EngineConfig` fields.
    """
    engine = BatchMatchEngine(EngineConfig(**fields))
    set_default_engine(engine)
    return engine
