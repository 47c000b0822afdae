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
4. the survivors are loaded into one :class:`Mapping` in chunk
   submission order (:meth:`BatchMatchEngine._load` — kernel survivors
   as row arrays straight into the mapping's columns), so serial and
   parallel execution produce *identical* mappings.

Workers are forked after ``_prepare`` has run, so corpus-level state
(packed columns, TF/IDF document frequencies) is built once and shared
copy-on-write.  What is a pure function of the sources — the packed
columns here, the blocking strategies' posting lists — is kept *by*
the sources (:meth:`repro.model.source.LogicalSource.derived`), so the
next request over the same sources, from any engine, finds it built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.blocking.pair_generator import dedup_self_pairs
from repro.core.mapping import Mapping
from repro.engine import vectorized
from repro.engine.chunks import iter_chunks
from repro.engine.pool import run_ordered
from repro.engine.request import MatchRequest
from repro.engine.scorer import ChunkScorer
from repro.engine.vectorized import IndexedScorer
from repro.obs.registry import percentile as obs_percentile

Pair = Tuple[str, str]


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
        self.last_profile = None
        if self.config.profile:
            self.last_profile = {"path": None, "prepare_seconds": 0.0,
                                 "kernel_cached": False,
                                 "index_cached": False,
                                 "chunks": 0, "chunk_items": [],
                                 "chunk_seconds": [],
                                 "shard_seconds": [],
                                 "survivor_rows": 0, "merged_rows": 0,
                                 # the sources' (hits, builds) so far;
                                 # _prepare adds its own lookups, so at
                                 # the end the rest is the blocking index's
                                 "memo_counts": _memo_counts(request)}
        if self.config.shard_blocking:
            from repro.engine import shards as shards_module
            result = shards_module.execute_sharded(self, request)
            if result is not None:
                self._profile_done("sharded", request)
                return result
            # not shardable (explicit candidates / foreign blocking
            # object): continue on the streamed paths below
        indexed = self._prepare(request)
        chunks = iter_chunks(self._pair_stream(request),
                             self.config.chunk_size)
        if indexed is not None:
            # the parent converts id-pair chunks to row arrays and
            # workers return only surviving rows, so IPC is ~8 bytes
            # per candidate pair plus the (sparse) survivors
            path = "indexed"
            target = indexed.score_rows
            work = ((len(chunk), indexed.convert(chunk)) for chunk in chunks)
        else:
            path = "parallel" if self.config.workers > 1 else "serial"
            target = ChunkScorer(request).score_chunk
            work = ((len(chunk), (chunk,)) for chunk in chunks)
        # two chunks queued per worker keep the pool busy and bound
        # what sits in memory
        outputs = []
        for items, seconds, output in run_ordered(
                target, work, workers=self.config.workers,
                inflight=2 * self.config.workers):
            self._profile_chunk(items, seconds)
            outputs.append(output)
        result = self._load(request, indexed, outputs)
        self._profile_done(path, request)
        return result

    # -- profiling -----------------------------------------------------

    def _profile_done(self, path: str, request: MatchRequest) -> None:
        profile = self.last_profile
        if profile is not None:
            profile["path"] = path
            hits, builds = _memo_counts(request)
            asked, built = profile.pop("memo_counts")
            profile["index_cached"] = hits > asked and builds == built

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
            "kernel_cached": profile["kernel_cached"],
            "index_cached": profile["index_cached"],
            "survivor_rows": profile["survivor_rows"],
            "merged_rows": profile["merged_rows"],
            "chunks": profile["chunks"],
            "score_seconds": sum(chunk_seconds) + sum(shard_seconds),
            "chunk_p50_seconds": obs_percentile(chunk_seconds, 0.50),
            "chunk_p99_seconds": obs_percentile(chunk_seconds, 0.99),
            "shards": len(shard_seconds),
        }

    def _prepare(self, request: MatchRequest) -> Optional[IndexedScorer]:
        """Corpus-level state for ``request``, before any pair is scored.

        Must run before workers fork so they inherit it.  Requests
        with at least one packed column get their kernel
        (:func:`repro.engine.vectorized.request_kernel`, which
        prepares what it has to pack and finds the rest on the
        sources) and score through numpy arrays; all others get their
        similarities prepared for the generic chunk scorer, which is
        what ``None`` selects.  Explicit candidate lists skip the
        kernel: they are typically tiny relative to the sources, and
        packing full source matrices to score a handful of pairs would
        cost more than it saves.
        """
        begun = time.perf_counter()
        before = _memo_counts(request)
        indexed = None
        kernel = (vectorized.request_kernel(request)
                  if request.candidates is None else None)
        if kernel is None:
            vectorized.prepare_similarities(request)
        else:
            indexed = IndexedScorer(
                kernel, request.domain.ids(), request.range.ids(),
                request.threshold,
                missing_zero=(request.combiner is None
                              and request.missing == "zero"))
        profile = self.last_profile
        if profile is not None:
            profile["prepare_seconds"] = time.perf_counter() - begun
            hits, builds = _memo_counts(request)
            profile["kernel_cached"] = \
                indexed is not None and builds == before[1]
            asked, built = profile["memo_counts"]
            profile["memo_counts"] = (asked + hits - before[0],
                                      built + builds - before[1])
        return indexed

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

    def _load(self, request: MatchRequest, indexed: Optional[IndexedScorer],
              outputs: list) -> Mapping:
        """The request's mapping from its scoring ``outputs``, taken in
        submission order.

        With ``indexed`` every output is a ``(rows_a, rows_b, scores)``
        survivor triple of arrays, and they become the mapping's
        columns as they are (:meth:`Mapping.from_columns`) — no id
        string is touched per row; otherwise every output is a list of
        ``(id, id, score)`` triples.  Either way a pair that survived
        more than once keeps its first position and its largest score,
        and self-matching rows are mirrored.
        """
        domain, range_ = request.domain.name, request.range.name
        if indexed is None:
            triples = [row for output in outputs for row in output]
            survivors = len(triples)
            if request.is_self:
                triples = [row for id_a, id_b, score in triples
                           for row in ((id_a, id_b, score),
                                       (id_b, id_a, score))]
            result = Mapping.from_correspondences(
                domain, range_, triples, name=request.name)
        else:
            no_rows = np.zeros(0, dtype=np.int32)
            rows_a, rows_b, scores = map(np.concatenate, zip(
                (no_rows, no_rows, np.zeros(0)), *outputs))
            survivors = len(scores)
            if request.is_self:
                rows_a, rows_b = (
                    np.stack((rows_a, rows_b), axis=1).ravel(),
                    np.stack((rows_b, rows_a), axis=1).ravel())
                scores = np.repeat(scores, 2)
            result = Mapping.from_columns(
                domain, range_, indexed.domain_ids, indexed.range_ids,
                rows_a, rows_b, scores, name=request.name)
        profile = self.last_profile
        if profile is not None:
            profile["survivor_rows"] = survivors
            profile["merged_rows"] = \
                len(result) // (2 if request.is_self else 1)
        return result


def _memo_counts(request: MatchRequest) -> Tuple[int, int]:
    """``(hits, builds)`` of the request's sources' ``derived`` memos."""
    sources = [request.domain]
    if request.range is not request.domain:
        sources.append(request.range)
    return (sum(source.derived_hits for source in sources),
            sum(source.derived_builds for source in sources))


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
