"""The parallel batch match engine.

Every request — whatever its candidate source, worker count or kernel —
runs the same four steps (:meth:`BatchMatchEngine.execute`):

1. **plan**: the candidates become a list of shards
   (:meth:`BatchMatchEngine._plan`) — one shard holding the whole
   request, or, when there are workers to share it, the blocking
   strategy's partition (an explicit pair list's ``chunk_size`` runs);
2. **slices**: a :class:`~repro.engine.shards.ShardRunner` cuts every
   shard into work items — pairs of row arrays, with self-matching
   dedup applied on the fly;
3. **score**: each slice is scored by the request's kernel
   (:func:`repro.engine.vectorized.request_kernel`: one column per
   spec, packed where the similarity packs, the memoized
   ``score_batch`` otherwise, answering from a score table where the
   plan's rows outnumber the column's distinct value pairs) — inline
   for a one-shard plan, or, shard by shard, across the engine's one
   process pool (:func:`repro.engine.pool.run_ordered`: the parent and
   ``workers − 1`` forked children), each shard cut where it is
   scored;
4. **load**: the survivors are loaded into one :class:`Mapping` in
   submission order (:meth:`BatchMatchEngine._load` — row arrays
   straight into the mapping's columns), so serial and parallel
   execution produce *identical* mappings.

The children are forked after ``_prepare`` has run, so corpus-level
state (packed columns, TF/IDF document frequencies) is built once and
shared copy-on-write.  What is a pure function of the sources — the packed
columns here, the blocking strategies' posting lists — is kept *by*
the sources (:meth:`repro.model.source.LogicalSource.derived`), so the
next request over the same sources, from any engine, finds it built.
"""

from __future__ import annotations

import time
from collections.abc import Sized
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

from repro.blocking.pair_generator import (
    BlockShard,
    FullCross,
    IterableShard,
    PairShard,
    dedup_self_pairs,
)
from repro.core.mapping import Mapping
from repro.engine import vectorized
from repro.engine.columns import SLICE_ROWS
from repro.engine.pool import run_ordered
from repro.engine.request import MatchRequest
from repro.engine.shards import (
    ROWS_PER_CALL,
    MappingShard,
    ShardRunner,
    iter_chunks,
    shards_authoritative,
)
from repro.obs.registry import percentile as obs_percentile


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for batch execution.

    ``workers=N`` means N processes score: the parent and N − 1 forked
    children, each child holding one task at most (a second would sit
    in the executor's call queue, where the parent cannot take it back;
    :mod:`repro.engine.pool`).  ``workers=1`` is the serial fallback
    (no processes, no IPC), and so is any run of fewer than two tasks.
    ``chunk_size`` is the number of candidate row pairs in one slice —
    one kernel call.  Every
    request runs on a kernel, and every kernel call pays a fixed cost
    of array set-up beside its rows, so the default,
    :data:`~repro.engine.columns.SLICE_ROWS` (a table fill's block
    too), is where the kernels stop gaining from longer calls: on
    ``batch-engine``'s 858 281 DBLP × ACM title pairs (2-core Xeon,
    numpy 2.4.6), TF/IDF took 157 / 132 / 135 ms in 2 048 / 8 192 /
    16 384-row calls and the multi-attribute kernel 71 / 39 / 34 ms.  The q-gram kernel
    gathers a call in cache-sized blocks
    (:data:`~repro.engine.columns.GATHER_BYTES`), so a long call keeps
    its gathered bit rows in cache: on a 900-title trigram
    column (17 packed words a row), 0.27 µs a pair at 64 rows, 0.056
    µs at 2 048, 0.048 µs at the default, 0.047 µs at 16k and 0.062
    µs at 128k.  The table-workflow pass takes 0.32 / 0.30 / 0.25 /
    0.29 / 0.27 s at 256 / 2 048 / 8 192 / 16k / 128k.  Everything else
    about a run's plan — whether it shards, into how many shards — the
    engine derives from ``workers`` and the candidate source
    (:meth:`BatchMatchEngine._plan`).
    """

    workers: int = 1
    chunk_size: int = SLICE_ROWS
    #: accepted and ignored: the plan shards whenever there are
    #: workers and the candidates can shard (:meth:`BatchMatchEngine._plan`)
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
        config = self.config
        self.last_profile = None
        if config.profile:
            self.last_profile = {"path": None, "plan_seconds": 0.0,
                                 "prepare_seconds": 0.0,
                                 "load_seconds": 0.0,
                                 "kernel_cached": False,
                                 "index_cached": False,
                                 "columns": [],
                                 "chunks": 0, "kernel_calls": 0,
                                 "candidate_rows": 0,
                                 "duplicate_rows": 0,
                                 "chunk_items": [],
                                 "chunk_seconds": [],
                                 "shard_seconds": [],
                                 "survivor_rows": 0, "merged_rows": 0,
                                 # the sources' (hits, builds) so far;
                                 # _prepare adds its own lookups, so at
                                 # the end the rest is the blocking index's
                                 "memo_counts": _memo_counts(request)}
        begun = time.perf_counter()
        shards, sharded = self._plan(request)
        planned = time.perf_counter()
        runner = self._prepare(request, shards)
        if sharded:
            # every shard queued up front: a task is one int
            path, target = "sharded", runner.run
            work = ((None, (index,)) for index in range(len(shards)))
            workers = min(config.workers, len(shards)) or 1
            inflight = len(shards)
        else:
            path = ("rows" if isinstance(request.candidates, Mapping)
                    else "indexed")
            target = runner.score
            work = ((len(item[0]), item) for shard in shards
                    for item in runner.slices(shard))
            workers = inflight = 1
        outputs = []
        for items, seconds, output in run_ordered(
                target, work, workers=workers, inflight=inflight):
            calls = 1
            if sharded:  # a whole shard: its rows and calls came back
                items, output, calls = output
            self._profile_task(items, calls, seconds, sharded)
            outputs.append(output)
        scored = time.perf_counter()
        result = self._load(request, runner, outputs)
        self._profile_done(path, request, planned - begun,
                           time.perf_counter() - scored)
        return result

    def _plan(self, request: MatchRequest) -> Tuple[List[PairShard], bool]:
        """The request's shards, and whether each is one pool task.

        A function of the request and the config alone; nothing
        carries over between runs.  One rule: with one worker, or
        candidates that cannot shard, the whole request is one shard
        scored inline — a :class:`Mapping`'s rows, a pair stream over
        a foreign blocking's ``candidates()`` (one whose ``shards`` is
        not authoritative, :func:`~repro.engine.shards.shards_authoritative`),
        or the blocking strategy's own one-shard partition (the cross
        product is :class:`FullCross`).  With ``workers > 1`` every
        shard is a pool task: an authoritative blocking's ``4 *
        workers`` shards, or an explicit pair list's ``chunk_size``
        runs, deduplicated first where the request is a self-match so
        that the runs hold the pairs the one stream would.
        """
        config = self.config
        spec = request.specs[0]
        attributes = dict(domain_attribute=spec.attribute,
                          range_attribute=spec.range_attribute)
        blocking = (request.blocking if request.blocking is not None
                    else FullCross())
        sharded = config.workers > 1
        candidates = request.candidates
        if isinstance(candidates, Mapping):
            return [MappingShard(candidates)], False
        if candidates is not None and sharded:
            if request.is_self:
                candidates = dedup_self_pairs(candidates)
            return [IterableShard(partial(iter, run), cost=len(run))
                    for run in iter_chunks(candidates, config.chunk_size)
                    ], True
        if candidates is not None:
            return [IterableShard(
                lambda: candidates,
                cost=(len(candidates) if isinstance(candidates, Sized)
                      else None))], False
        if not shards_authoritative(blocking):
            return [IterableShard(lambda: blocking.candidates(
                request.domain, request.range, **attributes))], False
        return blocking.shards(
            request.domain, request.range,
            n_shards=4 * config.workers if sharded else 1,
            **attributes), sharded

    # -- profiling -----------------------------------------------------

    def _profile_done(self, path: str, request: MatchRequest,
                      plan_seconds: float, load_seconds: float) -> None:
        profile = self.last_profile
        if profile is not None:
            profile["path"] = path
            profile["plan_seconds"] = plan_seconds
            profile["load_seconds"] = load_seconds
            hits, builds = _memo_counts(request)
            asked, built = profile.pop("memo_counts")
            profile["index_cached"] = hits > asked and builds == built

    def _profile_task(self, items: int, calls: int, seconds: float,
                      shard: bool) -> None:
        """One pool task's duration, rows and kernel calls: a whole
        shard's or a slice's."""
        profile = self.last_profile
        if profile is None:
            return
        profile["candidate_rows"] += items
        profile["kernel_calls"] += calls
        if shard:
            profile["shard_seconds"].append(seconds)
        else:
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
            "plan_seconds": profile["plan_seconds"],
            "prepare_seconds": profile["prepare_seconds"],
            "load_seconds": profile["load_seconds"],
            "candidate_rows": profile["candidate_rows"],
            "duplicate_rows": profile["duplicate_rows"],
            "kernel_cached": profile["kernel_cached"],
            "index_cached": profile["index_cached"],
            "columns": profile["columns"],
            "survivor_rows": profile["survivor_rows"],
            "merged_rows": profile["merged_rows"],
            "chunks": profile["chunks"],
            "kernel_calls": profile["kernel_calls"],
            "score_seconds": sum(chunk_seconds) + sum(shard_seconds),
            "chunk_p50_seconds": obs_percentile(chunk_seconds, 0.50),
            "chunk_p99_seconds": obs_percentile(chunk_seconds, 0.99),
            "shards": len(shard_seconds),
        }

    def _prepare(self, request: MatchRequest,
                 shards: List[PairShard]) -> ShardRunner:
        """Corpus-level state for ``request``, before any pair is scored.

        Must run before workers fork so they inherit it: the request's
        kernel (:func:`repro.engine.vectorized.request_kernel`, which
        prepares every similarity it has to pack or wrap and finds the
        kept columns on the sources) in the runner that cuts
        ``shards`` for it, between the sources' row<->code bridges.
        Where the candidates come from plays no part: an explicit list
        is scored by the columns the sources keep like any blocked
        request.

        The plan sizes the score tables: a column may spend as many
        cells as the shards will ask it for rows (the table then costs
        no more than the request was going to pay), one slice's worth
        at most, and none when a shard cannot tell its cost.
        """
        begun = time.perf_counter()
        before = _memo_counts(request)
        costs = [shard.cost() for shard in shards]
        kernel = vectorized.request_kernel(
            request, 0 if None in costs else min(sum(costs), ROWS_PER_CALL))
        kernel_builds = _memo_counts(request)[1] - before[1]
        runner = ShardRunner(shards, request, self.config.chunk_size, kernel)
        profile = self.last_profile
        if profile is not None:
            profile["prepare_seconds"] = time.perf_counter() - begun
            hits, builds = _memo_counts(request)
            columns = getattr(kernel, "columns", (kernel,))
            # kept columns are the released ones (arrays only), and
            # one that was not found would have been built just now
            profile["kernel_cached"] = kernel_builds == 0 and all(
                column.released for column in columns)
            profile["columns"] = [
                {"kind": type(columns[j]).__name__,
                 "distinct": [len(side.rows) for side in columns[j].codes],
                 "table": columns[j].table is not None}
                for j in getattr(kernel, "order", (0,))]
            profile["duplicate_rows"] = sum(
                shard.cost() - shard.distinct_pairs()
                for shard in shards if isinstance(shard, BlockShard))
            # the runner's two bridge lookups are this step's own too
            asked, built = profile["memo_counts"]
            profile["memo_counts"] = (asked + hits - before[0],
                                      built + builds - before[1])
        return runner

    def _load(self, request: MatchRequest, runner: ShardRunner,
              outputs: list) -> Mapping:
        """The request's mapping from its scoring ``outputs``, taken in
        submission order.

        Every output is a ``(rows_a, rows_b, scores)`` survivor triple
        of arrays, and they become the mapping's columns as they are
        (:meth:`Mapping.from_columns`) — no id string is touched per
        row.  A pair that survived more than once keeps its first
        position and its largest score, and self-matching rows are
        mirrored.

        A pair stream may repeat a pair (an explicit list, a foreign
        blocking's stream), and then it survives once per copy; every
        copy has the same score, so the first in submission order is
        the row a keyed merge would have kept.  That costs one sort of
        the *survivors*' pair codes, not of the candidates'.  Blocks never
        repeat one: a pair several blocks hold is expanded in the first
        of them only.
        """
        rows_a, rows_b, scores = runner.gather(outputs)
        survivors = len(scores)
        # mirrored as codes: a self-match's range may be another object
        # of the name, whose rows are not the domain's
        result = Mapping.from_columns(
            request.domain.name, request.range.name,
            runner.domain, runner.range,
            rows_a, rows_b, scores, name=request.name,
            mirrored=request.is_self)
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
