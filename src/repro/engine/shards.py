"""Shards: the engine's unit of candidate generation and scoring.

A request's plan (:meth:`repro.engine.engine.BatchMatchEngine._plan`)
is a list of :class:`PairShard`\\ s: one holding the whole request, or
— under ``shard_blocking`` — the blocking strategy's partition
(:meth:`PairGenerator.shards`: key groups, posting-list ranges, window
segments, seed partitions, row tiles).  A :class:`ShardRunner` cuts a
shard into *slices*, scores a slice and gathers the survivors of
several; the engine loads what comes back.  A slice is a pair of row
arrays for the request's kernel
(:func:`repro.engine.vectorized.request_kernel`), cut one of three ways:

* **block expansion** — the shard is a :class:`BlockShard` (or an LPT
  bin of nothing else): a :class:`BlockBatch`, start / count arrays
  into row arrays, made without reading an id string.  One routine
  (:meth:`BlockBatch.expand`) turns a batch into rows — rectangles and
  triangles as one ragged cross product, at most ``EXPAND_ROWS`` rows
  at a time — and a slice is a ``chunk_size`` view of that
  (``POOL_SLICE_ROWS`` where the slice is a pool task): cache-sized
  kernel calls, no Python step per block or pair.  Rows of other
  source objects than the request's (a subset matched against its
  source) are mapped through the sources' code bridges once per shard.
  A pair that overlapping blocks repeat is expanded once, in the first
  block holding it (:class:`~repro.blocking.pair_generator.FirstBlocks`:
  a bit per pair, kept by the sources), so no repeat reaches the
  kernel and no pair is in two shards.
* **converted id-pair chunks** — any other shard, and a self-match
  whose kernel is not orientation-symmetric: ``shard.pairs()``
  in ``chunk_size`` chunks, each converted to row arrays
  (:meth:`ShardRunner.convert`).
* **mapping rows** — the candidates are a :class:`Mapping`
  (:class:`MappingShard`): its code columns become row arrays through
  the sources' bridges (:func:`repro.core.mapping.source_codes`), cut
  into ``chunk_size`` slices in the mapping's row order — no id string
  is read.

``shard_blocking`` decides who cuts.  Off, the parent iterates
:meth:`ShardRunner.slices` and every slice is a pool task.  On, every
*shard* is (:meth:`ShardRunner.run`): the runner — shard list, request,
scoring state — is built in the parent *before* the pool forks
(:func:`repro.engine.pool.run_ordered`), so the children inherit
everything copy-on-write and the parent, one of the workers, scores
on the originals; each task carries one int **shard index in** and
returns only the **survivors out** — ``(rows_a, rows_b, scores)``
arrays.  Nothing per-pair crosses a process boundary, which
removes the parent-side generation bottleneck (Amdahl) of blocked
parallel runs.

Skewed block-size distributions (one stop-word token, one dominant
blocking key) leave the naive shard list with a long tail: one shard
holds most of the work and its worker finishes long after the rest.
The planner (:meth:`BatchMatchEngine._plan`) therefore always reads the
shards' cost estimates (:meth:`PairShard.cost`) and, when
:func:`autotune_plan` finds them skewed, calls :func:`rebalance_shards`
— oversized block groups are *split* (down to row/column slices of a
single giant block; :func:`explode`: arithmetic on the block's starts
and counts) and the pieces greedily bin-packed, largest first,
onto the least-loaded bin (classic LPT), so no bin exceeds ~2x the
mean load.

Correctness contract: for every blocking strategy the result mapping
is the same whoever cuts the slices and however the shards were
balanced.  Shard pair sets union to the candidate set (splitting
partitions blocks pair-exactly and keeps each pair in its first
block; packing only concatenates), scores depend only on the value
pair, and loading is idempotent for the duplicates a pair stream may
carry, so shard order, splitting and duplication cannot change the
outcome.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as _np

from repro.blocking.pair_generator import (
    BlockShard,
    PairGenerator,
    PairShard,
    dedup_self_pairs,
    partition_spans,
)
from repro.core.mapping import Mapping, distinct_keys, recode, source_codes
from repro.engine.columns import survivors
from repro.engine.request import MatchRequest

Pair = Tuple[str, str]
T = TypeVar("T")

#: no slice — one vectorized scoring call — is longer (block slices
#: are ``chunk_size`` views of an ``EXPAND_ROWS`` step, well below),
#: and a score table spends no more cells (``_prepare``)
ROWS_PER_CALL = 1 << 20
#: most rows of a block slice that is a pool task of its own (the
#: parent cuts for several workers): ``chunk_size`` rows do not pay
#: for the trip — parent-cut, two workers, an 860 400-row cross
#: request took 158 ms in 2 048-row tasks, 62 ms in these, 77 ms at
#: the parent commit's one task a block (``docs/benchmarks.md``, PR 24)
POOL_SLICE_ROWS = 1 << 15


def iter_chunks(iterable: Iterable[T], chunk_size: int) -> Iterator[List[T]]:
    """Yield successive lists of up to ``chunk_size`` items.

    Consumes ``iterable`` lazily: a chunk is only pulled when the
    consumer asks for it, so candidate generation and scoring can
    pipeline.  A chunk is small enough to bound memory and IPC
    payloads, and large enough to amortize per-chunk overhead (batch
    call, future submission, result merge).  The final chunk may be
    shorter; no empty chunks are produced.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    iterator = iter(iterable)
    while True:
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


def _concatenated(parts) -> tuple:
    """Equally shaped tuples of arrays, concatenated column by column."""
    return tuple(map(_np.concatenate, zip(*parts)))


class MappingShard(PairShard):
    """The rows of a candidate mapping (``MatchRequest.candidates``),
    which :meth:`ShardRunner.slices` reads as arrays."""

    def __init__(self, mapping: Mapping) -> None:
        self.mapping = mapping

    def pairs(self) -> Iterator[Pair]:
        return self.mapping.id_pairs()

    def cost(self) -> int:
        return len(self.mapping)


class ShardRunner:
    """Cuts shards into slices and scores them; lives in the parent,
    runs anywhere.

    Built before the pool forks, so children inherit the shard list,
    sources, similarity state and packed columns copy-on-write and
    tasks carry a shard index (:meth:`run`) or one slice
    (:attr:`score`).  ``kernel`` is the request's
    (:func:`repro.engine.vectorized.request_kernel`) — anything
    exposing ``score_rows(domain_rows, range_rows)`` over
    ``source.ids()``-aligned row indices; ``sources`` are the
    request's two and ``domain`` / ``range`` their row<->code bridges
    (:func:`repro.core.mapping.source_codes`), through which ids and
    mapping codes become rows and the surviving rows a mapping.
    """

    def __init__(self, shards: Sequence[PairShard], request: MatchRequest,
                 chunk_size: int, kernel) -> None:
        self.shards = list(shards)
        self.is_self = request.is_self
        self.chunk_size = chunk_size
        #: rows of a block slice (:meth:`cut_for_pool`)
        self.block_rows = chunk_size
        self.kernel = kernel
        self.sources = (request.domain, request.range)
        self.domain = source_codes(request.domain)
        self.range = source_codes(request.range)
        #: ``score(rows_a, rows_b)``: one slice's survivors as
        #: ``(rows_a, rows_b, scores)`` arrays, which the parent loads
        #: as columns.  Closed over the kernel alone, not the runner:
        #: as a pool target it pickles without the shard list and the
        #: bridges' id spaces, which is what a platform without
        #: ``fork`` needs.
        self.score = partial(
            survivors, kernel, threshold=request.threshold,
            missing_zero=(request.combiner is None
                          and request.missing == "zero"))

    def cut_for_pool(self, workers: int) -> None:
        """Every slice is going to be a pool task: block slices take
        :data:`POOL_SLICE_ROWS` rows, fewer where that would leave a
        worker under four tasks, never under ``chunk_size``."""
        rows = sum(shard.cost() or 0 for shard in self.shards)
        self.block_rows = max(self.chunk_size, min(
            POOL_SLICE_ROWS, rows // (4 * workers)))

    def slices(self, shard: PairShard) -> Iterator[tuple]:
        """The shard's work items, each the ``(rows_a, rows_b)``
        arguments of one :attr:`score` call: a mapping's rows, a block
        shard's expansion — an LPT bin's member by member, where every
        member is a block shard — or else the converted pair stream.

        Self-matching block expansion may emit a pair in either
        orientation, so it additionally requires an
        orientation-symmetric kernel; kernels carrying a scalar column
        (whose wrapped similarity may be asymmetric) take the
        orientation-faithful pair stream instead.
        """
        if isinstance(shard, MappingShard):
            return self._mapping_slices(shard.mapping)
        members = (shard.members if isinstance(shard, CompositeShard)
                   else [shard])
        if (self.kernel.orientation_symmetric or not self.is_self) and all(
                isinstance(member, BlockShard) for member in members):
            return self._block_slices(members)
        # the exact unordered-pair dedup the matchers always had, shard
        # by shard (cross-shard duplicates collapse at the load, like a
        # custom two-source stream's; the built-ins' are already unique)
        pairs = shard.pairs()
        if self.is_self:
            pairs = dedup_self_pairs(pairs)
        # pairs cross process boundaries as int row arrays, ~8 bytes
        # each, and only surviving rows come back
        return map(self.convert, iter_chunks(pairs, self.chunk_size))

    def convert(self, chunk: Iterable[Pair]) -> tuple:
        """Map a chunk of id pairs to row arrays (unknown ids dropped)."""
        domain_row = self.domain.index.get
        range_row = self.range.index.get
        rows_a: List[int] = []
        rows_b: List[int] = []
        for id_a, id_b in chunk:
            row_a = domain_row(id_a)
            row_b = range_row(id_b)
            if row_a is None or row_b is None:
                continue
            rows_a.append(row_a)
            rows_b.append(row_b)
        # int32 keeps IPC payloads at 8 bytes/pair; sources are far
        # below 2**31 rows.
        return (_np.asarray(rows_a, dtype=_np.int32),
                _np.asarray(rows_b, dtype=_np.int32))

    def _mapping_slices(self, mapping: Mapping) -> Iterator[tuple]:
        """A candidate mapping's rows, ``chunk_size`` at a time.

        What :func:`dedup_self_pairs` and :meth:`convert` do to its id
        pairs, in that order, on its code columns: self-matching drops ``a == a`` and
        the later orientation of a pair seen both ways round (ids of
        one name share one space, so codes compare like ids), then
        rows with an id unknown to either source go.
        """
        columns = mapping.columns()
        codes_a = recode(columns.domain_space, columns.domain,
                         self.domain.space)
        codes_b = recode(columns.range_space, columns.range,
                         self.range.space)
        if self.is_self:
            first, _ = distinct_keys(
                (_np.minimum(codes_a, codes_b).astype(_np.int64) << 32)
                | _np.maximum(codes_a, codes_b))
            first = first[codes_a[first] != codes_b[first]]
            codes_a, codes_b = codes_a[first], codes_b[first]
        rows_a = self.domain.rows_of(codes_a)
        rows_b = self.range.rows_of(codes_b)
        known = (rows_a >= 0) & (rows_b >= 0)
        return self._views(rows_a[known], rows_b[known], self.chunk_size)

    def _views(self, rows_a, rows_b, size: int) -> Iterator[tuple]:
        """Two row arrays, ``size`` rows at a time."""
        for start in range(0, len(rows_a), size):
            yield rows_a[start:start + size], rows_b[start:start + size]

    def gather(self, outputs: Iterable[tuple]) -> tuple:
        """Several :attr:`score` outputs as one, in the order given."""
        no_rows = _np.zeros(0, dtype=_np.int32)
        return _concatenated([(no_rows, no_rows, _np.zeros(0)), *outputs])

    def run(self, shard_index: int) -> tuple:
        """Score one whole shard where it is called: how many rows it
        scored, its survivors, and in how many :attr:`score` calls."""
        rows, outputs = 0, []
        for item in self.slices(self.shards[shard_index]):
            rows += len(item[0])
            outputs.append(self.score(*item))
        return rows, self.gather(outputs), len(outputs)

    def _block_slices(self, shards: List[BlockShard]) -> Iterator[tuple]:
        """The blocks' pairs: views of the one expansion, shard after
        shard, over the request's rows."""
        for shard in shards:
            own = self._own_rows(shard.sources)
            for rows_a, rows_b in shard.batch().expand():
                if own is not None:
                    rows_a, rows_b = own[0][rows_a], own[1][rows_b]
                    known = (rows_a >= 0) & (rows_b >= 0)
                    rows_a, rows_b = rows_a[known], rows_b[known]
                yield from self._views(rows_a, rows_b, self.block_rows)

    def _own_rows(self, sources: Sequence) -> Optional[tuple]:
        """Per side, the request's row of every row of ``sources`` (-1
        for an id the request's source lacks); ``None`` where they are
        the request's sources.  They differ for a subset matched
        against its source: a self-match blocks over the domain's rows
        on both sides, and the range is another object."""
        if all(mine is its for mine, its in zip(sources, self.sources)):
            return None
        return tuple(
            bridge.rows_of(recode(theirs.space, theirs.codes, bridge.space))
            for bridge, theirs in zip((self.domain, self.range),
                                      map(source_codes, sources)))


# ----------------------------------------------------------------------
# skew-aware shard rebalancing
# ----------------------------------------------------------------------

class CompositeShard(PairShard):
    """Several shards executed as one unit (an LPT bin).

    ``pairs()`` chains the members' streams, preserving each member's
    own canonicalization.  :meth:`ShardRunner.slices` expands
    the members' blocks one after another when *every* member is a
    :class:`BlockShard` (mixing would silently drop the others from
    the vectorized mode) and reads ``pairs()`` otherwise.
    """

    def __init__(self, members: Sequence[PairShard]) -> None:
        self.members = list(members)

    def pairs(self) -> Iterator[Pair]:
        for member in self.members:
            yield from member.pairs()

    def cost(self) -> Optional[int]:
        costs = [member.cost() for member in self.members]
        if any(cost is None for cost in costs):
            return None
        return sum(costs)


def explode(block: Sequence[int], target: int) -> Iterator[Sequence[int]]:
    """Split one block — a row of :attr:`BlockBatch.blocks` — into
    pieces of at most ~``target`` pairs.

    Pair-exact: the pieces' pairs are the block's.  Triangles
    decompose into *row bands* of ~``target`` pairs — the band's own
    (sub-)triangle plus one band x tail rectangle — so the piece count
    stays O(pair_count / target), not O(rows); oversized rectangles
    slice their longer dimension.  Triangle-derived rectangle pairs
    come in block order, which :class:`BlockShard`'s ``canonical`` flag
    re-orients where the serial stream emits ``(min id, max id)``.
    """
    start_a, count_a, start_b, count_b, triangle = block
    if (count_a * (count_a - 1) // 2 if triangle
            else count_a * count_b) <= target:
        yield block
    elif triangle:
        start = 0
        while start < count_a - 1:
            # rows [start, end) whose remaining-pair costs (n - 1 - i)
            # sum to ~target; a single row may exceed it and is taken
            # alone (its rectangle recurses into range-side slices)
            end, budget = start + 1, count_a - 1 - start
            while end < count_a - 1 and budget + count_a - 1 - end <= target:
                budget += count_a - 1 - end
                end += 1
            band = end - start
            if band > 1:
                yield start_a + start, band, start_b + start, band, 1
            yield from explode(
                (start_a + start, band, start_b + end, count_a - end, 0),
                target)
            start = end
    elif count_a > 1:
        step = max(1, target // count_b)
        for start in range(0, count_a, step):
            yield from explode((start_a + start, min(step, count_a - start),
                                start_b, count_b, 0), target)
    else:
        for start in range(0, count_b, target):
            yield (start_a, 1, start_b + start,
                   min(target, count_b - start), 0)


def _split_shard(shard: PairShard, cost: int,
                 target: int) -> List[Tuple[PairShard, int]]:
    """Split one oversized shard into ~``target``-cost pieces.

    Only :class:`BlockShard`\\ s can split (their pair sets partition
    cleanly); anything else is returned whole.  Pieces keep the
    shard's batch — a repeated pair still comes from its first block
    only — and its canonical orientation.
    """
    if not isinstance(shard, BlockShard):
        return [(shard, cost)]
    batch = shard.batch()
    exploded = batch._replace(blocks=_np.array(
        [piece for block in batch.blocks.tolist()
         for piece in explode(block, target)],
        dtype=_np.int64).reshape(-1, 5))
    if len(exploded.blocks) <= 1:
        return [(shard, cost)]
    costs = exploded.costs()
    return [
        (shard.over(exploded.take(start, end)), int(costs[start:end].sum()))
        for start, end in partition_spans(costs, max(1, -(-cost // target)))
    ]


def rebalance_shards(shards: Sequence[PairShard],
                     n_shards: int) -> List[PairShard]:
    """Rebalance a skewed shard list: split the long tail, LPT-pack.

    Deterministic: costs come from :meth:`PairShard.cost` (unknown
    costs are assumed average and never split), shards whose cost
    exceeds the per-bin target ``ceil(total / n_shards)`` are split
    into block pieces, and all pieces are packed largest-first onto
    the least-loaded bin.  Returns at most ``n_shards`` shards whose
    pair-set union equals the input's — the result mapping is
    unchanged, only the work distribution.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    shards = list(shards)
    # a *single* oversized shard is the worst skew of all (one
    # dominant key block), so one input shard must still split
    if n_shards == 1 or not shards:
        return shards
    costs = [shard.cost() for shard in shards]
    known = [cost for cost in costs if cost is not None]
    if not known:
        return shards
    assumed = max(1, sum(known) // len(known))
    costs = [assumed if cost is None else cost for cost in costs]
    total = sum(costs)
    if total <= 0:
        return shards
    target = max(1, -(-total // n_shards))
    pieces: List[Tuple[PairShard, int]] = []
    for shard, cost in zip(shards, costs):
        if cost > target:
            pieces.extend(_split_shard(shard, cost, target))
        else:
            pieces.append((shard, cost))
    # LPT: place the largest piece on the least-loaded bin; ties break
    # on bin index, keeping the packing fully deterministic.
    order = sorted(range(len(pieces)), key=lambda i: (-pieces[i][1], i))
    bins: List[List[PairShard]] = [[] for _ in range(min(n_shards,
                                                         len(pieces)))]
    heap = [(0, index) for index in range(len(bins))]
    for piece_index in order:
        load, bin_index = heapq.heappop(heap)
        bins[bin_index].append(pieces[piece_index][0])
        heapq.heappush(heap, (load + pieces[piece_index][1], bin_index))
    balanced: List[PairShard] = []
    for members in bins:
        if not members:
            continue
        balanced.append(members[0] if len(members) == 1
                        else CompositeShard(members))
    return balanced


# ----------------------------------------------------------------------
# the cost model: shard-plan decisions from cost estimates
# ----------------------------------------------------------------------

#: rebalance when the costliest shard's estimate exceeds this multiple
#: of the ideal per-worker share ``total / workers`` — beyond it the
#: naive schedule's makespan is bound by that one shard (the
#: dominant-key / stop-word-token signature), below it the naive list
#: already spreads within noise of optimal and balancing would only
#: pay the splitting pass for nothing
AUTO_SKEW_FACTOR = 1.25
#: preferred pair-cost per rebalanced bin; with worker-count clamps
#: this sizes bins to amortize per-shard dispatch without recreating a
#: long tail
AUTO_TARGET_SHARD_COST = 1 << 18


def autotune_plan(costs: Sequence[Optional[int]], workers: int):
    """Decide ``(balance, n_bins)`` from shard cost estimates.

    The pure decision kernel of the shard planner (Peukert-style
    rule/cost-driven tuning instead of hand-set flags).  Balancing
    turns on when the costliest shard exceeds
    :data:`AUTO_SKEW_FACTOR` times the ideal per-worker share
    ``total / workers`` — the quantity that actually bounds the naive
    schedule's makespan; a single oversized shard (``len(costs) ==
    1`` included) is the worst case and always trips it on a
    multi-worker run.  The bin count derives from the total estimated
    cost (one bin per :data:`AUTO_TARGET_SHARD_COST` pairs) clamped
    to between 4 and 16 bins per worker.  Shards with unknown cost
    are assumed average, exactly as :func:`rebalance_shards` treats
    them; all-unknown cost lists disable balancing (no evidence of
    skew).
    """
    known = [cost for cost in costs if cost is not None]
    if not known:
        return False, 4 * workers
    assumed = max(1, sum(known) // len(known))
    filled = [assumed if cost is None else cost for cost in costs]
    total = sum(filled)
    balance = total > 0 and \
        max(filled) * workers >= AUTO_SKEW_FACTOR * total
    bins = -(-total // AUTO_TARGET_SHARD_COST)
    return balance, max(4 * workers, min(16 * workers, bins))


def shards_authoritative(blocking) -> bool:
    """Whether ``blocking.shards`` actually describes ``candidates``.

    False for the un-overridden :meth:`PairGenerator.shards` default
    (one shard delegating to ``candidates()`` — as a pool task it
    would serialize the whole request into a single worker; cut in
    the parent, its slices spread over the pool) and for subclasses that override
    ``candidates`` *below* the class providing ``shards`` (the
    inherited partition describes the parent's pair set, not the
    override's).
    """
    cls = type(blocking)

    def defining(name):
        for base in cls.__mro__:
            if name in vars(base):
                return base
        return None

    shards_cls = defining("shards")
    candidates_cls = defining("candidates")
    if shards_cls is None or shards_cls is PairGenerator:
        return False
    if candidates_cls is None or candidates_cls is shards_cls:
        return True
    # candidates defined more derived than shards => shards is stale
    return not issubclass(candidates_cls, shards_cls)
