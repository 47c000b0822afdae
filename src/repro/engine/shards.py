"""Shards: the engine's unit of candidate generation and scoring.

A request's plan (:meth:`repro.engine.engine.BatchMatchEngine._plan`)
is a list of :class:`PairShard`\\ s: one holding the whole request, or
— when there are workers — the blocking strategy's partition
(:meth:`PairGenerator.shards`: key groups, posting-list ranges, row
tiles).  A :class:`ShardRunner` cuts a shard into *slices*, scores a
slice and gathers the survivors of several; the engine loads what
comes back.  A slice is a pair of row arrays for the request's kernel
(:func:`repro.engine.vectorized.request_kernel`), cut one of three ways:

* **block expansion** — the shard is a :class:`BlockShard`: a
  :class:`BlockBatch`, start / count arrays into row arrays, made
  without reading an id string.  One routine
  (:meth:`BlockBatch.expand`) turns a batch into rows — rectangles and
  triangles as one ragged cross product, at most ``EXPAND_ROWS`` rows
  at a time — and a slice is a ``chunk_size`` view of that:
  cache-sized kernel calls, no Python step per block or pair.  Rows of
  other source objects than the request's (a subset matched against
  its source) are mapped through the sources' code bridges once per
  shard.  A pair that overlapping blocks repeat is expanded once, in
  the first block holding it
  (:class:`~repro.blocking.pair_generator.FirstBlocks`: a bit per pair,
  kept by the sources), so no repeat reaches the kernel and no pair is
  in two shards.
* **converted id-pair chunks** — any other shard, and a self-match
  whose kernel is not orientation-symmetric: ``shard.pairs()``
  in ``chunk_size`` chunks, each converted to row arrays
  (:meth:`ShardRunner.convert`).
* **mapping rows** — the candidates are a :class:`Mapping`
  (:class:`MappingShard`): its code columns become row arrays through
  the sources' bridges (:func:`repro.core.mapping.source_codes`), cut
  into ``chunk_size`` slices in the mapping's row order — no id string
  is read.

A one-shard plan is cut and scored inline (:meth:`ShardRunner.slices`,
:attr:`ShardRunner.score`).  Otherwise every *shard* is a pool task
(:meth:`ShardRunner.run`): the runner — shard list, request, scoring
state — is built in the parent *before* the pool forks
(:func:`repro.engine.pool.run_ordered`), so the children inherit
everything copy-on-write and the parent, one of the workers, scores
on the originals; each task carries one int **shard index in** and
returns only the **survivors out** — ``(rows_a, rows_b, scores)``
arrays.  Nothing per-pair crosses a process boundary.

Correctness contract: for every blocking strategy the result mapping
is the same however many shards the plan holds.  Shard pair sets
union to the candidate set, scores depend only on the value pair, and
loading is idempotent for the duplicates a pair stream may carry, so
shard order and duplication cannot change the outcome.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as _np

from repro.blocking.pair_generator import (
    BlockShard,
    PairGenerator,
    PairShard,
    dedup_self_pairs,
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


def _known(rows_a, rows_b) -> tuple:
    """The two row arrays without the pairs an unknown row (-1) is in."""
    known = (rows_a >= 0) & (rows_b >= 0)
    return rows_a.compress(known), rows_b.compress(known)


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
    sources, similarity state and packed columns copy-on-write and a
    task carries a shard index (:meth:`run`).  ``kernel`` is the request's
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
        self.kernel = kernel
        self.sources = (request.domain, request.range)
        self.domain = source_codes(request.domain)
        self.range = source_codes(request.range)
        #: ``score(rows_a, rows_b)``: one slice's survivors as
        #: ``(rows_a, rows_b, scores)`` arrays, which the parent loads
        #: as columns
        self.score = partial(
            survivors, kernel, threshold=request.threshold,
            missing_zero=(request.combiner is None
                          and request.missing == "zero"))

    def slices(self, shard: PairShard) -> Iterator[tuple]:
        """The shard's work items, each the ``(rows_a, rows_b)``
        arguments of one :attr:`score` call: a mapping's rows, a block
        shard's expansion, or else the converted pair stream.

        Self-matching block expansion may emit a pair in either
        orientation, so it additionally requires an
        orientation-symmetric kernel; kernels carrying a scalar column
        (whose wrapped similarity may be asymmetric) take the
        orientation-faithful pair stream instead.
        """
        if isinstance(shard, MappingShard):
            return self._mapping_slices(shard.mapping)
        if isinstance(shard, BlockShard) and (
                self.kernel.orientation_symmetric or not self.is_self):
            return self._block_slices(shard)
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
        return self._views(*_known(rows_a, rows_b))

    def _views(self, rows_a, rows_b) -> Iterator[tuple]:
        """Two row arrays, ``chunk_size`` rows at a time."""
        size = self.chunk_size
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

    def _block_slices(self, shard: BlockShard) -> Iterator[tuple]:
        """The blocks' pairs: views of the one expansion, over the
        request's rows."""
        own = self._own_rows(shard.sources)
        for rows_a, rows_b in shard.batch().expand():
            if own is not None:
                rows_a, rows_b = _known(own[0].take(rows_a),
                                        own[1].take(rows_b))
            yield from self._views(rows_a, rows_b)

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
