"""Blocking protocol, trivial generator, sharding and quality metrics.

A strategy defines its pair set once, as ``shards``: a partition into
independent units of candidate generation that can run on different
worker processes with no shared mutable state.  The streaming
``candidates`` protocol is that definition asked for one shard and
read out (:meth:`PairGenerator.candidates`).

The shard-payload contract with the engine's sharded execution path
(:mod:`repro.engine.shards`) is **indices in, survivors out**: the
shard list is built in the parent *before* the worker pool forks, so
workers inherit it (sources, similarity state, packed kernel arrays
and all) copy-on-write; each task ships only an int shard index into
a worker, the worker generates that shard's pairs locally via
:meth:`PairShard.pairs` (or, for a :class:`BlockShard`, expands its
:class:`BlockBatch` of rows directly as packed row arrays — no id
string is read), scores them, and ships only the
surviving correspondences back.  Nothing per-pair ever crosses a
process boundary, which removes the parent-side Amdahl bottleneck of
blocked parallel runs.

Shards additionally expose a :meth:`PairShard.cost` estimate (raw
pair count, pre-dedup), by which the engine sizes its score tables.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import partial
from itertools import repeat
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.mapping import Mapping
from repro.model.source import LogicalSource

Pair = Tuple[str, str]
Array = Any

#: the protocol names a parameter ``range``, which shadows the builtin
#: inside generator methods — keep a module-level alias
_range = range

#: rows one step of :meth:`BlockBatch.expand` produces: a few MB of
#: temporaries however large the blocks are
EXPAND_ROWS = 1 << 18


# ----------------------------------------------------------------------
# shard primitives
# ----------------------------------------------------------------------

class BlockBatch(NamedTuple):
    """The blocks of one shard, as arrays.

    Row ``k`` of ``blocks`` is ``(start_a, count_a, start_b, count_b,
    triangle)``: block ``k`` pairs ``rows_a[start_a:][:count_a]`` with
    ``rows_b[start_b:][:count_b]`` — every one with every other, or,
    for a triangle, each with the later ones of the same span, which
    the b side repeats.  Blocks share the row arrays: a run of them
    (:meth:`take`) costs five integers.  Where blocks overlap,
    ``first`` says which copy of a repeated pair :meth:`expand` keeps
    (:class:`FirstBlocks`); ``None``, they never repeat one.
    """

    rows_a: Array  # int32 domain rows
    rows_b: Array  # int32 range rows
    blocks: Array  # int64, shape (n, 5)
    first: Optional["FirstBlocks"] = None

    def take(self, start: int, end: int) -> "BlockBatch":
        return self._replace(blocks=self.blocks[start:end])

    def costs(self) -> Array:
        """Raw (pre-dedup) pair count of every block."""
        _, count_a, _, count_b, triangle = self.blocks.T
        return np.where(triangle, count_a * (count_a - 1) // 2,
                        count_a * count_b)

    def runs(self) -> Tuple[Array, Array, Array, Array]:
        """One run of pairs per a-side row of a block, in expansion
        order: its block (a row of ``blocks``), the row's place on
        that block's a side, how many of the block's b-side rows it
        passes over (a triangle's row pairs with the later ones only)
        and how many pairs it has."""
        _, count_a, _, count_b, triangle = self.blocks.T
        block = np.repeat(np.arange(len(count_a)), count_a)
        nth = np.arange(len(block)) - (np.cumsum(count_a) - count_a)[block]
        skipped = np.where(triangle[block], nth + 1, 0)
        return block, nth, skipped, count_b[block] - skipped

    def size(self) -> int:
        """How many pairs :meth:`expand` yields: the raw count less
        the repeats ``first`` drops."""
        if self.first is None:
            return int(self.costs().sum())
        block, nth, skipped, lens = self.runs()
        at = self.first.positions(self.blocks, block, nth, skipped)
        return self.first.count(at, at + lens)

    def expand(self) -> Iterator[Tuple[Array, Array]]:
        """The blocks' pairs as ``(rows_a, rows_b)`` arrays, block
        after block and row-major within: one ragged cross product,
        cut every :data:`EXPAND_ROWS` rows wherever that falls, each
        step less the repeats ``first`` drops."""
        start_a, _, start_b, _, _ = self.blocks.T
        block, nth, skipped, lens = self.runs()
        begins = np.cumsum(lens) - lens
        shift = start_b[block] + skipped - begins
        left = self.rows_a[start_a[block] + nth]
        first = self.first
        if first is not None:
            # per run, from its place here to its place in the whole
            at = first.positions(self.blocks, block, nth, skipped) - begins
        for p, q, lo, hi, part in _steps(lens, EXPAND_ROWS):
            step = np.arange(p, q)
            rows_a = np.repeat(left[lo:hi], part)
            rows_b = step + np.repeat(shift[lo:hi], part)
            if first is not None:
                kept = first.kept(step, at[lo:hi], part)
                rows_a, rows_b = rows_a.compress(kept), rows_b.compress(kept)
            yield rows_a, self.rows_b[rows_b]


def _steps(lens: Array, size: int) -> Iterator[Tuple[int, int, int, int,
                                                        Array]]:
    """Runs of ``lens`` rows laid end to end, cut every ``size`` rows:
    per step its rows ``[p, q)``, the runs ``[lo, hi)`` they fall in
    and how many rows each of those runs gives the step."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    for p in _range(0, total, size):
        q = min(p + size, total)
        lo = np.searchsorted(ends, p, side="right")
        hi = np.searchsorted(ends, q, side="left") + 1
        part = lens[lo:hi].copy()
        part[0] = ends[lo] - p
        part[-1] -= ends[hi - 1] - q
        yield p, q, lo, hi, part


class FirstBlocks(NamedTuple):
    """Which copy of a pair that several blocks hold is kept: the one
    in the first block holding both of its rows — Papadakis et al.'s
    comparison propagation ("least common block index", JCDL 2011),
    and the copy a first-seen pass over the whole batch keeps, in the
    same place.

    One bit per pair of a whole batch's expansion (:meth:`of`).  A
    batch cut from that one — a run of its blocks
    (:meth:`BlockBatch.take`) — reads the bits of its own pairs: a
    block is found by its first a-side row, so the whole batch's
    a-side spans must ascend without overlapping, which
    :func:`join_postings` gives.
    """

    blocks: Array   # the whole batch's blocks
    offsets: Array  # int64: where each block's pairs start
    words: Array    # uint64: the keep bits, 64 a word, a spare word last

    @classmethod
    def of(cls, batch: BlockBatch) -> "FirstBlocks":
        """``batch``'s keep bits: all set but the repeats', which
        :func:`_repeats` finds a step of the expansion at a time."""
        costs = batch.costs()
        total = int(costs.sum())
        words = np.full(total // 64 + 1, ~np.uint64(0))
        words[-1] = _bit(total) - np.uint64(1)
        for first, repeats in _repeats(batch,
                                       max(64, EXPAND_ROWS // 64 * 64)):
            head = first // 64
            cleared = np.packbits(repeats, bitorder="little").view(
                np.uint64)[:len(words) - head]
            words[head:head + len(cleared)] &= ~cleared
        return cls(batch.blocks, np.cumsum(costs) - costs, words)

    def positions(self, blocks: Array, block: Array, nth: Array,
                  skipped: Array) -> Array:
        """Where the first pair of each run of ``blocks``
        (:meth:`BlockBatch.runs`) sits in the whole batch's
        expansion."""
        whole = np.searchsorted(self.blocks[:, 0], blocks[:, 0],
                                side="right")[block] - 1
        _, count_a, _, count_b, triangle = self.blocks[whole].T
        return self.offsets[whole] + skipped + np.where(
            triangle, _triangle_row(nth, count_a), nth * count_b)

    def kept(self, step: Array, at: Array, part: Array) -> Array:
        """Whether each pair of an expansion step is kept: ``step``
        numbers the pairs, ``part`` counts them per run and ``at``
        moves each run's numbers to the whole batch's."""
        if (at == at[0]).all():  # one stretch of the whole batch's pairs
            start = int(step[0] + at[0])
            return np.unpackbits(
                self.words.view(np.uint8)[start >> 3:],
                count=(start & 7) + len(step),
                bitorder="little")[start & 7:].view(bool)
        positions = step + np.repeat(at, part)
        return (self.words[positions >> 6] >> _bit_index(positions)
                & np.uint64(1)).astype(bool)

    def count(self, starts: Array, ends: Array) -> int:
        """Kept pairs in the position ranges ``[starts, ends)``."""
        counts = _popcount(self.words)
        before = np.cumsum(counts) - counts

        def upto(positions: Array) -> Array:
            word = positions >> 6
            return before[word] + _popcount(
                self.words[word] & (_bit(positions) - np.uint64(1)))

        return int((upto(ends) - upto(starts)).sum())


def _repeats(batch: BlockBatch, step: int) -> Iterator[Tuple[int, Array]]:
    """Where ``batch``'s expansion repeats a pair: per ``step`` pairs
    that hold a repeat, the first one's place and a flag per pair from
    there (a block's worth past the step, where its rows' pairs end).

    Two blocks that hold the same rows on both sides both hold those
    rows' pairs, and the later block repeats them; every repeat is
    such a pair.  So per side, every row and every two of its blocks
    give the row's place in the later block (:func:`_shared_places`),
    and joining the sides on the two blocks gives every repeat, once
    per earlier block holding it: the work follows the repeats and
    the rows' block counts, not the raw pairs.  The blocks are all
    triangles over one side or all rectangles, as
    :func:`join_postings` makes them.
    """
    start_a, count_a, start_b, count_b, triangle = batch.blocks.T
    costs = batch.costs()
    total = int(costs.sum())
    if not total:
        return
    widest = int(max(count_a.max(), count_b.max()))
    shift = widest.bit_length()
    if len(costs) ** 2 << shift >= 1 << 63:
        raise OverflowError(f"{len(costs)} blocks of up to {widest} rows "
                            "do not fit a 64-bit block-pair key")
    low = (1 << shift) - 1
    a = _shared_places(batch.rows_a, start_a, count_a, shift)
    later, place = (a >> shift) % len(costs), a & low
    if triangle.any():  # a row pairs with the later places of its block
        b = a
        lo = np.searchsorted(b, a, side="right")
        start = _triangle_row(place, count_a[later])
    else:
        b = _shared_places(batch.rows_b, start_b, count_b, shift)
        lo = np.searchsorted(b, a & ~low)
        start = place * count_b[later]
    lens = np.searchsorted(b, (a | low) + 1) - lo
    start += (np.cumsum(costs) - costs)[later]
    stepped = total > step
    if stepped:  # a step's rows by where their pairs start
        order = np.argsort(start)
        start, lo, lens = start[order], lo[order], lens[order]
    else:
        step = -(-total // 64) * 64
    for first in _range(0, total, step):
        s, e = (np.searchsorted(start, (first, first + step)) if stepped
                else (0, len(start)))
        part = lens[s:e]
        if not part.any():
            continue
        places = np.arange(int(part.sum())) + np.repeat(
            lo[s:e] - (np.cumsum(part) - part), part)
        repeats = np.zeros(step + -(-widest // 64) * 64, dtype=bool)
        repeats[np.repeat(start[s:e] - first, part)
                + (b[places] & low)] = True
        yield first, repeats


def _shared_places(rows: Array, starts: Array, counts: Array,
                   shift: int) -> Array:
    """For every row and every two blocks ``k' < k`` holding it,
    ``(k' * blocks + k) << shift | its place in block k``, sorted."""
    block = np.repeat(np.arange(len(counts)), counts)
    place = np.arange(len(block)) - (np.cumsum(counts) - counts)[block]
    row = rows[starts[block] + place]
    # a row's blocks, ascending, as a run
    order = stable_order(row)
    row, block, place = row[order], block[order], place[order]
    index = np.arange(len(row))
    opens = np.maximum.accumulate(
        np.where(np.diff(row, prepend=-1) != 0, index, 0))
    # each membership pairs with the ones before it in its row's run
    rank = index - opens
    later = np.repeat(index, rank)
    earlier = opens[later] + np.arange(len(later)) - np.repeat(
        np.cumsum(rank) - rank, rank)
    return np.sort((block[earlier] * len(counts) + block[later]) << shift
                   | place[later])


def _triangle_row(i: Array, count: Array) -> Array:
    """Where row ``i`` of a ``count``-row triangle would put its pair
    with row 0: its pair with row ``j > i`` is ``j`` further on."""
    # rows before i hold i * (count - 1) - i * (i - 1) / 2 pairs
    return i * (2 * count - i - 3) // 2 - 1


_M1, _M2, _M4, _H01 = (np.uint64(mask) for mask in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x0101010101010101))


def _popcount(words: Array) -> Array:
    """Set bits per ``uint64`` word, as int64."""
    words = words - (words >> np.uint64(1) & _M1)
    words = (words & _M2) + (words >> np.uint64(2) & _M2)
    words = (words + (words >> np.uint64(4))) & _M4
    return ((words * _H01) >> np.uint64(56)).astype(np.int64)


def _bit_index(positions: Array) -> Array:
    return (np.asarray(positions) & 63).astype(np.uint64)


def _bit(positions: Array) -> Array:
    """Each position's bit in its word."""
    return np.left_shift(np.uint64(1), _bit_index(positions))


def keep_first(batch: BlockBatch) -> BlockBatch:
    """``batch``, each pair expanded in the first block holding it."""
    return batch._replace(first=FirstBlocks.of(batch))


class PairShard(ABC):
    """One independent unit of a strategy's candidate generation.

    The contract is set-level: the union of ``pairs()`` over all
    shards of one ``shards()`` call equals the distinct pair set of
    ``candidates()`` on the same inputs.  A stream's pair may appear
    more than once, in one shard or several (a strategy's own
    ``candidates``); downstream consumers must treat duplicate pairs
    idempotently, exactly as they must for ``candidates`` streams.  A :class:`BlockShard`'s pairs are each in
    one shard, once.
    """

    @abstractmethod
    def pairs(self) -> Iterator[Pair]:
        """Yield the shard's candidate pairs (duplicates allowed)."""

    def cost(self) -> Optional[int]:
        """Estimated raw (pre-dedup) pair count of this shard.

        The engine sizes its score tables by the plan's total
        (:meth:`repro.engine.engine.BatchMatchEngine._prepare`).
        ``None`` (the default) means unknown, and then no table is
        built.
        """
        return None

    def distinct_pairs(self, limit: Optional[int] = None) -> int:
        """The distinct pairs of :meth:`pairs`, counted up to ``limit``."""
        seen: Set[Pair] = set()
        for pair in self.pairs():
            seen.add(pair)
            if limit is not None and len(seen) >= limit:
                return limit
        return len(seen)


class IterableShard(PairShard):
    """A shard wrapping an arbitrary pair-producing callable.

    ``cost`` is an optional raw pair-count estimate for the stream
    (an explicit list's length).
    """

    def __init__(self, factory: Callable[[], Iterable[Pair]], *,
                 cost: Optional[int] = None) -> None:
        self._factory = factory
        self._cost = cost

    def pairs(self) -> Iterator[Pair]:
        yield from self._factory()

    def cost(self) -> Optional[int]:
        return self._cost


class BlockShard(PairShard):
    """A shard made of blocks: a :class:`BlockBatch` over the rows of
    the two ``sources`` (positions in their ``ids()``; a self-match's
    are the domain's on both sides).  What every block-structured
    strategy emits; the engine expands the batch as rows, and ids are
    read by :meth:`pairs` alone.

    A pair that overlapping blocks repeat (token blocking) comes once,
    from the first block holding it, whichever shard that block went
    to (:class:`FirstBlocks`).  ``canonical`` orients self-matching
    pairs as ``(min id, max id)`` to match the serial emission of
    those strategies; block-order orientation is kept otherwise (key
    blocking, full cross).
    """

    def __init__(self, batch: BlockBatch,
                 sources: Tuple[LogicalSource, LogicalSource], *,
                 canonical: bool = False) -> None:
        self._batch, self.sources = batch, tuple(sources)
        self.canonical = canonical

    def batch(self) -> BlockBatch:
        return self._batch

    def pairs(self) -> Iterator[Pair]:
        ids_a, ids_b = (np.asarray(source.ids(), dtype=object)
                        for source in self.sources)
        for rows_a, rows_b in self.batch().expand():
            pairs = zip(ids_a[rows_a].tolist(), ids_b[rows_b].tolist())
            if self.canonical:
                pairs = ((b, a) if b < a else (a, b) for a, b in pairs)
            yield from pairs

    def cost(self) -> int:
        """Exact raw pair count: the sum of the blocks' pair counts."""
        return int(self.batch().costs().sum())

    def distinct_pairs(self, limit: Optional[int] = None) -> int:
        size = self.batch().size()
        return size if limit is None else min(size, limit)


def partition_spans(costs: Sequence[int], n_shards: int) -> List[Tuple[int, int]]:
    """Split ``range(len(costs))`` into at most ``n_shards`` contiguous,
    cost-balanced ``(start, end)`` spans.

    Deterministic and order-preserving: concatenating the spans
    reproduces the original index order, which is what lets sharded
    candidate generation mirror the serial iteration order of each
    strategy.  Skewed cost distributions may yield fewer spans than
    requested; every span is non-empty.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    n = len(costs)
    if n == 0:
        return []
    n_shards = min(n_shards, n)
    ends = np.cumsum(costs, dtype=np.int64)
    total = int(ends[-1])
    if total <= 0:
        # degenerate (all-zero) costs: balance by count instead
        step = (n + n_shards - 1) // n_shards
        return [(i, min(i + step, n)) for i in range(0, n, step)]
    target = math.ceil(total / n_shards)
    spans: List[Tuple[int, int]] = []
    start = reached = 0
    while len(spans) < n_shards - 1:
        end = int(np.searchsorted(ends, reached + target)) + 1
        if end > n:
            break
        spans.append((start, end))
        start, reached = end, int(ends[end - 1])
    if start < n:
        spans.append((start, n))
    return spans


def block_shards(batch: BlockBatch, domain: LogicalSource,
                 range: LogicalSource, n_shards: int, *,
                 canonical: bool = False) -> List[PairShard]:
    """``batch`` as at most ``n_shards`` shards of contiguous runs.

    Its rows are ``domain``'s and ``range``'s — a self-match's
    ``domain``'s on both sides, whichever object ``range`` is.  Runs
    are balanced by block pair counts, not block counts, so one huge
    block does not serialize the whole run.  ``canonical`` is every
    shard's :class:`BlockShard` flag.
    """
    sources = (domain, domain if is_self_match(domain, range) else range)
    return [BlockShard(batch.take(start, end), sources,
                       canonical=canonical)
            for start, end in partition_spans(batch.costs(), n_shards)]


class Postings(NamedTuple):
    """Rows grouped by a key (a token, a blocking key): the rows of
    ``codes[key]`` are ``rows[indptr[code]:indptr[code + 1]]``,
    ascending; codes count the keys in order of first occurrence."""

    codes: dict
    indptr: Array
    rows: Array

    @classmethod
    def of(cls, keys: Sequence[Any], rows: Sequence[int]) -> "Postings":
        """From parallel ``keys`` / ``rows``, the rows ascending."""
        codes = {key: code for code, key in enumerate(dict.fromkeys(keys))}
        return cls.grouped(codes, np.fromiter(
            map(codes.__getitem__, keys), dtype=np.int64, count=len(keys)),
            rows)

    @classmethod
    def grouped(cls, codes: dict, owner: Array,
                rows: Sequence[int]) -> "Postings":
        """From the code of each row's key (``owner``, parallel to
        ``rows``), ``codes`` numbering the keys in order of first
        occurrence, the rows ascending."""
        indptr = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=len(codes)), out=indptr[1:])
        return cls(codes, indptr, np.asarray(rows, dtype=np.int32).take(
            stable_order(owner)))


def stable_order(keys: Array) -> Array:
    """``np.argsort(keys, kind="stable")`` of non-negative integer
    ``keys``, as one plain sort: each key's index packed beneath it
    (every key times ``len(keys)`` fits an int64)."""
    count = len(keys)
    return np.sort(np.asarray(keys, dtype=np.int64) * count
                   + np.arange(count)) % max(count, 1)


def join_postings(domain: Postings, range: Optional[Postings],
                  keep: Callable[[Array, Array], Array]) -> BlockBatch:
    """One block per key both sides hold — ``range=None``: one triangle
    per key of ``domain`` — in ``domain``'s key order, where ``keep``
    says so of the two sides' row counts."""
    counts_a = np.diff(domain.indptr)
    if range is None:
        range, partner, counts_b = domain, np.arange(len(counts_a)), counts_a
    else:
        partner = np.fromiter(map(range.codes.get, domain.codes,
                                  repeat(-1)),
                              dtype=np.int64, count=len(counts_a))
        # a key the range lacks reads the appended 0
        counts_b = np.append(np.diff(range.indptr), 0)[partner]
    kept = np.flatnonzero((counts_b > 0) & keep(counts_a, counts_b))
    return BlockBatch(domain.rows, range.rows, np.stack((
        domain.indptr[kept], counts_a[kept],
        range.indptr[partner[kept]], counts_b[kept],
        np.full(len(kept), range is domain)), axis=1))


def is_self_match(domain: LogicalSource, range: LogicalSource) -> bool:
    """True for self-matching (duplicate detection in one source).

    Two source *objects* under one name count as well: a subset of a
    source matched against the source is still self-matching.
    """
    return domain is range or domain.name == range.name


# ----------------------------------------------------------------------
# the generator protocol
# ----------------------------------------------------------------------

class PairGenerator:
    """Produces candidate (domain id, range id) pairs for matching.

    A strategy overrides :meth:`shards` — its one definition of the
    pair set — and inherits :meth:`candidates`.  A foreign strategy may
    override ``candidates`` alone instead: it keeps the one delegating
    shard below, which the engine never treats as a partition
    (:func:`repro.engine.shards.shards_authoritative`).
    """

    def candidates(self, domain: LogicalSource, range: LogicalSource, *,
                   domain_attribute: str,
                   range_attribute: str) -> Iterator[Pair]:
        """Yield candidate pairs; duplicates are allowed (matchers dedup).

        The serial stream *is* the one-shard partition: a single shard
        spans every block, in the strategy's own order.
        """
        if type(self).shards is PairGenerator.shards:
            # the two defaults would only call each other
            raise TypeError(
                f"{type(self).__name__} defines neither shards() nor "
                "candidates(); a blocking strategy must override one")
        for shard in self.shards(domain, range, n_shards=1,
                                 domain_attribute=domain_attribute,
                                 range_attribute=range_attribute):
            yield from shard.pairs()

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Partition candidate generation into independent units.

        The union of the shards' ``pairs()`` is the strategy's pair
        set, and ``n_shards=1`` yields :meth:`candidates`' stream
        itself.  The base implementation is for strategies that define
        ``candidates`` only: it cannot split them, so it returns a
        single shard delegating there.  The engine detects that default
        and cuts its slices in the parent instead — as a pool task, one
        delegating shard would serialize the whole request into a
        single worker.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        return [IterableShard(lambda: self.candidates(
            domain, range,
            domain_attribute=domain_attribute,
            range_attribute=range_attribute,
        ))]

    def count(self, domain: LogicalSource, range: LogicalSource, *,
              domain_attribute: str, range_attribute: str,
              limit: Optional[int] = None) -> int:
        """Number of *distinct* candidate pairs (diagnostics).

        Counted by the one-shard partition
        (:meth:`PairShard.distinct_pairs`): from the block arrays for
        blocks, in a seen-set of id pairs for a stream.  The seen-set
        grows with the pairs counted, so for large sources pass
        ``limit`` to stop at the first ``limit`` — diagnostics rarely
        need more than "at least N".
        """
        # an overridden candidates() is the pair set, whatever shards()
        # says: count the default shard, which delegates to it
        inherited = type(self).candidates is PairGenerator.candidates
        shards = (self.shards if inherited
                  else partial(PairGenerator.shards, self))
        partition = shards(domain, range, n_shards=1,
                           domain_attribute=domain_attribute,
                           range_attribute=range_attribute)
        return partition[0].distinct_pairs(limit) if partition else 0


class FullCross(PairGenerator):
    """The unblocked cross product (self-matching skips reflexive pairs)."""

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Row tiles: contiguous slices of the domain rows.

        Self-matching tiles are balanced by the triangular row costs
        (row ``i`` pairs with the ``n - 1 - i`` rows after it), so
        early tiles take fewer rows than late ones.
        """
        n, width = len(domain), len(range)
        rows = np.arange(n, dtype=np.int32)
        if is_self_match(domain, range):
            row = np.arange(n)
            return block_shards(
                BlockBatch(rows, rows, np.stack(
                    (row, np.ones_like(row), row + 1, n - 1 - row,
                     np.zeros_like(row)), axis=1)),
                domain, range, n_shards)
        spans = partition_spans([1] * n, n_shards)
        if not width:
            return []
        tiles = BlockBatch(rows, np.arange(width, dtype=np.int32), np.array(
            [(start, end - start, 0, width, 0) for start, end in spans],
            dtype=np.int64).reshape(-1, 5))
        return [BlockShard(tiles.take(k, k + 1), (domain, range))
                for k in _range(len(tiles.blocks))]


def dedup_self_pairs(pairs: Iterable[Pair]) -> Iterator[Pair]:
    """Self-matching hygiene for a candidate pair stream.

    Skips reflexive pairs and drops unordered duplicates — (a, b) and
    (b, a) are the same self-matching candidate; the first orientation
    seen survives.  Both engine execution paths (streamed and sharded)
    apply exactly this filter, which is part of why their results are
    identical; keep it the single definition.
    """
    seen: Set[Pair] = set()
    for id_a, id_b in pairs:
        if id_a == id_b:
            continue
        key = (id_b, id_a) if id_b < id_a else (id_a, id_b)
        if key in seen:
            continue
        seen.add(key)
        yield id_a, id_b


def pair_completeness(candidate_pairs: Iterable[Pair], gold: Mapping) -> float:
    """Fraction of gold correspondences retained by blocking.

    1.0 means blocking loses no true match (recall is not capped);
    anything lower bounds the recall any downstream matcher can reach.
    """
    gold_pairs = gold.pairs()
    if not gold_pairs:
        return 1.0
    surviving = sum(1 for pair in set(candidate_pairs) if pair in gold_pairs)  # repro: allow-unordered -- commutative integer count over a deduplicated set
    return surviving / len(gold_pairs)


def reduction_ratio(candidate_count: int, domain_size: int,
                    range_size: int, *, self_match: bool = False) -> float:
    """Fraction of the comparison space that blocking avoided.

    For two-source matching the comparison space is the cross product
    ``domain_size * range_size``.  For self-matching (``self_match=
    True``, i.e. duplicate detection within one source) it is the
    unordered-pair count ``n * (n - 1) / 2`` — using the cross product
    there understates how much blocking saved by more than 2x.
    """
    if self_match:
        total = domain_size * (domain_size - 1) // 2
    else:
        total = domain_size * range_size
    if total == 0:
        return 0.0
    return max(0.0, 1.0 - candidate_count / total)
