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
:meth:`PairShard.pairs` (or expands its :meth:`PairShard.blocks`
directly as packed row arrays), scores them, and ships only the
surviving correspondences back.  Nothing per-pair ever crosses a
process boundary, which removes the parent-side Amdahl bottleneck of
blocked parallel runs.

Shards additionally expose a :meth:`PairShard.cost` estimate (raw
pair count, pre-dedup) so the engine can rebalance skewed shard
distributions — splitting oversized block groups and bin-packing the
pieces — before any worker starts
(:func:`repro.engine.shards.autotune_plan` decides,
:func:`repro.engine.shards.rebalance_shards` does it).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.mapping import Mapping
from repro.model.source import LogicalSource

Pair = Tuple[str, str]

#: the protocol names a parameter ``range``, which shadows the builtin
#: inside generator methods — keep a module-level alias
_range = range


# ----------------------------------------------------------------------
# shard primitives
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IdBlock:
    """One rectangular (or triangular) unit of candidate pairs.

    ``triangle=False`` means the cross product ``domain_ids x
    range_ids`` oriented as (domain id, range id).  ``triangle=True``
    means the self-matching pairs of ``domain_ids`` alone: every
    ``(domain_ids[i], domain_ids[j])`` with ``i < j`` by list position
    (``range_ids`` is ignored).  Blocks deliberately carry plain id
    lists so the blocking layer stays independent of how the engine
    scores them (Python pairs or packed row arrays).
    """

    domain_ids: Sequence[str]
    range_ids: Sequence[str]
    triangle: bool = False

    def pair_count(self) -> int:
        """Raw (pre-dedup) number of pairs the block expands to."""
        if self.triangle:
            n = len(self.domain_ids)
            return n * (n - 1) // 2
        return len(self.domain_ids) * len(self.range_ids)


class PairShard(ABC):
    """One independent unit of a strategy's candidate generation.

    The contract is set-level: the union of ``pairs()`` over all
    shards of one ``shards()`` call equals the distinct pair set of
    ``candidates()`` on the same inputs.  A pair may appear in more
    than one shard (e.g. two tokens of the same pair assigned to
    different shards); downstream consumers must treat duplicate pairs
    idempotently, exactly as they must for ``candidates`` streams.
    """

    @abstractmethod
    def pairs(self) -> Iterator[Pair]:
        """Yield the shard's candidate pairs (duplicates allowed)."""

    def blocks(self) -> Optional[Iterator[IdBlock]]:
        """Optional block-structured view enabling vectorized scoring.

        Strategies whose shards are unions of rectangular/triangular
        id blocks return an iterator of :class:`IdBlock`; the engine
        can then expand pairs as packed row arrays without creating a
        Python tuple per pair.  ``None`` (the default) means the shard
        is only reachable through :meth:`pairs`.
        """
        return None

    def cost(self) -> Optional[int]:
        """Estimated raw (pre-dedup) pair count of this shard.

        The engine's skew-aware rebalancing uses this to spot long-tail
        shards before any worker starts.  ``None`` (the default) means
        unknown; such shards are never split, only bin-packed with an
        assumed average cost.
        """
        return None


class IterableShard(PairShard):
    """A shard wrapping an arbitrary pair-producing callable.

    ``cost`` is an optional raw pair-count estimate for the stream;
    strategies that can size their segments (e.g. sorted-neighborhood
    windows) pass it so rebalancing can weigh them.
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
    """A shard made of :class:`IdBlock`\\ s.

    ``dedup`` applies a shard-local first-seen filter so strategies
    whose serial ``candidates`` deduplicate (token blocking, canopies)
    keep that behavior per shard; cross-shard duplicates remain
    possible and allowed.  ``canonical`` orients self-matching pairs
    as ``(min id, max id)`` to match the serial emission of those
    strategies — for triangle blocks and also for rectangular blocks
    (which rebalancing produces by splitting oversized triangles);
    block-order orientation is kept otherwise (key blocking, full
    cross).
    """

    def __init__(self, factory: Callable[[], Iterable[IdBlock]], *,
                 dedup: bool = False, canonical: bool = False) -> None:
        self._factory = factory
        self.dedup = dedup
        self.canonical = canonical

    def blocks(self) -> Iterator[IdBlock]:
        return iter(self._factory())

    def pairs(self) -> Iterator[Pair]:
        emitted: Optional[Set[Pair]] = set() if self.dedup else None
        for block in self.blocks():
            if block.triangle:
                ids = block.domain_ids
                for i, id_a in enumerate(ids):
                    for id_b in ids[i + 1:]:
                        if self.canonical and id_b < id_a:
                            pair = (id_b, id_a)
                        else:
                            pair = (id_a, id_b)
                        if emitted is not None:
                            if pair in emitted:
                                continue
                            emitted.add(pair)
                        yield pair
            else:
                for id_a in block.domain_ids:
                    for id_b in block.range_ids:
                        if self.canonical and id_b < id_a:
                            pair = (id_b, id_a)
                        else:
                            pair = (id_a, id_b)
                        if emitted is not None:
                            if pair in emitted:
                                continue
                            emitted.add(pair)
                        yield pair

    def cost(self) -> int:
        """Exact raw pair count: the sum of the blocks' pair counts."""
        return sum(block.pair_count() for block in self.blocks())


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
    total = sum(costs)
    if total <= 0:
        # degenerate (all-zero) costs: balance by count instead
        step = (n + n_shards - 1) // n_shards
        return [(i, min(i + step, n)) for i in range(0, n, step)]
    target = total / n_shards
    spans: List[Tuple[int, int]] = []
    start = 0
    acc = 0.0
    for index, cost in enumerate(costs):
        acc += cost
        if acc >= target and len(spans) < n_shards - 1:
            spans.append((start, index + 1))
            start = index + 1
            acc = 0.0
    if start < n:
        spans.append((start, n))
    return spans


def block_shards(blocks: Sequence[IdBlock], n_shards: int, *,
                 dedup: bool = False,
                 canonical: bool = False) -> List[PairShard]:
    """``blocks`` as at most ``n_shards`` shards of contiguous runs.

    Runs are balanced by block pair counts, not block counts, so one
    huge block does not serialize the whole run.  ``dedup`` /
    ``canonical`` are every shard's :class:`BlockShard` flags.
    """
    spans = partition_spans([block.pair_count() for block in blocks],
                            n_shards)
    return [
        BlockShard(lambda s=start, e=end: iter(blocks[s:e]),
                   dedup=dedup, canonical=canonical)
        for start, end in spans
    ]


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
        spans every block, so its dedup is global and its order the
        strategy's own.
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

        Streams the candidate generator instead of materializing it,
        but exact distinct counting still needs a seen-set, so memory
        grows with the number of *distinct* pairs counted.  For large
        sources pass ``limit`` to stop (and bound the seen-set) at the
        first ``limit`` distinct pairs — diagnostics rarely need more
        precision than "at least N".  Strategies with a closed-form
        pair count (e.g. :class:`FullCross`) override this with an
        O(1) implementation.
        """
        seen: Set[Pair] = set()
        add = seen.add
        counted = 0
        for pair in self.candidates(domain, range,
                                    domain_attribute=domain_attribute,
                                    range_attribute=range_attribute):
            if pair not in seen:
                add(pair)
                counted += 1
                if limit is not None and counted >= limit:
                    break
        return counted


class FullCross(PairGenerator):
    """The unblocked cross product (self-matching skips reflexive pairs)."""

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Id-range tiles: contiguous slices of the domain id list.

        Self-matching tiles are balanced by the triangular row costs
        (row ``i`` contributes ``n - 1 - i`` pairs), so early tiles
        take fewer rows than late ones.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        ids = domain.ids()
        if is_self_match(domain, range):
            n = len(ids)
            spans = partition_spans([n - 1 - i for i in _range(n)], n_shards)

            def tile(start: int, end: int) -> Callable[[], Iterator[IdBlock]]:
                def blocks() -> Iterator[IdBlock]:
                    for i in _range(start, end):
                        tail = ids[i + 1:]
                        if tail:
                            yield IdBlock(ids[i:i + 1], tail)
                return blocks

            return [BlockShard(tile(start, end)) for start, end in spans]
        range_ids = range.ids()
        if not ids or not range_ids:
            return []
        spans = partition_spans([1] * len(ids), n_shards)
        return [
            BlockShard(lambda s=start, e=end: iter(
                [IdBlock(ids[s:e], range_ids)]))
            for start, end in spans
        ]

    def count(self, domain: LogicalSource, range: LogicalSource, *,
              domain_attribute: str, range_attribute: str,
              limit: Optional[int] = None) -> int:
        """Closed-form count — the cross product is never materialized.

        The generic implementation would build a quadratic seen-set
        here (the full cross product *is* distinct), which is exactly
        the memory blow-up this override avoids.
        """
        if is_self_match(domain, range):
            n = len(domain)
            total = n * (n - 1) // 2
        else:
            total = len(domain) * len(range)
        return total if limit is None else min(total, limit)


def unique_pairs(pairs: Iterable[Pair]) -> Iterator[Pair]:
    """Deduplicate a pair stream, preserving first-seen order."""
    seen: Set[Pair] = set()
    for pair in pairs:
        if pair not in seen:
            seen.add(pair)
            yield pair


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
