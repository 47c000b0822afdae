"""Block expansion one block at a time, kept as the oracle.

These are the loops ``repro.blocking`` and ``repro.engine.shards`` ran
while candidates were id strings: a ``token -> [id, ...]`` posting
dict filtered token by token, per block a ``dict.get`` for every id
and an ``np.repeat`` / ``np.tile``, per pair a Python tuple through a
first-seen set.  They only touch
:class:`IdBlock`\\ s — a block as two id lists, which is how
:func:`id_blocks` reads a shard — and plain ``id -> row`` dicts, so
the row arrays and their order *define* what the block batch
(:class:`repro.blocking.pair_generator.BlockBatch`) must expand to:
every pair of its blocks, or, where blocks overlap (token blocking),
the copy a first-seen walk over the whole batch keeps
(:func:`first_seen`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.blocking import BlockShard, is_self_match
from repro.sim.tokenize import word_tokens

Pair = Tuple[str, str]


@dataclass(frozen=True)
class IdBlock:
    """One rectangular (or triangular) unit of candidate pairs, as ids.

    ``triangle=False`` means the cross product ``domain_ids x
    range_ids`` oriented as (domain id, range id).  ``triangle=True``
    means the self-matching pairs of ``domain_ids`` alone: every
    ``(domain_ids[i], domain_ids[j])`` with ``i < j`` by list position
    (``range_ids`` is ignored).
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


def id_blocks(shard: BlockShard) -> Iterator[IdBlock]:
    """``shard.batch()``'s blocks, its rows read as ``shard.sources``'
    ids."""
    batch = shard.batch()
    ids_a, ids_b = (source.ids() for source in shard.sources)
    for start_a, count_a, start_b, count_b, triangle in batch.blocks.tolist():
        yield IdBlock(
            [ids_a[row] for row in batch.rows_a[start_a:start_a + count_a]],
            [ids_b[row] for row in batch.rows_b[start_b:start_b + count_b]],
            bool(triangle))


def block_rows(block: IdBlock, domain_index: Dict[str, int],
               range_index: Dict[str, int]):
    """Row arrays of a block's id lists (ids unknown to the sources
    are dropped); a triangle's second array is ``None``."""
    rows_d = [row for row in map(domain_index.get, block.domain_ids)
              if row is not None]
    if block.triangle:
        return np.asarray(rows_d, dtype=np.int32), None
    rows_r = [row for row in map(range_index.get, block.range_ids)
              if row is not None]
    return (np.asarray(rows_d, dtype=np.int32),
            np.asarray(rows_r, dtype=np.int32))


def expand_blocks(blocks: Iterable[IdBlock], domain_index: Dict[str, int],
                  range_index: Dict[str, int],
                  rows_per_call: int = 1 << 20):
    """Yield ``(rows_a, rows_b)`` array slices of at most
    ``rows_per_call`` rows, block after block."""
    for block in blocks:
        rows_d, rows_r = block_rows(block, domain_index, range_index)
        if rows_r is None:  # triangle: pairs (i, j) with j > i
            k = len(rows_d)
            i = 0
            while i < k - 1:
                j = i
                budget = 0
                while j < k - 1 and budget + (k - 1 - j) <= rows_per_call:
                    budget += k - 1 - j
                    j += 1
                if j == i:  # single row exceeds the budget: take it
                    j = i + 1
                counts = np.arange(k - 1 - i, k - 1 - j, -1)
                rows_a = np.repeat(rows_d[i:j], counts)
                rows_b = np.concatenate(
                    [rows_d[m + 1:] for m in range(i, j)])
                yield rows_a, rows_b
                i = j
        else:
            width = len(rows_r)
            if width == 0 or len(rows_d) == 0:
                continue
            step = max(1, rows_per_call // width)
            for start in range(0, len(rows_d), step):
                left = rows_d[start:start + step]
                yield np.repeat(left, width), np.tile(rows_r, len(left))


def expanded(blocks: Iterable[IdBlock], domain_index: Dict[str, int],
             range_index: Dict[str, int]) -> Tuple[list, list]:
    """:func:`expand_blocks`, concatenated, as two lists."""
    pieces = list(expand_blocks(blocks, domain_index, range_index))
    return tuple(
        np.concatenate([piece[side] for piece in pieces]).tolist()
        if pieces else [] for side in (0, 1))


def pair_rows(pairs: Iterable[Pair], domain_index: Dict[str, int],
              range_index: Dict[str, int]) -> Tuple[list, list]:
    """What ``ShardRunner.convert`` makes of id pairs: a pair is a row
    pair where the domain knows its first id and the range its second.
    For :func:`block_pairs`, :func:`expanded` wherever a triangle's
    ids have the same rows on both sides; the definition where they do
    not (a self-match of two source objects of one name)."""
    rows = [(domain_index[id_a], range_index[id_b])
            for id_a, id_b in pairs
            if id_a in domain_index and id_b in range_index]
    return tuple(list(side) for side in zip(*rows)) if rows else ([], [])


def raw_pairs(block: IdBlock) -> Iterator[Pair]:
    """A block's id pairs in block order, repeats of other blocks
    included."""
    if block.triangle:
        ids = block.domain_ids
        return ((id_a, id_b) for i, id_a in enumerate(ids)
                for id_b in ids[i + 1:])
    return ((id_a, id_b) for id_a in block.domain_ids
            for id_b in block.range_ids)


def _key(pair: Pair, unordered: bool) -> Pair:
    return tuple(sorted(pair)) if unordered else pair


def block_pairs(blocks: Iterable[IdBlock], *, dedup: bool = False,
                canonical: bool = False) -> Iterator[Pair]:
    """The id pairs of ``blocks`` in order, ``dedup``: the first-seen
    copy of each only, ``canonical``: as ``(min id, max id)``."""
    emitted: Optional[Set[Pair]] = set() if dedup else None
    for block in blocks:
        for id_a, id_b in raw_pairs(block):
            pair = (id_b, id_a) if canonical and id_b < id_a \
                else (id_a, id_b)
            if emitted is not None:
                if pair in emitted:
                    continue
                emitted.add(pair)
            yield pair


def first_blocks(blocks: Iterable[IdBlock], *,
                 unordered: bool) -> Dict[Pair, int]:
    """Per pair, the first of ``blocks`` that holds it (``unordered``:
    either way round) — where a first-seen walk meets it."""
    first: Dict[Pair, int] = {}
    for index, block in enumerate(blocks):
        for pair in raw_pairs(block):
            first.setdefault(_key(pair, unordered), index)
    return first


def origins(shard: BlockShard, whole: BlockShard) -> List[Optional[int]]:
    """Per block of ``shard`` — cut from ``whole``'s blocks: a run of
    them, pieces of one — the block of ``whole`` it came from: the one
    whose a-side span holds its first a-side row."""
    spans = [(start, start + count)
             for start, count, *_ in whole.batch().blocks.tolist()]
    return [next((index for index, (lo, hi) in enumerate(spans)
                  if lo <= start < hi), None)
            for start, *_ in shard.batch().blocks.tolist()]


def first_seen(blocks: Iterable[IdBlock], came_from: Iterable[Optional[int]],
               first: Dict[Pair, int], *, unordered: bool) -> Iterator[Pair]:
    """The raw pairs of ``blocks`` whose copy here is the first-seen
    one: each block came from the whole batch's block ``came_from``,
    and ``first`` (:func:`first_blocks` of the whole batch) says where
    a pair is first seen."""
    for block, origin in zip(blocks, came_from):
        for pair in raw_pairs(block):
            if first[_key(pair, unordered)] == origin:
                yield pair


def token_postings(source, attribute: str,
                   min_length: int) -> Dict[str, List[str]]:
    """Token -> ids posting lists of one attribute, in source order."""
    index: Dict[str, List[str]] = {}
    for instance in source:
        value = instance.get(attribute)
        if value is None:
            continue
        for token in sorted(set(word_tokens(str(value)))):
            if len(token) >= min_length:
                index.setdefault(token, []).append(instance.id)
    return index


def eligible_postings(blocking, domain, range_, domain_attribute: str,
                      range_attribute: str) -> List[IdBlock]:
    """``TokenBlocking``'s surviving posting-list blocks, in domain
    token order, filtered one token at a time."""
    domain_index = token_postings(domain, domain_attribute,
                                  blocking.min_token_length)
    is_self = is_self_match(domain, range_)
    range_index = domain_index if is_self else token_postings(
        range_, range_attribute, blocking.min_token_length)
    population = len(domain) + (0 if is_self else len(range_))
    df_cutoff = max(2, int(blocking.max_df * max(population, 1)))
    eligible: List[IdBlock] = []
    for token, domain_ids in domain_index.items():
        range_ids = range_index.get(token)
        if not range_ids:
            continue
        df = len(domain_ids) if is_self else \
            len(domain_ids) + len(range_ids)
        if df > df_cutoff:
            continue
        if len(domain_ids) > blocking.max_block_size or \
                len(range_ids) > blocking.max_block_size:
            continue
        if is_self:
            eligible.append(IdBlock(domain_ids, domain_ids, triangle=True))
        else:
            eligible.append(IdBlock(domain_ids, range_ids))
    return eligible


def dominant_key(value: object) -> Optional[str]:
    """A ``KeyBlocking`` key under which one block dominates: every
    title of even length shares one key, the rest key on their first
    word — the one-stop-word-key skew."""
    if value is None:
        return None
    text = str(value)
    if len(text) % 2 == 0:
        return "dominant"
    words = text.lower().split()
    return words[0] if words else None
