"""Canopy clustering blocking (McCallum/Nigam/Ungar style).

A cheap token-Jaccard similarity partitions records into overlapping
canopies: a random seed collects every record within ``loose``
similarity; records within ``tight`` similarity stop being future
*seeds* but remain assignable to later canopies (that overlap is the
point of canopies — a record tightly bound to one seed can still be
loosely similar to another, and dropping it there would silently lose
cross-canopy true matches).  Pairs sharing a canopy are candidates.
Deterministic given the seed.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.blocking.pair_generator import (
    BlockBatch,
    PairGenerator,
    PairShard,
    Postings,
    block_shards,
    is_self_match,
    join_postings,
    keep_first,
)
from repro.model.source import LogicalSource
from repro.sim.tokenize import word_tokens

#: (row in its source, side, tokens)
Record = Tuple[int, int, frozenset]


class CanopyBlocking(PairGenerator):
    """Overlapping canopies under cheap token-set similarity."""

    def __init__(self, *, loose: float = 0.2, tight: float = 0.6,
                 seed: int = 0) -> None:
        if not 0.0 < loose <= tight <= 1.0:
            raise ValueError("need 0 < loose <= tight <= 1")
        self.loose = loose
        self.tight = tight
        self.seed = seed

    @staticmethod
    def _jaccard(tokens_a: frozenset, tokens_b: frozenset) -> float:
        if not tokens_a or not tokens_b:
            return 0.0
        overlap = len(tokens_a & tokens_b)
        if overlap == 0:
            return 0.0
        return overlap / (len(tokens_a) + len(tokens_b) - overlap)

    def _tokenized(self, source: LogicalSource, attribute: str,
                   side: int) -> List[Record]:
        records = []
        for row, instance in enumerate(source):
            value = instance.get(attribute)
            if value is None:
                continue
            tokens = frozenset(word_tokens(str(value)))
            if tokens:
                records.append((row, side, tokens))
        return records

    def _canopies(self, records: List[Record]) -> List[List[int]]:
        """Run the clustering pass; return canopies as index lists.

        ``remaining`` holds the candidate *seeds* only.  A record
        within ``tight`` of a seed is deleted from it — it can never
        start a canopy again and is never rescanned by the seed loop —
        but membership scans the full record list, so removed records
        keep joining every later canopy they are loosely similar to.
        """
        rng = random.Random(self.seed)
        order = list(range(len(records)))
        rng.shuffle(order)

        remaining = dict.fromkeys(order)
        canopies: List[List[int]] = []
        for seed_index in order:
            if seed_index not in remaining:
                continue
            seed_tokens = records[seed_index][2]
            canopy: List[int] = []
            for index, record in enumerate(records):
                similarity = self._jaccard(seed_tokens, record[2])
                if similarity >= self.loose:
                    canopy.append(index)
                    if similarity >= self.tight and index in remaining:
                        del remaining[index]
            canopies.append(canopy)
        return canopies

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Seed partitions: each shard expands a run of whole canopies.

        Canopy *formation* stays sequential (each seed's tight removals
        gate later seed choices), but it is a linear number of cheap
        Jaccard scans; the quadratic part — expanding every canopy
        into pairs — is what the shards distribute.  Canopies overlap:
        a pair comes from the first canopy holding it only
        (:func:`keep_first`), whichever shard that went to.  The
        canopies and that choice are kept by the sources
        (:meth:`LogicalSource.derived`) for every later request on the
        same sources, attributes and parameters.  Self-matching pairs
        are canonical ``(min, max)``.
        """
        is_self = is_self_match(domain, range)

        def build() -> BlockBatch:
            records = self._tokenized(domain, domain_attribute, 0)
            if not is_self:
                records += self._tokenized(range, range_attribute, 1)
            # a canopy's rows by side: a block where both sides have
            # some (self-matching: a triangle of two rows or more)
            numbers: Tuple[list, list] = ([], [])
            rows: Tuple[list, list] = ([], [])
            for number, canopy in enumerate(self._canopies(records)):
                for index in canopy:
                    row, side, _ = records[index]
                    numbers[side].append(number)
                    rows[side].append(row)
            return keep_first(join_postings(
                Postings.of(numbers[0], rows[0]),
                None if is_self else Postings.of(numbers[1], rows[1]),
                lambda a, b: a >= (2 if is_self else 1)))

        blocks = domain.derived(
            ("canopy-blocks", domain_attribute,
             None if is_self else range_attribute,
             self.loose, self.tight, self.seed),
            build, partner=None if is_self else range)
        return block_shards(blocks, domain, range, n_shards,
                            canonical=is_self)
