"""Standard (key-based) blocking: candidates share a blocking key."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.blocking.pair_generator import (
    PairGenerator,
    PairShard,
    Postings,
    block_shards,
    is_self_match,
    join_postings,
)
from repro.model.source import LogicalSource


def first_token_key(value: object) -> Optional[str]:
    """Default key function: the lowercase first word of the value."""
    if value is None:
        return None
    tokens = str(value).lower().split()
    return tokens[0] if tokens else None


class KeyBlocking(PairGenerator):
    """Group instances by a key derived from the blocking attribute.

    ``key`` maps an attribute value to a blocking key (``None`` places
    the instance in no block).  Instances with equal keys across the
    two sources become candidates.  ``max_block_size`` guards against
    stop-word-like keys exploding a block into a quadratic hot spot.
    """

    def __init__(self, key: Callable[[object], Optional[str]] = first_token_key,
                 *, max_block_size: Optional[int] = None) -> None:
        if max_block_size is not None and max_block_size < 1:
            raise ValueError("max_block_size must be >= 1")
        self.key = key
        self.max_block_size = max_block_size

    def _blocks(self, source: LogicalSource, attribute: str) -> Postings:
        keys = [self.key(instance.get(attribute)) for instance in source]
        rows = [row for row, key in enumerate(keys) if key is not None]
        return Postings.of([keys[row] for row in rows], rows)

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Key groups: each shard owns a contiguous run of key blocks,
        in domain key order.

        Keys present in only one source and blocks tripping the
        ``max_block_size`` guard are dropped.  Keys partition the
        instances, so blocks are pairwise disjoint and each candidate
        pair lives in exactly one shard — no dedup — and self-matching
        pairs keep block order (:class:`BlockShard`'s default).
        """
        cap = self.max_block_size
        blocks = join_postings(
            self._blocks(domain, domain_attribute),
            None if is_self_match(domain, range)
            else self._blocks(range, range_attribute),
            lambda a, b: cap is None or a * b <= cap * cap)
        return block_shards(blocks, domain, range, n_shards)
