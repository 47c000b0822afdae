"""Standard (key-based) blocking: candidates share a blocking key."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.blocking.pair_generator import (
    IdBlock,
    PairGenerator,
    PairShard,
    block_shards,
    is_self_match,
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

    def _blocks(self, source: LogicalSource,
                attribute: str) -> Dict[str, List[str]]:
        blocks: Dict[str, List[str]] = {}
        for instance in source:
            key = self.key(instance.get(attribute))
            if key is not None:
                blocks.setdefault(key, []).append(instance.id)
        return blocks

    def _eligible_blocks(self, domain: LogicalSource, range: LogicalSource,
                         domain_attribute: str,
                         range_attribute: str) -> List[IdBlock]:
        """Surviving key blocks, in domain key iteration order.

        Keys present in only one source and blocks tripping the
        ``max_block_size`` guard are dropped here so the candidate
        stream and the sharded path share one filter.
        """
        domain_blocks = self._blocks(domain, domain_attribute)
        is_self = is_self_match(domain, range)
        range_blocks = (
            domain_blocks if is_self else self._blocks(range, range_attribute)
        )
        eligible: List[IdBlock] = []
        for key, domain_ids in domain_blocks.items():
            range_ids = range_blocks.get(key)
            if not range_ids:
                continue
            if (self.max_block_size is not None
                    and len(domain_ids) * len(range_ids) >
                    self.max_block_size * self.max_block_size):
                continue
            if is_self:
                eligible.append(IdBlock(domain_ids, domain_ids, triangle=True))
            else:
                eligible.append(IdBlock(domain_ids, range_ids))
        return eligible

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Key groups: each shard owns a contiguous run of key blocks.

        Keys partition the instances, so blocks are pairwise disjoint
        and each candidate pair lives in exactly one shard — no dedup —
        and self-matching pairs keep block-list orientation
        (:class:`BlockShard`'s default).
        """
        return block_shards(
            self._eligible_blocks(domain, range,
                                  domain_attribute, range_attribute),
            n_shards)
