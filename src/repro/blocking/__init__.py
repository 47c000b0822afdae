"""Candidate generation (blocking) for paper-scale attribute matching.

MOMA's evaluation matches ~2.6k x 2.3k publications; a naive cross
product is quadratic and, in pure Python, dominates run time.  Blocking
strategies produce a reduced candidate pair set that the attribute
matchers score.  All strategies implement the same protocol:

``shards(domain, range, *, n_shards, domain_attribute, range_attribute)``
is the strategy's pair set, as independent units of ``(domain id,
range id)`` pairs a worker pool can generate and score apart;
``candidates(domain, range, *, domain_attribute, range_attribute)``
yields the same pairs as one stream — the one-shard partition read
out, which no built-in strategy defines a second time.

Quality is quantified with :func:`pair_completeness` (fraction of gold
pairs surviving blocking) and :func:`reduction_ratio` (fraction of the
cross product avoided) — the standard blocking metrics.
"""

from repro.blocking.canopy import CanopyBlocking
from repro.blocking.pair_generator import (
    BlockShard,
    FullCross,
    IdBlock,
    IterableShard,
    PairGenerator,
    PairShard,
    block_shards,
    dedup_self_pairs,
    is_self_match,
    pair_completeness,
    partition_spans,
    reduction_ratio,
    unique_pairs,
)
from repro.blocking.sorted_neighborhood import SortedNeighborhood
from repro.blocking.standard import KeyBlocking
from repro.blocking.token_blocking import TokenBlocking

__all__ = [
    "BlockShard",
    "CanopyBlocking",
    "FullCross",
    "IdBlock",
    "IterableShard",
    "KeyBlocking",
    "PairGenerator",
    "PairShard",
    "SortedNeighborhood",
    "TokenBlocking",
    "block_shards",
    "dedup_self_pairs",
    "is_self_match",
    "pair_completeness",
    "partition_spans",
    "reduction_ratio",
    "unique_pairs",
]
