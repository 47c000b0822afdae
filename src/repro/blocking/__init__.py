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

A strategy of one's own has two ways in.  Overriding ``candidates``
alone gives a pair stream, which the engine scores in converted
chunks.  For vectorized blocks, group each source's rows under keys
(``pair_generator.Postings.of``), join the two sides
(``pair_generator.join_postings``: one block per shared key) and
return :func:`block_shards` of that batch — :class:`BlockShard`\\ s,
which the engine expands as rows without reading an id.

Quality is quantified with :func:`pair_completeness` (fraction of gold
pairs surviving blocking) and :func:`reduction_ratio` (fraction of the
cross product avoided) — the standard blocking metrics.
"""

from repro.blocking.pair_generator import (
    BlockShard,
    FullCross,
    IterableShard,
    PairGenerator,
    PairShard,
    block_shards,
    dedup_self_pairs,
    is_self_match,
    pair_completeness,
    partition_spans,
    reduction_ratio,
)
from repro.blocking.standard import KeyBlocking
from repro.blocking.token_blocking import TokenBlocking

__all__ = [
    "BlockShard",
    "FullCross",
    "IterableShard",
    "KeyBlocking",
    "PairGenerator",
    "PairShard",
    "TokenBlocking",
    "block_shards",
    "dedup_self_pairs",
    "is_self_match",
    "pair_completeness",
    "partition_spans",
    "reduction_ratio",
]
