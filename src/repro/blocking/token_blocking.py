"""Token blocking: candidates share at least one informative token.

The workhorse for title-based publication matching: two titles that
share no token cannot reach a useful trigram/TF-IDF similarity, so the
pairs we skip are overwhelmingly true negatives.  Frequent tokens
("the", "data", ...) are suppressed via a document-frequency cutoff to
keep blocks small.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import is_not
from typing import List, Sequence

import numpy as np

from repro.blocking.pair_generator import (
    BlockBatch,
    PairGenerator,
    PairShard,
    Postings,
    block_shards,
    is_self_match,
    join_postings,
    keep_first,
    stable_order,
)
from repro.model.source import LogicalSource
from repro.sim.tokenize import token_tuple


def token_postings(values: Sequence[object], min_length: int) -> Postings:
    """The rows of every word token of ``values`` at least
    ``min_length`` long; ``None`` holds none.

    A row's tokens are its distinct ones in code-point order — token
    codes, the order of every block list, must not follow the string
    hash seed — and codes count the tokens in that row-major order of
    first occurrence.  One pass over the memoized token lists
    (:func:`~repro.sim.tokenize.token_tuple`) flattens them and ranks
    each token in the sorted vocabulary; one sort of ``(row, rank)``
    keys then drops repeats and orders each row.
    """
    present = np.fromiter(map(is_not, values, repeat(None)),
                          dtype=np.bool_, count=len(values))
    found = list(map(token_tuple,
                     map(str, compress(values, present.tolist()))))
    flat = list(chain.from_iterable(found))
    vocabulary = sorted(token for token in set(flat)
                        if len(token) >= min_length)
    rank = dict(zip(vocabulary, range(len(vocabulary))))
    tokens = np.fromiter(map(rank.get, flat, repeat(-1)), dtype=np.int64,
                         count=len(flat))
    rows = np.repeat(np.flatnonzero(present), np.fromiter(
        map(len, found), dtype=np.int64, count=len(found)))
    kept = tokens >= 0
    width = max(len(vocabulary), 1)
    entries = np.sort(rows.compress(kept) * width + tokens.compress(kept))
    rows, tokens = np.divmod(
        entries.compress(np.diff(entries, prepend=-1) != 0), width)
    # the codes: ranks in order of first occurrence — where each
    # rank's run of a stable sort opens
    order = stable_order(tokens)
    grouped = tokens.take(order)
    seen = tokens.take(np.sort(order.compress(
        np.diff(grouped, prepend=-1) != 0)))
    code = np.empty(len(vocabulary), dtype=np.int64)
    code[seen] = np.arange(len(seen))
    return Postings.grouped(
        dict(zip(map(vocabulary.__getitem__, seen.tolist()),
                 range(len(seen)))),
        code.take(tokens), rows)


class TokenBlocking(PairGenerator):
    """Inverted-index blocking over normalized word tokens.

    Parameters
    ----------
    min_token_length:
        Tokens shorter than this are ignored (defaults to 3; one- and
        two-letter tokens are essentially noise for titles).
    max_df:
        Tokens occurring in more than ``max_df`` *fraction* of the
        domain+range values are treated as stop words.  The fraction
        is evaluated against the combined population in both matching
        modes: a token in 40% of all values is suppressed at
        ``max_df=0.3`` whether the run matches one source against
        itself or two sources against each other.
    max_block_size:
        Hard per-token cap; overlong posting lists are dropped
        entirely (the pair will be generated by a rarer shared token
        if the strings genuinely overlap).
    """

    def __init__(self, *, min_token_length: int = 3, max_df: float = 0.1,
                 max_block_size: int = 1000) -> None:
        if min_token_length < 1:
            raise ValueError("min_token_length must be >= 1")
        if not 0.0 < max_df <= 1.0:
            raise ValueError("max_df must be in (0, 1]")
        if max_block_size < 1:
            raise ValueError("max_block_size must be >= 1")
        self.min_token_length = min_token_length
        self.max_df = max_df
        self.max_block_size = max_block_size

    def _index(self, source: LogicalSource, attribute: str) -> Postings:
        """The rows of every token of one attribute.

        Owned by the source (:meth:`LogicalSource.derived`): every
        matcher that blocks the same attribute reads the same arrays,
        so they are never mutated; ``max_df`` and ``max_block_size``
        filter in the join, downstream.
        """
        min_length = self.min_token_length
        return source.derived(
            ("token-postings", attribute, min_length),
            lambda: token_postings(source.attribute_column(attribute),
                                   min_length))

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Posting-list ranges: each shard owns a run of token blocks,
        the surviving ones in domain token order.

        The document frequency of a token is the number of values it
        occurs in: the shared posting list counted once for
        self-matching, the two posting lists summed for two-source
        matching.  Comparing that df against ``max_df * population``
        gives the same effective cutoff in both modes.

        A pair sharing several tokens is in several blocks and comes
        from the first of them only (:func:`keep_first`), whichever
        shard that went to.  The blocks and that choice are kept by
        the sources (:meth:`LogicalSource.derived`): every later
        request on the same sources, attributes and parameters finds
        them built.  Self-matching pairs are canonical ``(min, max)``.
        """
        is_self = is_self_match(domain, range)
        population = len(domain) + (0 if is_self else len(range))
        df_cutoff = max(2, int(self.max_df * max(population, 1)))
        cap = self.max_block_size

        def build() -> BlockBatch:
            return keep_first(join_postings(
                self._index(domain, domain_attribute),
                None if is_self else self._index(range, range_attribute),
                lambda a, b: ((a if is_self else a + b) <= df_cutoff)
                & (a <= cap) & (b <= cap)))

        blocks = domain.derived(
            ("token-blocks", domain_attribute,
             None if is_self else range_attribute,
             self.min_token_length, df_cutoff, cap),
            build, partner=None if is_self else range)
        return block_shards(blocks, domain, range, n_shards,
                            canonical=is_self)
