"""Token blocking: candidates share at least one informative token.

The workhorse for title-based publication matching: two titles that
share no token cannot reach a useful trigram/TF-IDF similarity, so the
pairs we skip are overwhelmingly true negatives.  Frequent tokens
("the", "data", ...) are suppressed via a document-frequency cutoff to
keep blocks small.
"""

from __future__ import annotations

from typing import List

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

        def build() -> Postings:
            tokens: List[str] = []
            rows: List[int] = []
            for row, instance in enumerate(source):
                value = instance.get(attribute)
                if value is not None:
                    # sorted: token codes — the order of every block
                    # list — must not follow the string hash seed
                    found = [token for token
                             in sorted(set(word_tokens(str(value))))
                             if len(token) >= min_length]
                    tokens += found
                    rows += [row] * len(found)
            return Postings.of(tokens, rows)

        return source.derived(("token-postings", attribute, min_length),
                              build)

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
