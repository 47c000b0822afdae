"""Token blocking: candidates share at least one informative token.

The workhorse for title-based publication matching: two titles that
share no token cannot reach a useful trigram/TF-IDF similarity, so the
pairs we skip are overwhelmingly true negatives.  Frequent tokens
("the", "data", ...) are suppressed via a document-frequency cutoff to
keep blocks small.
"""

from __future__ import annotations

from typing import Dict, List

from repro.blocking.pair_generator import (
    IdBlock,
    PairGenerator,
    PairShard,
    block_shards,
    is_self_match,
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

    def _index(self, source: LogicalSource,
               attribute: str) -> Dict[str, List[str]]:
        """Token -> ids posting lists of one attribute, in source order.

        Owned by the source (:meth:`LogicalSource.derived`): every
        matcher of a workflow that blocks the same attribute reads the
        same lists, so they are never mutated.  ``max_df`` and
        ``max_block_size`` filter per request, downstream.
        """
        min_length = self.min_token_length

        def build() -> Dict[str, List[str]]:
            index: Dict[str, List[str]] = {}
            for instance in source:
                value = instance.get(attribute)
                if value is None:
                    continue
                # sorted: the posting-list dict's insertion order (and
                # so every downstream iteration of it) must not depend
                # on the process's string hash seed
                for token in sorted(set(word_tokens(str(value)))):
                    if len(token) >= min_length:
                        index.setdefault(token, []).append(instance.id)
            return index

        return source.derived(("token-postings", attribute, min_length),
                              build)

    def _eligible_postings(self, domain: LogicalSource,
                           range: LogicalSource,
                           domain_attribute: str,
                           range_attribute: str) -> List[IdBlock]:
        """Surviving posting-list blocks, in domain token order.

        The document frequency of a token is the number of values it
        occurs in: the shared posting list counted once for
        self-matching, the two posting lists summed for two-source
        matching.  Comparing that df against ``max_df *
        population`` gives the same effective cutoff in both modes
        (the earlier ``> 2 * cutoff`` formulation double-counted the
        shared list, silently doubling the two-source cutoff).
        """
        domain_index = self._index(domain, domain_attribute)
        is_self = is_self_match(domain, range)
        range_index = (
            domain_index if is_self else self._index(range, range_attribute)
        )
        population = len(domain) + (0 if is_self else len(range))
        df_cutoff = max(2, int(self.max_df * max(population, 1)))

        eligible: List[IdBlock] = []
        for token, domain_ids in domain_index.items():
            range_ids = range_index.get(token)
            if not range_ids:
                continue
            df = len(domain_ids) if is_self else \
                len(domain_ids) + len(range_ids)
            if df > df_cutoff:
                continue
            if len(domain_ids) > self.max_block_size or \
                    len(range_ids) > self.max_block_size:
                continue
            if is_self:
                eligible.append(IdBlock(domain_ids, domain_ids, triangle=True))
            else:
                eligible.append(IdBlock(domain_ids, range_ids))
        return eligible

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Posting-list ranges: each shard owns a run of token blocks.

        A pair sharing several tokens may surface in more than one
        shard (its tokens can land in different ranges); shards
        deduplicate locally — one shard spanning every block, the
        serial stream, globally — and downstream consumers resolve
        cross-shard duplicates idempotently.  Self-matching pairs are
        canonical ``(min, max)``.
        """
        return block_shards(
            self._eligible_postings(domain, range,
                                    domain_attribute, range_attribute),
            n_shards, dedup=True, canonical=is_self_match(domain, range))
