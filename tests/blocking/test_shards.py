"""Tests for the sharded candidate-generation protocol.

The load-bearing contract: for every blocking strategy, the union of
``shards()``'s pair streams equals the distinct ``candidates()`` set
on the same inputs — for any shard count, in both matching modes.
That set-level equality (plus deterministic scoring and idempotent
merging) is what makes sharded parallel execution byte-identical to
serial execution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_blocks import dominant_key

from repro.blocking import (
    BlockShard,
    FullCross,
    KeyBlocking,
    PairGenerator,
    TokenBlocking,
    partition_spans,
)
from repro.blocking.pair_generator import BlockBatch
from repro.model.source import LogicalSource, ObjectType, PhysicalSource

STRATEGIES = [
    FullCross(),
    KeyBlocking(),
    KeyBlocking(max_block_size=3),
    TokenBlocking(max_df=1.0),
    TokenBlocking(max_df=0.4),
    TokenBlocking(max_df=0.5),  # overlapping blocks
    KeyBlocking(key=dominant_key),  # one dominant block
]

IDS = [
    "FullCross", "KeyBlocking", "KeyBlocking-capped", "TokenBlocking",
    "TokenBlocking-df", "TokenBlocking-overlap", "KeyBlocking-dominant",
]


def _source(name: str, titles, ids=None) -> LogicalSource:
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for index, title in enumerate(titles):
        source.add_record(f"{name.lower()}{index}" if ids is None
                          else ids[index], title=title)
    return source


def _rectangle(ids_a, ids_b, **flags) -> BlockShard:
    """One ``ids_a x ids_b`` block over sources of exactly these ids."""
    sources = [_source(name, ids, ids) for name, ids
               in (("L", ids_a), ("R", ids_b))]
    rows_a, rows_b = (np.arange(len(source), dtype=np.int32)
                      for source in sources)
    return BlockShard(BlockBatch(rows_a, rows_b, np.array(
        [(0, len(ids_a), 0, len(ids_b), 0)], dtype=np.int64)),
        sources, **flags)


@pytest.fixture(scope="module")
def sources():
    titles = [
        "adaptive query processing for streams",
        "adaptive query optimization",
        "schema matching with cupid",
        "schema matching survey",
        "data cleaning in warehouses",
        "streaming joins over windows",
        "top retrieval for the web",
        "web data extraction",
        None,
        "query answering using views",
        "views and query rewriting",
    ]
    return _source("L", titles), _source("R", list(reversed(titles)))


def _candidate_set(blocking, domain, range_):
    return set(blocking.candidates(domain, range_,
                                   domain_attribute="title",
                                   range_attribute="title"))


def _shard_union(blocking, domain, range_, n_shards):
    shards = blocking.shards(domain, range_, n_shards=n_shards,
                             domain_attribute="title",
                             range_attribute="title")
    assert len(shards) <= max(1, n_shards)
    union = set()
    for shard in shards:
        union |= set(shard.pairs())
    return union


class TestShardUnionEqualsCandidates:
    @pytest.mark.parametrize("blocking", STRATEGIES, ids=IDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 5, 64])
    def test_two_source(self, sources, blocking, n_shards):
        domain, range_ = sources
        assert _shard_union(blocking, domain, range_, n_shards) == \
            _candidate_set(blocking, domain, range_)

    @pytest.mark.parametrize("blocking", STRATEGIES, ids=IDS)
    @pytest.mark.parametrize("n_shards", [1, 3, 64])
    def test_self_matching(self, sources, blocking, n_shards):
        domain, _ = sources
        assert _shard_union(blocking, domain, domain, n_shards) == \
            _candidate_set(blocking, domain, domain)

    @pytest.mark.parametrize("blocking", STRATEGIES, ids=IDS)
    def test_empty_sources(self, blocking):
        domain = _source("L", [])
        range_ = _source("R", [])
        assert _shard_union(blocking, domain, range_, 4) == set()

    @settings(max_examples=20, deadline=None)
    @given(titles=st.lists(st.text(alphabet="abcd ", min_size=0,
                                   max_size=10),
                           min_size=0, max_size=10),
           n_shards=st.integers(min_value=1, max_value=12))
    def test_property_over_random_titles(self, titles, n_shards):
        domain = _source("L", titles)
        range_ = _source("R", titles[::-1])
        for blocking in STRATEGIES:
            assert _shard_union(blocking, domain, range_, n_shards) == \
                _candidate_set(blocking, domain, range_), type(blocking)


class TestShardBlocks:
    """A block shard's blocks, read as ids, agree with its pair stream:
    the shards' pairs are their blocks' pairs, each pair in one shard
    (a pair several blocks hold comes from the first of them)."""

    @pytest.mark.parametrize("blocking", STRATEGIES, ids=IDS)
    @pytest.mark.parametrize("self_match", [False, True])
    def test_blocks_cover_pairs(self, sources, blocking, self_match):
        domain, range_ = sources
        range_ = domain if self_match else range_
        shards = blocking.shards(domain, range_, n_shards=3,
                                 domain_attribute="title",
                                 range_attribute="title")
        covered, emitted = set(), []
        for shard in shards:
            if not isinstance(shard, BlockShard):
                continue
            batch = shard.batch()
            ids_a, ids_b = (source.ids() for source in shard.sources)
            expanded = set()
            for start_a, count_a, start_b, count_b, triangle \
                    in batch.blocks.tolist():
                side_a = [ids_a[row] for row
                          in batch.rows_a[start_a:start_a + count_a]]
                side_b = [ids_b[row] for row
                          in batch.rows_b[start_b:start_b + count_b]]
                if triangle:
                    for i, id_a in enumerate(side_a):
                        for id_b in side_b[i + 1:]:
                            expanded.add(tuple(sorted((id_a, id_b))))
                else:
                    expanded.update((a, b) for a in side_a for b in side_b)
            pairs = [tuple(sorted(pair)) if self_match else pair
                     for pair in shard.pairs()]
            assert set(pairs) <= {tuple(sorted(pair)) if self_match
                                  else pair for pair in expanded}
            covered |= expanded
            emitted += pairs
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == {tuple(sorted(pair)) if self_match else pair
                                for pair in covered}

    def test_block_pair_counts(self):
        assert BlockBatch(None, None, np.array(
            [(0, 2, 0, 3, 0), (0, 3, 0, 3, 1)])).costs().tolist() == [6, 3]


class TestShardCosts:
    """Shards expose raw pair-count estimates, which size the
    engine's score tables."""

    @pytest.mark.parametrize("blocking", STRATEGIES, ids=IDS)
    @pytest.mark.parametrize("self_match", [False, True])
    def test_known_costs_bound_distinct_pairs(self, sources, blocking,
                                              self_match):
        """Costs are raw (pre-dedup) counts, so the sum over shards is
        an upper bound on the distinct candidate count."""
        domain, range_ = sources
        range_ = domain if self_match else range_
        shards = blocking.shards(domain, range_, n_shards=4,
                                 domain_attribute="title",
                                 range_attribute="title")
        costs = [shard.cost() for shard in shards]
        if not shards:
            return
        assert all(cost is not None and cost >= 0 for cost in costs)
        distinct = len(_candidate_set(blocking, domain, range_))
        assert sum(costs) >= distinct

    def test_block_shard_cost_is_exact(self):
        domain, range_ = _source("L", ["t"] * 5), _source("R", ["t"] * 6)
        shard = BlockShard(BlockBatch(
            np.arange(5, dtype=np.int32), np.arange(6, dtype=np.int32),
            np.array([(0, 2, 0, 3, 0), (2, 3, 3, 3, 1)], dtype=np.int64)),
            (domain, range_))
        assert shard.cost() == 6 + 3

    def test_iterable_shard_cost_defaults_to_unknown(self):
        from repro.blocking.pair_generator import IterableShard

        assert IterableShard(lambda: [("a", "b")]).cost() is None
        assert IterableShard(lambda: [("a", "b")], cost=7).cost() == 7

    def test_base_protocol_default_is_unknown(self, sources):
        class Custom(PairGenerator):
            def candidates(self, domain, range, *, domain_attribute,
                           range_attribute):
                yield ("x", "y")

        domain, range_ = sources
        shards = Custom().shards(domain, range_, n_shards=2,
                                 domain_attribute="title",
                                 range_attribute="title")
        assert shards[0].cost() is None


class TestCanonicalRectBlocks:
    """A canonical shard keeps the (min id, max id) orientation on a
    rectangle too, not only on a triangle."""

    def test_rect_pairs_canonicalized(self):
        shard = _rectangle(["s2"], ["s10", "s3"], canonical=True)
        assert list(shard.pairs()) == [("s10", "s2"), ("s2", "s3")]

    def test_rect_pairs_keep_block_order_without_flag(self):
        shard = _rectangle(["s2"], ["s10", "s3"])
        assert list(shard.pairs()) == [("s2", "s10"), ("s2", "s3")]


class TestShardValidation:
    @pytest.mark.parametrize("blocking", STRATEGIES, ids=IDS)
    def test_rejects_non_positive_shard_count(self, sources, blocking):
        domain, range_ = sources
        with pytest.raises(ValueError):
            blocking.shards(domain, range_, n_shards=0,
                            domain_attribute="title",
                            range_attribute="title")

    def test_base_class_default_is_one_delegating_shard(self, sources):
        class Custom(PairGenerator):
            def candidates(self, domain, range, *, domain_attribute,
                           range_attribute):
                yield ("x", "y")
                yield ("x", "z")

        domain, range_ = sources
        shards = Custom().shards(domain, range_, n_shards=8,
                                 domain_attribute="title",
                                 range_attribute="title")
        assert len(shards) == 1
        assert set(shards[0].pairs()) == {("x", "y"), ("x", "z")}


class TestCandidatesIsTheOneShardStream:
    """``shards()`` is a strategy's only pair-set definition;
    ``candidates()`` is its one-shard partition read out."""

    BUILT_INS = [FullCross(), KeyBlocking(), TokenBlocking(max_df=1.0),
                 TokenBlocking(max_df=0.5), KeyBlocking(key=dominant_key)]

    @pytest.mark.parametrize("self_matching", [False, True],
                             ids=["two-source", "self"])
    @pytest.mark.parametrize("blocking", BUILT_INS, ids=[
        "FullCross", "KeyBlocking", "TokenBlocking", "TokenBlocking-overlap",
        "KeyBlocking-dominant"])
    def test_same_pairs_in_the_same_order(self, sources, blocking,
                                          self_matching):
        domain, range_ = sources
        if self_matching:
            range_ = domain
        attributes = dict(domain_attribute="title", range_attribute="title")
        stream = list(blocking.candidates(domain, range_, **attributes))
        assert stream == [
            pair
            for shard in blocking.shards(domain, range_, n_shards=1,
                                         **attributes)
            for pair in shard.pairs()]
        assert len(stream) >= 2
        assert "candidates" not in vars(type(blocking))

    def test_a_strategy_defining_neither_fails_clearly(self, sources):
        class Neither(PairGenerator):
            pass

        domain, range_ = sources
        attributes = dict(domain_attribute="title", range_attribute="title")
        with pytest.raises(TypeError, match="Neither defines neither"):
            list(Neither().candidates(domain, range_, **attributes))
        # the delegating default shard reaches the same error
        shard, = Neither().shards(domain, range_, n_shards=1, **attributes)
        with pytest.raises(TypeError, match="must override one"):
            list(shard.pairs())
        with pytest.raises(TypeError, match="must override one"):
            Neither().count(domain, range_, **attributes)


class TestPartitionSpans:
    def test_balances_uniform_costs(self):
        assert partition_spans([1] * 16, 4) == \
            [(0, 4), (4, 8), (8, 12), (12, 16)]

    def test_contiguous_and_complete(self):
        costs = [5, 1, 1, 1, 9, 1, 2, 7]
        spans = partition_spans(costs, 3)
        assert spans[0][0] == 0 and spans[-1][1] == len(costs)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start

    def test_never_exceeds_requested_count(self):
        assert len(partition_spans([1] * 100, 7)) <= 7
        assert len(partition_spans([100] + [1] * 5, 4)) <= 4

    def test_fewer_items_than_shards(self):
        assert partition_spans([3, 3], 10) == [(0, 1), (1, 2)]

    def test_empty_and_zero_costs(self):
        assert partition_spans([], 4) == []
        assert partition_spans([0, 0, 0, 0], 2) == [(0, 2), (2, 4)]

    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ValueError):
            partition_spans([1, 2], 0)
