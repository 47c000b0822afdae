"""Tests for all blocking strategies and the blocking metrics."""

import pytest

from repro.blocking import (
    FullCross,
    KeyBlocking,
    TokenBlocking,
    pair_completeness,
    reduction_ratio,
)
from repro.core.mapping import Mapping
from repro.model.source import LogicalSource, ObjectType, PhysicalSource


@pytest.fixture
def sources():
    domain = LogicalSource(PhysicalSource("L"), ObjectType("Publication"))
    range_ = LogicalSource(PhysicalSource("R"), ObjectType("Publication"))
    titles = [
        "Adaptive Query Processing for Streams",
        "Schema Matching with Cupid",
        "Data Cleaning in Warehouses",
        "Streaming Joins over Windows",
        "Top-k Retrieval",
    ]
    for index, title in enumerate(titles):
        domain.add_record(f"a{index}", title=title)
        range_.add_record(f"b{index}", title=title)
    return domain, range_


@pytest.fixture
def gold(sources):
    domain, range_ = sources
    return Mapping.from_correspondences(
        domain.name, range_.name,
        [(f"a{i}", f"b{i}", 1.0) for i in range(5)])


def collect(blocking, domain, range_):
    return set(blocking.candidates(domain, range_,
                                   domain_attribute="title",
                                   range_attribute="title"))


class TestFullCross:
    def test_cross_product_size(self, sources):
        domain, range_ = sources
        assert len(collect(FullCross(), domain, range_)) == 25

    def test_self_match_unordered(self, sources):
        domain, _ = sources
        pairs = collect(FullCross(), domain, domain)
        assert len(pairs) == 10  # 5 choose 2
        assert all(a != b for a, b in pairs)


class TestTokenBlocking:
    def test_full_completeness_on_identical_titles(self, sources, gold):
        domain, range_ = sources
        pairs = collect(TokenBlocking(max_df=1.0), domain, range_)
        assert pair_completeness(pairs, gold) == 1.0

    def test_reduces_pairs(self, sources):
        domain, range_ = sources
        pairs = collect(TokenBlocking(max_df=1.0), domain, range_)
        assert len(pairs) < 25

    def test_stopword_suppression(self):
        domain = LogicalSource(PhysicalSource("L"), ObjectType("P"))
        range_ = LogicalSource(PhysicalSource("R"), ObjectType("P"))
        for index in range(20):
            domain.add_record(f"a{index}", title=f"the common word {index}xx")
            range_.add_record(f"b{index}", title=f"the common word {index}xx")
        pairs = collect(TokenBlocking(max_df=0.2), domain, range_)
        # "common"/"word" exceed the df cutoff; only the rare {i}xx
        # tokens block, giving the 20 true pairs only
        assert len(pairs) == 20

    def test_self_matching_dedups(self, sources):
        domain, _ = sources
        pairs = collect(TokenBlocking(max_df=1.0), domain, domain)
        assert all(a < b for a, b in pairs)

    def test_df_cutoff_consistent_across_matching_modes(self):
        """Regression: the cutoff test double-counted the shared posting
        list on self-matching runs, so the same ``max_df`` meant a 2x
        looser effective cutoff for two-source matching.  A token in
        40% of all values must be suppressed at ``max_df=0.3`` in both
        modes."""
        # two-source: "shared" occurs in 4 of 10 values (40% > 30%)
        domain = LogicalSource(PhysicalSource("L"), ObjectType("P"))
        range_ = LogicalSource(PhysicalSource("R"), ObjectType("P"))
        for index in range(2):
            domain.add_record(f"a{index}", title=f"shared common{index}x")
            range_.add_record(f"b{index}", title=f"shared common{index}x")
        for index in range(2, 5):
            domain.add_record(f"a{index}", title=f"filler{index}y")
            range_.add_record(f"b{index}", title=f"filler{index}y")
        pairs = collect(TokenBlocking(max_df=0.3), domain, range_)
        # "shared" is a stop word; only the aligned rare tokens block
        assert pairs == {(f"a{i}", f"b{i}") for i in range(5)}

        # self-matching: "shared" occurs in 4 of 10 values as well
        source = LogicalSource(PhysicalSource("S"), ObjectType("P"))
        for index in range(4):
            source.add_record(f"s{index}", title=f"shared only{index}z")
        for index in range(4, 10):
            source.add_record(f"s{index}", title=f"lone{index}q")
        assert collect(TokenBlocking(max_df=0.3), source, source) == set()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBlocking(min_token_length=0)
        with pytest.raises(ValueError):
            TokenBlocking(max_df=0.0)
        with pytest.raises(ValueError):
            TokenBlocking(max_block_size=0)


class TestKeyBlocking:
    def test_first_token_key(self, sources):
        domain, range_ = sources
        pairs = collect(KeyBlocking(), domain, range_)
        assert ("a0", "b0") in pairs
        # different first tokens are never candidates
        assert ("a0", "b1") not in pairs

    def test_custom_key(self, sources):
        domain, range_ = sources
        def length_key(value):
            return str(len(str(value)) // 10)

        pairs = collect(KeyBlocking(key=length_key), domain, range_)
        assert pairs  # produces some candidates deterministically

    def test_none_key_skips(self):
        domain = LogicalSource(PhysicalSource("L"), ObjectType("P"))
        domain.add_record("a", title=None)
        range_ = LogicalSource(PhysicalSource("R"), ObjectType("P"))
        range_.add_record("b", title="x")
        assert collect(KeyBlocking(), domain, range_) == set()

    def test_block_size_guard(self):
        domain = LogicalSource(PhysicalSource("L"), ObjectType("P"))
        range_ = LogicalSource(PhysicalSource("R"), ObjectType("P"))
        for index in range(30):
            domain.add_record(f"a{index}", title="same first")
            range_.add_record(f"b{index}", title="same first")
        pairs = collect(KeyBlocking(max_block_size=5), domain, range_)
        assert pairs == set()


class TestMetrics:
    def test_reduction_ratio(self):
        assert reduction_ratio(25, 5, 5) == 0.0
        assert reduction_ratio(5, 5, 5) == pytest.approx(0.8)
        assert reduction_ratio(0, 0, 5) == 0.0

    def test_reduction_ratio_self_matching(self):
        """Regression: the self-matching comparison space is the
        n*(n-1)/2 unordered pairs, not the n*n cross product — the
        cross-product denominator understated blocking savings."""
        # 5 records self-matched: 10 possible pairs, none avoided
        assert reduction_ratio(10, 5, 5, self_match=True) == 0.0
        # half the pairs avoided reads 0.5, not the cross product's 0.8
        assert reduction_ratio(5, 5, 5, self_match=True) == pytest.approx(0.5)
        # degenerate single-record source has nothing to avoid
        assert reduction_ratio(0, 1, 1, self_match=True) == 0.0

    def test_pair_completeness_empty_gold(self):
        assert pair_completeness([], Mapping("A", "B")) == 1.0

    def test_count_distinct(self, sources):
        domain, range_ = sources
        blocking = TokenBlocking(max_df=1.0)
        count = blocking.count(domain, range_,
                               domain_attribute="title",
                               range_attribute="title")
        assert count == len(collect(blocking, domain, range_))
