"""Tests for the mapping cache."""

import pytest

from repro.core.mapping import Mapping
from repro.model.cache import MappingCache


def make_mapping(n: int) -> Mapping:
    return Mapping.from_correspondences(
        "A", "B", [(f"a{i}", f"b{i}", 1.0) for i in range(n)])


class TestMappingCache:
    def test_put_get(self):
        cache = MappingCache()
        mapping = make_mapping(2)
        cache.put("key", mapping)
        assert cache.get("key") is mapping

    def test_miss_returns_none(self):
        cache = MappingCache()
        assert cache.get("missing") is None

    def test_hit_miss_counters(self):
        cache = MappingCache()
        cache.get("x")
        cache.put("x", make_mapping(1))
        cache.get("x")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction_order(self):
        cache = MappingCache(max_entries=2)
        cache.put("a", make_mapping(1))
        cache.put("b", make_mapping(1))
        cache.get("a")  # refresh 'a'
        cache.put("c", make_mapping(1))
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_put_refreshes_existing(self):
        cache = MappingCache(max_entries=2)
        cache.put("a", make_mapping(1))
        cache.put("b", make_mapping(1))
        cache.put("a", make_mapping(2))
        cache.put("c", make_mapping(1))
        assert "a" in cache and "b" not in cache

    def test_invalidate(self):
        cache = MappingCache()
        cache.put("a", make_mapping(1))
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False

    def test_clear_keeps_counters(self):
        cache = MappingCache()
        cache.put("a", make_mapping(1))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MappingCache(max_entries=0)
