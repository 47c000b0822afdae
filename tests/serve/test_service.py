"""Tests for the standing match service: equivalence, reuse, the one
read path under concurrency, counters."""

import sys
import threading

import pytest

from repro.core.operators.functions import AvgFunction
from repro.engine import BatchMatchEngine, EngineConfig
from repro.engine.request import AttributeSpec, MatchRequest
from repro.model.entity import ObjectInstance
from repro.model.repository import MappingRepository
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import MatchService, ServeConfig
from repro.serve.service import SERVICE_COUNTERS
from repro.sim.ngram import TrigramSimilarity
from repro.sim.tfidf import TfIdfCosineSimilarity

ENGINE = BatchMatchEngine(EngineConfig(workers=1))


def _reference(n=24, name="DBLP"):
    words = ["adaptive", "stream", "schema", "query", "index", "cache",
             "graph", "join", "view", "cube", "match", "entity"]
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for i in range(n):
        title = " ".join(words[(i * 5 + j) % len(words)] for j in range(4))
        source.add_record(f"p{i}", title=f"{title} {i}",
                          venue=f"venue {i % 3}")
    return source


def _service(reference, repository=None, **config_kwargs):
    """A MatchService built the config way (the non-deprecated path)."""
    return MatchService(reference, config=ServeConfig(**config_kwargs),
                        repository=repository)


def _query_source(values, name="query"):
    source = LogicalSource(PhysicalSource(name), ObjectType("Results"))
    for i, value in enumerate(values):
        source.add_record(f"q{i}", title=value)
    return source


QUERY_TITLES = [
    "adaptive stream schema query",
    "stream schema query index",
    "cache graph join view 5",
    "entity matching surveys",
    "cube match entity adaptive 11",
]


class TestOfflineEquivalence:
    """Frozen reference + exhaustive candidates == the offline engine."""

    def test_trigram_bit_identical_to_engine(self):
        reference = _reference()
        service = _service(reference, attribute="title",
                           similarity="trigram",
                           threshold=0.3, max_candidates=None)
        queries = _query_source(QUERY_TITLES)
        served = service.match_batch(list(queries))
        request = MatchRequest(
            domain=queries, range=service.index.snapshot(),
            specs=[AttributeSpec("title", "title", TrigramSimilarity())],
            threshold=0.3)
        offline = ENGINE.execute(request)
        assert served.to_rows() == offline.to_rows()
        assert served.to_rows()

    def test_equivalence_survives_mutations(self):
        service = _service(_reference(), attribute="title",
                           similarity="trigram",
                           threshold=0.2, max_candidates=None,
                           compact_min=6)
        service.ingest([
            ObjectInstance(f"x{i}", {"title": f"stream query engine {i}"})
            for i in range(8)
        ])
        service.delete("p3")
        service.update(ObjectInstance("p4", {"title": "renamed entity row"}))
        queries = _query_source(QUERY_TITLES + ["stream query engine 3"])
        served = service.match_batch(list(queries))
        request = MatchRequest(
            domain=queries, range=service.index.snapshot(),
            specs=[AttributeSpec("title", "title", TrigramSimilarity())],
            threshold=0.2)
        assert served.to_rows() == ENGINE.execute(request).to_rows()

    def test_tfidf_bit_identical_with_frozen_statistics(self):
        """With document frequencies pinned to the service's reference
        corpus, the sparse serving kernel reproduces the engine's CSR
        kernel bit-for-bit."""
        sim = TfIdfCosineSimilarity()
        service = _service(_reference(), attribute="title", similarity=sim,
                           threshold=0.1, max_candidates=None)
        queries = _query_source(QUERY_TITLES)
        served = service.match_batch(list(queries))
        # freeze the service's reference-corpus IDF for the engine run
        # (the engine would otherwise re-prepare over both corpora)
        sim.prepare = lambda values: None
        request = MatchRequest(
            domain=queries, range=service.index.snapshot(),
            specs=[AttributeSpec("title", "title", sim)],
            threshold=0.1)
        offline = ENGINE.execute(request)
        assert served.to_rows() == offline.to_rows()
        assert served.to_rows()

    def test_multi_attribute_equivalence(self):
        specs = [AttributeSpec("title", "title", TrigramSimilarity()),
                 AttributeSpec("venue", "venue", TrigramSimilarity())]
        service = _service(_reference(),
                           specs=specs, combiner=AvgFunction(),
                           threshold=0.2, max_candidates=None)
        queries = LogicalSource(PhysicalSource("query"), ObjectType("R"))
        queries.add_record("q0", title="adaptive stream schema query 0",
                           venue="venue 0")
        queries.add_record("q1", title="cache graph join view", venue=None)
        served = service.match_batch(list(queries))
        request = MatchRequest(
            domain=queries, range=service.index.snapshot(),
            specs=[AttributeSpec("title", "title", TrigramSimilarity()),
                   AttributeSpec("venue", "venue", TrigramSimilarity())],
            combiner=AvgFunction(), threshold=0.2)
        assert served.to_rows() == ENGINE.execute(request).to_rows()
        assert served.to_rows()


class TestReuseCache:
    def test_repeated_query_hits_cache(self):
        service = _service(_reference(), threshold=0.3)
        record = ObjectInstance("q", {"title": "adaptive stream schema"})
        first = service.match_record(record)
        second = service.match_record(
            ObjectInstance("other-id", {"title": "adaptive stream schema"}))
        assert first == second
        assert service.cache_stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_mutation_invalidates_affected_entries(self):
        service = _service(_reference(), threshold=0.3)
        record = ObjectInstance("q", {"title": "adaptive stream schema"})
        before = service.match_record(record)
        service.add(ObjectInstance("new", {"title": "adaptive stream schema"}))
        after = service.match_record(record)
        assert service.cache_stats()["hits"] == 0  # entry was dropped
        assert ("new", pytest.approx(1.0)) in [
            (id, score) for id, score in after]
        assert before != after

    def test_unrelated_mutation_keeps_entries(self):
        service = _service(_reference(), threshold=0.3)
        record = ObjectInstance("q", {"title": "adaptive stream schema"})
        service.match_record(record)
        service.add(ObjectInstance("new", {"title": "zebra crossings"}))
        service.match_record(record)
        assert service.cache_stats()["hits"] == 1

    def test_delete_invalidates_stale_results(self):
        service = _service(_reference(), threshold=0.3)
        record = ObjectInstance("q", {"title": "adaptive stream schema"})
        before = service.match_record(record)
        assert before
        top_id = before[0][0]
        service.delete(top_id)
        after = service.match_record(record)
        assert all(id != top_id for id, _ in after)

    def test_exhaustive_mode_clears_on_mutation(self):
        service = _service(_reference(), threshold=0.3,
                           max_candidates=None)
        record = ObjectInstance("q", {"title": "adaptive stream schema"})
        service.match_record(record)
        service.add(ObjectInstance("new", {"title": "zebra"}))
        service.match_record(record)
        assert service.cache_stats()["hits"] == 0

    def test_compaction_clears_cache(self):
        service = _service(_reference(), threshold=0.3,
                           compact_min=1, compact_ratio=0.01)
        record = ObjectInstance("q", {"title": "adaptive stream schema"})
        service.match_record(record)
        # compact_min=1, tiny ratio: the next mutation compacts
        service.add(ObjectInstance("new", {"title": "zebra"}))
        assert service.index.compactions >= 1
        assert service.cache_stats()["size"] == 0

    def test_missing_value_matches_nothing(self):
        service = _service(_reference())
        assert service.match_record(ObjectInstance("q", {})) == []


def _counters(service):
    """Every counter of the table plus max_batch, by attribute."""
    values = {attribute: getattr(service, attribute)
              for attribute, _, _ in SERVICE_COUNTERS}
    values["max_batch"] = service.max_batch
    return values


class TestOneReadPath:
    """``match_record(r)`` is ``match_batch([r])``: same rows, same
    cache behaviour, same counter movement."""

    def test_match_record_is_a_one_record_batch(self):
        by_record = _service(_reference(), threshold=0.2)
        by_batch = _service(_reference(), threshold=0.2)
        record = ObjectInstance("q", {"title": QUERY_TITLES[0]})
        for _ in range(2):   # second round: both answer from the cache
            rows = by_record.match_record(record)
            mapping = by_batch.match_batch([record])
            assert sorted((record.id, id, score) for id, score in rows) \
                == sorted(tuple(row) for row in mapping.to_rows())
            assert rows
            assert _counters(by_record) == _counters(by_batch)
        assert _counters(by_record) == {
            "queries": 2, "hits": 1, "misses": 1, "batches": 1,
            "batched_records": 1, "persisted": 0, "max_batch": 1}

    def test_match_record_returns_a_private_list(self):
        service = _service(_reference(), threshold=0.2)
        record = ObjectInstance("q", {"title": QUERY_TITLES[0]})
        first = service.match_record(record)
        expected = list(first)
        first.clear()   # a caller's edit must not reach the cache
        assert service.match_record(record) == expected

    def test_results_sorted_descending_ties_by_id(self):
        service = _service(_reference(), threshold=0.05)
        results = service.match_record(
            ObjectInstance("q", {"title": "adaptive stream schema query"}))
        assert len(results) > 2
        assert results == sorted(results,
                                 key=lambda item: (-item[1], item[0]))

    def test_lru_evicts_the_oldest_entry(self):
        service = _service(_reference(), threshold=0.2, cache_size=2)
        first, second, third = (
            ObjectInstance(f"q{i}", {"title": title})
            for i, title in enumerate(QUERY_TITLES[:3]))
        service.match_record(first)
        service.match_record(second)
        service.match_record(first)    # refresh: second is now oldest
        service.match_record(third)    # evicts second
        assert service.cache_stats()["size"] == 2
        service.match_record(first)
        assert service.hits == 2
        service.match_record(second)
        assert service.hits == 2 and service.misses == 4


class TestConcurrency:
    def test_concurrent_callers_get_serial_answers(self):
        service = _service(_reference(64), threshold=0.2, cache_size=0)
        records = [
            ObjectInstance(f"q{i}", {"title": QUERY_TITLES[i % len(QUERY_TITLES)]
                                     + f" tail {i}"})
            for i in range(32)
        ]
        serial = _service(_reference(64), threshold=0.2)
        serial_expected = {record.id: serial.match_record(record)
                           for record in records}
        results = {}
        errors = []

        def worker(record):
            try:
                results[record.id] = service.match_record(record)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(record,))
                   for record in records]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == serial_expected
        stats = service.stats()
        # one kernel call per request's misses, never merged across
        # requests
        assert stats["queries"] == len(records)
        assert stats["batches"] == len(records)
        assert stats["batched_records"] == len(records)
        assert stats["max_batch"] == 1

    def test_lookup_counters_survive_concurrent_callers(self):
        """queries / hits / misses move under the cache lock: handler
        threads bumping them unlocked used to lose increments, so
        /v1/stats' cache.hits + cache.misses drifted from the lookups
        made."""
        service = _service(_reference(), threshold=0.2)
        records = [ObjectInstance(f"q{i}", {"title": title})
                   for i, title in enumerate(QUERY_TITLES)]

        def worker(i):
            for j in range(200):
                service.match_batch([records[(i + j) % len(records)]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert service.queries == 1600
        assert service.hits + service.misses == 1600

    def test_concurrent_queries_and_mutations(self):
        service = _service(_reference(48), threshold=0.2, compact_min=8)
        errors = []

        def query_worker(i):
            try:
                for j in range(10):
                    service.match_record(ObjectInstance(
                        f"q{i}-{j}", {"title": f"adaptive stream {i} {j}"}))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        def mutate_worker(i):
            try:
                for j in range(10):
                    id = f"m{i}-{j}"
                    service.add(ObjectInstance(id, {"title": f"fresh {i} {j}"}))
                    if j % 3 == 0:
                        service.delete(id)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=query_worker, args=(i,))
                   for i in range(4)]
        threads += [threading.Thread(target=mutate_worker, args=(i,))
                    for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # 48 seed + 20 adds - 8 deletes
        assert len(service.index) == 48 + 20 - 8

    def test_persist_failure_raises_in_every_caller(self):
        """A failing repository append raises in each caller (none
        hangs, none gets another's error swallowed) and leaves the
        service answering."""

        class BrokenRepository:
            def append(self, name, correspondences):
                raise RuntimeError("disk full")

        service = _service(_reference(), threshold=0.2, cache_size=0)
        service.repository = BrokenRepository()
        service.mapping_name = "broken"
        outcomes = {}

        def worker(i):
            record = ObjectInstance(f"q{i}", {"title": f"adaptive stream {i}"})
            try:
                outcomes[i] = ("ok", service.match_record(record))
            except RuntimeError as error:
                outcomes[i] = ("error", str(error))

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads), \
            "a caller hung after the persist failed"
        assert len(outcomes) == 6
        assert all(kind == "error" and "disk full" in detail
                   for kind, detail in outcomes.values())
        service.repository = None
        assert service.match_record(
            ObjectInstance("q", {"title": "adaptive stream 1"}))


class TestRepositoryPersistence:
    def test_scored_batches_are_appended(self):
        repository = MappingRepository(":memory:")
        service = _service(_reference(), threshold=0.3,
                           repository=repository,
                           mapping_name="served")
        queries = _query_source(QUERY_TITLES)
        mapping = service.match_batch(list(queries))
        stored = repository.load("served")
        assert stored.to_rows() == mapping.to_rows()
        assert stored.domain == "query.Results"
        assert stored.range == service.index.name

    def test_repeated_queries_do_not_duplicate_rows(self):
        repository = MappingRepository(":memory:")
        service = _service(_reference(), threshold=0.3,
                           repository=repository,
                           mapping_name="served")
        queries = list(_query_source(QUERY_TITLES))
        first = service.match_batch(queries)
        persisted = service.persisted
        service.match_batch(queries)  # cache hits: nothing rescored
        assert service.persisted == persisted
        assert repository.load("served").to_rows() == first.to_rows()

    def test_repository_requires_mapping_name(self):
        with pytest.raises(ValueError):
            _service(_reference(),
                     repository=MappingRepository(":memory:"))


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            _service(_reference(), threshold=1.5)
        with pytest.raises(ValueError):
            _service(_reference(), max_candidates=0)
        with pytest.raises(ValueError):
            _service(_reference(), cache_size=-1)
        with pytest.raises(ValueError):
            MatchService()

    def test_stats_shape(self):
        service = _service(_reference())
        stats = service.stats()
        assert {"records", "queries", "batches", "cache", "index"} \
            <= set(stats)
