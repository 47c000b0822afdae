"""Tests for online (query-time) matching — the paper's §2.1 use case,
served by :class:`repro.serve.MatchService` (single-record calls)."""

import pytest

from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import MatchService, ServeConfig, match_query_results


def _matcher(reference, attribute="title", **config):
    return MatchService(reference, config=ServeConfig(attribute=attribute,
                                                      **config))


@pytest.fixture
def reference():
    source = LogicalSource(PhysicalSource("DBLP"), ObjectType("Publication"))
    source.add_record("p1", title="Adaptive Query Processing for Streams")
    source.add_record("p2", title="Schema Matching with Cupid")
    source.add_record("p3", title="Data Cleaning in Warehouses")
    source.add_record("p4", title=None)
    return source


class TestOnlineMatcher:
    def test_exact_record_matches(self, reference):
        matcher = _matcher(reference, "title", threshold=0.8)
        record = ObjectInstance("q1", {
            "title": "Adaptive Query Processing for Streams"})
        results = matcher.match_record(record)
        assert results[0][0] == "p1"
        assert results[0][1] == pytest.approx(1.0)

    def test_noisy_record_matches(self, reference):
        matcher = _matcher(reference, "title", threshold=0.6)
        record = ObjectInstance("q1", {
            "title": "adaptive query processng for streams"})
        results = matcher.match_record(record)
        assert results and results[0][0] == "p1"

    def test_threshold_filters(self, reference):
        matcher = _matcher(reference, "title", threshold=0.95)
        record = ObjectInstance("q1", {"title": "schema matchng"})
        assert matcher.match_record(record) == []

    def test_missing_attribute(self, reference):
        matcher = _matcher(reference, "title")
        assert matcher.match_record(ObjectInstance("q1", {})) == []

    def test_cache_hits(self, reference):
        matcher = _matcher(reference, "title", threshold=0.6)
        record = ObjectInstance("q1", {"title": "schema matching"})
        first = matcher.match_record(record)
        second = matcher.match_record(record)
        assert first == second
        assert matcher.cache_stats()["hits"] == 1

    def test_cache_eviction(self, reference):
        matcher = _matcher(reference, "title", threshold=0.5,
                                cache_size=1)
        matcher.match_record(ObjectInstance("q1", {"title": "schema"}))
        matcher.match_record(ObjectInstance("q2", {"title": "cleaning"}))
        assert matcher.cache_stats()["size"] == 1

    def test_results_sorted_descending(self, reference):
        matcher = _matcher(reference, "title", threshold=0.1)
        record = ObjectInstance("q1", {"title": "adaptive data processing"})
        results = matcher.match_record(record)
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_batch_mapping(self, reference):
        matcher = _matcher(reference, "title", threshold=0.8)
        batch = [
            ObjectInstance("q1", {"title": "Schema Matching with Cupid"}),
            ObjectInstance("q2", {"title": "Data Cleaning in Warehouses"}),
        ]
        mapping = matcher.match_batch(batch, source_name="Query.Publication")
        assert mapping.domain == "Query.Publication"
        assert mapping.get("q1", "p2") == pytest.approx(1.0)
        assert mapping.get("q2", "p3") == pytest.approx(1.0)

    def test_validation(self, reference):
        with pytest.raises(ValueError):
            _matcher(reference, threshold=1.5)
        with pytest.raises(ValueError):
            _matcher(reference, max_candidates=0)


class TestReferenceMutation:
    """Reference changes invalidate exactly the affected cached results."""

    def test_add_invalidates_affected_cache_entry(self, reference):
        matcher = _matcher(reference, "title", threshold=0.6)
        record = ObjectInstance("q1", {"title": "schema matching"})
        before = matcher.match_record(record)
        matcher.add(ObjectInstance("p9", {"title": "Schema Matching Redux"}))
        after = matcher.match_record(record)
        assert matcher.cache_stats()["hits"] == 0
        assert before != after
        assert any(id == "p9" for id, _ in after)

    def test_delete_removes_reference_from_results(self, reference):
        matcher = _matcher(reference, "title", threshold=0.6)
        record = ObjectInstance("q1", {"title": "schema matching"})
        assert matcher.match_record(record)[0][0] == "p2"
        assert matcher.delete("p2")
        assert matcher.match_record(record) == []

    def test_update_changes_results(self, reference):
        matcher = _matcher(reference, "title", threshold=0.8)
        matcher.update(ObjectInstance(
            "p3", {"title": "Adaptive Query Processing for Streams"}))
        record = ObjectInstance("q1", {
            "title": "Adaptive Query Processing for Streams"})
        matched = {id for id, _ in matcher.match_record(record)}
        assert matched == {"p1", "p3"}

    def test_unrelated_mutation_keeps_cache(self, reference):
        matcher = _matcher(reference, "title", threshold=0.6)
        record = ObjectInstance("q1", {"title": "schema matching"})
        matcher.match_record(record)
        matcher.add(ObjectInstance("p9", {"title": "Zebra Migrations"}))
        matcher.match_record(record)
        assert matcher.cache_stats()["hits"] == 1


class TestConvenienceWrapper:
    def test_match_query_results(self, reference):
        results = [ObjectInstance("q1",
                                  {"title": "Schema Matching with Cupid"})]
        mapping = match_query_results(results, reference, threshold=0.8)
        assert mapping.pairs() == {("q1", "p2")}


class TestAgainstDataset:
    def test_gs_harvest_online_matching(self, dataset):
        """Online pattern end-to-end: query GS, match results to DBLP."""
        from repro.datagen.query import QueryClient

        client = QueryClient(dataset.gs.publications)
        matcher = _matcher(dataset.dblp.publications, "title",
                                threshold=0.8)
        gold = dataset.gold.publications("GS.Publication",
                                         "DBLP.Publication")
        checked = 0
        correct = 0
        for pub_id in dataset.dblp.publications.ids()[:15]:
            title = dataset.dblp.publications.require(pub_id).get("title")
            for result in client.search(title, max_results=3):
                matches = matcher.match_record(result)
                if not matches:
                    continue
                checked += 1
                if gold.get(result.id, matches[0][0]) is not None:
                    correct += 1
        assert checked > 0
        assert correct / checked > 0.7
