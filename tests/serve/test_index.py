"""Tests for the incremental indexed reference store."""

import pytest
from reference_scorer import index_scores

from repro.core.operators.functions import WeightedFunction
from repro.engine import columns
from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve.index import IncrementalIndex
from repro.sim.ngram import TrigramSimilarity
from repro.sim.tfidf import TfIdfCosineSimilarity

TITLES = [
    "Adaptive Query Processing for Streams",
    "Schema Matching with Cupid",
    "Data Cleaning in Warehouses",
    "Adaptive Stream Joins over Windows",
    "Query Optimization in Federated Systems",
    "Duplicate Detection by Learned Models",
    "Warehouse Loading under Constraints",
    "Matching Product Offers across Shops",
]


def _source(n=len(TITLES), name="DBLP"):
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for i in range(n):
        source.add_record(f"p{i}", title=TITLES[i % len(TITLES)] + f" v{i}",
                          venue=f"venue {i % 3}", year=2000 + (i % 10))
    return source


def _queries(values):
    return [ObjectInstance(f"q{i}", {"title": value})
            for i, value in enumerate(values)]


def _all_pairs(index, records):
    return [(i, id) for i in range(len(records)) for id in index.ids()]


class TestMutation:
    def test_add_get_len(self):
        index = IncrementalIndex(_source(), "title")
        assert len(index) == len(TITLES)
        index.add_record("x1", title="Entity Resolution Surveys")
        assert len(index) == len(TITLES) + 1
        assert index.get("x1").get("title") == "Entity Resolution Surveys"
        assert "x1" in index

    def test_duplicate_add_rejected(self):
        index = IncrementalIndex(_source(), "title")
        with pytest.raises(ValueError):
            index.add_record("p0", title="whatever")

    def test_delete_and_readd(self):
        index = IncrementalIndex(_source(), "title")
        assert index.delete("p0")
        assert not index.delete("p0")
        assert "p0" not in index
        assert len(index) == len(TITLES) - 1
        index.add_record("p0", title="A Fresh Record")
        assert index.get("p0").get("title") == "A Fresh Record"

    def test_update_replaces(self):
        index = IncrementalIndex(_source(), "title")
        index.update(ObjectInstance("p1", {"title": "Renamed Title"}))
        assert index.get("p1").get("title") == "Renamed Title"
        assert len(index) == len(TITLES)
        with pytest.raises(KeyError):
            index.update(ObjectInstance("nope", {"title": "x"}))

    def test_version_bumps(self):
        index = IncrementalIndex(_source(), "title")
        version = index.version
        index.add_record("x1", title="a b")
        index.update(ObjectInstance("x1", {"title": "a c"}))
        index.delete("x1")
        assert index.version == version + 3

    def test_ids_order_is_deterministic(self):
        index = IncrementalIndex(_source(), "title")
        index.delete("p2")
        index.add_record("x1", title="one")
        index.add_record("x2", title="two")
        ids = index.ids()
        assert ids == [id for id in ids]  # stable
        assert ids[-2:] == ["x1", "x2"]
        assert "p2" not in ids

    def test_validation(self):
        with pytest.raises(ValueError):
            IncrementalIndex(_source(), "title", missing="maybe")
        with pytest.raises(ValueError):
            IncrementalIndex(_source(), "title", compact_min=0)
        with pytest.raises(ValueError):
            IncrementalIndex(_source(), "title", specs=[])
        with pytest.raises(ValueError):
            IncrementalIndex(_source(), specs=[
                AttributeSpec("title", "title", TrigramSimilarity()),
                AttributeSpec("venue", "venue", TrigramSimilarity()),
            ])


class TestCompaction:
    def test_threshold_triggers_compaction(self):
        index = IncrementalIndex(_source(), "title",
                                 compact_min=4, compact_ratio=0.25)
        for i in range(4):
            index.add_record(f"x{i}", title=f"fresh record {i}")
        assert index.compactions == 1
        stats = index.stats()
        assert stats["buffer"] == 0 and stats["tombstones"] == 0
        assert stats["base"] == len(TITLES) + 4

    def test_forced_compaction_preserves_results(self):
        index = IncrementalIndex(_source(), "title", compact_min=1000)
        index.add_record("x0", title="Adaptive Query Answering")
        index.delete("p1")
        records = _queries(["adaptive query processing", "schema matching"])
        pairs = _all_pairs(index, records)
        before = sorted(index.score_pairs(records, pairs, threshold=0.2))
        index.compact()
        after = sorted(index.score_pairs(records, pairs, threshold=0.2))
        assert before == after
        assert index.stats()["buffer"] == 0

    def test_compaction_listener_fires(self):
        index = IncrementalIndex(_source(), "title", compact_min=1000)
        fired = []
        index.on_compact(lambda: fired.append(True))
        index.compact()
        assert fired == [True]


class TestCandidates:
    def test_rare_tokens_rank_higher(self):
        source = LogicalSource(PhysicalSource("S"), ObjectType("P"))
        for i in range(20):
            source.add_record(f"c{i}", title=f"common words only {i}")
        source.add_record("rare", title="common zebra")
        index = IncrementalIndex(source, "title")
        candidates = index.candidate_ids("zebra common", max_candidates=5)
        assert candidates[0] == "rare"

    def test_max_candidates_bounds(self):
        index = IncrementalIndex(_source(), "title")
        assert len(index.candidate_ids("adaptive query", 2)) == 2

    def test_none_means_every_live_id(self):
        index = IncrementalIndex(_source(), "title")
        index.delete("p0")
        assert index.candidate_ids("anything", None) == index.ids()

    def test_postings_follow_mutations(self):
        index = IncrementalIndex(_source(), "title", compact_min=1000)
        index.update(ObjectInstance("p0", {"title": "zebra crossings"}))
        candidates = index.candidate_ids("zebra", 10)
        assert candidates == ["p0"]
        index.delete("p0")
        assert index.candidate_ids("zebra", 10) == []


class TestScoringEquivalence:
    """Bound kernels must agree with the scalar oracle bit-for-bit."""

    @pytest.mark.parametrize("similarity", ["trigram", "tfidf"],
                             ids=["ngram-bit", "sparse-tfidf"])
    def test_index_equals_scalar_oracle(self, similarity):
        index = IncrementalIndex(_source(), "title", similarity)
        assert index.stats()["vectorized_columns"] == 1
        records = _queries([
            "Adaptive Query Processing for Streams v0",   # exact hit
            "adaptive query processng for streams",        # noisy
            "an entirely unrelated sentence about zebras",  # unseen tokens
            "schema matching",
        ])
        pairs = _all_pairs(index, records)
        kernel = sorted(index.score_pairs(records, pairs, threshold=0.0))
        assert kernel == sorted(index_scores(index, records, pairs, 0.0))
        assert kernel  # non-trivial comparison

    @pytest.mark.parametrize("similarity", ["trigram", "tfidf"])
    def test_over_budget_reference_falls_back_to_scalar_column(
            self, similarity, monkeypatch):
        """The serve index honours the engine's one memory budget: a
        reference too big to pack scores through the scalar column —
        same answers, no packed arrays."""
        records = _queries(["adaptive query processng for streams",
                            "schema matching", "zebras"])
        packed = IncrementalIndex(_source(), "title", similarity)
        expected = packed.match_records(records, threshold=0.1)
        pairs = _all_pairs(packed, records)
        expected_pairs = sorted(
            packed.score_pairs(records, pairs, threshold=0.0))
        monkeypatch.setattr(columns, "MAX_INDEX_BYTES", 64)
        capped = IncrementalIndex(_source(), "title", similarity)
        assert packed.stats()["vectorized_columns"] == 1
        assert capped.stats()["vectorized_columns"] == 0
        assert capped.match_records(records, threshold=0.1) == expected
        assert sorted(capped.score_pairs(records, pairs, threshold=0.0)) \
            == expected_pairs
        assert any(expected)

    def test_over_budget_column_rides_in_the_composed_kernel(
            self, monkeypatch):
        """Only the venue column exceeds the budget: it becomes a scalar
        column inside the same composed kernel, answers unchanged."""
        def specs():
            return [AttributeSpec("title", "title", TrigramSimilarity()),
                    AttributeSpec("venue", "venue", TfIdfCosineSimilarity())]

        records = [ObjectInstance("q0", {"title": "adaptive query processing",
                                         "venue": "venue 1"}),
                   ObjectInstance("q1", {"title": "schema matching",
                                         "venue": None})]
        packed = IncrementalIndex(_source(), specs=specs(),
                                  combiner=WeightedFunction([2.0, 1.0]))
        expected = packed.match_records(records, threshold=0.2)
        title_bytes = packed._columns[0].range[0].nbytes
        # enough for the title bitmaps and every micro-batch bind, not
        # for the venue CSR arrays and bit rows (24 bytes per entry and
        # 16 per bit word)
        monkeypatch.setattr(columns, "MAX_INDEX_BYTES", title_bytes)
        capped = IncrementalIndex(_source(), specs=specs(),
                                  combiner=WeightedFunction([2.0, 1.0]))
        assert [type(column) for column in capped._columns] \
            == [columns.NGramColumn, columns.ScalarColumn]
        assert capped.stats()["vectorized_columns"] == 1
        assert capped.match_records(records, threshold=0.2) == expected
        assert any(expected)

    def test_mixed_base_and_buffer_rows(self):
        index = IncrementalIndex(_source(), "title", compact_min=1000)
        index.add_record("x0", title="adaptive query processing engines")
        index.update(ObjectInstance("p1", {"title": "schema matching redux"}))
        fresh = IncrementalIndex(index.snapshot(), "title")
        records = _queries(["adaptive query processing", "schema matching"])
        pairs = _all_pairs(index, records)
        assert sorted(index.score_pairs(records, pairs, threshold=0.1)) \
            == sorted(fresh.score_pairs(records, pairs, threshold=0.1))

    def test_multi_attribute_index_equals_scalar_oracle(self):
        specs = [
            AttributeSpec("title", "title", TrigramSimilarity()),
            AttributeSpec("venue", "venue", TfIdfCosineSimilarity()),
        ]
        index = IncrementalIndex(_source(), specs=specs,
                                 combiner=WeightedFunction([2.0, 1.0]))
        records = [
            ObjectInstance("q0", {"title": "adaptive query processing",
                                  "venue": "venue 1"}),
            ObjectInstance("q1", {"title": "schema matching with cupid",
                                  "venue": None}),
            ObjectInstance("q2", {"venue": "venue 2"}),  # missing title
        ]
        pairs = _all_pairs(index, records)
        assert sorted(index.score_pairs(records, pairs, threshold=0.0)) \
            == sorted(index_scores(index, records, pairs, 0.0))

    def test_indexes_sharing_a_spec_keep_their_own_statistics(self):
        """Two indexes built from one TF/IDF spec object: building the
        second (over another corpus) leaves the first's document
        frequencies, and so its scores, as they were."""
        spec = AttributeSpec("title", "title", TfIdfCosineSimilarity())
        records = _queries(["Adaptive Query Processing for Streams v0"])
        first = IncrementalIndex(_source(), specs=[spec])
        before = first.match_records(records, threshold=0.1)
        other = _source(3, name="ACM")
        for i in range(12):
            other.add_record(f"x{i}", title=f"adaptive processing {i}")
        IncrementalIndex(other, specs=[spec])
        assert first.match_records(records, threshold=0.1) == before
        assert before[0][0] == ("p0", 1.0)
        assert first.specs[0].similarity is not spec.similarity

    def test_missing_zero_policy_at_threshold_zero(self):
        source = _source(4)
        source.add_record("hole", title=None)
        index = IncrementalIndex(source, "title", missing="zero",
                                 compact_min=1000)
        index.add_record("buffered hole", title=None)
        records = _queries(["adaptive query"])
        pairs = _all_pairs(index, records)
        triples = index.score_pairs(records, pairs, threshold=0.0)
        assert sorted(triples) == sorted(index_scores(index, records, pairs,
                                                      0.0))
        # base and buffer rows surface alike
        assert {(0, "hole", 0.0), (0, "buffered hole", 0.0)} <= set(triples)
        # positive thresholds filter the zero scores out again
        assert all(ref not in ("hole", "buffered hole")
                   for _, ref, _ in index.score_pairs(
                       records, pairs, threshold=0.1))
