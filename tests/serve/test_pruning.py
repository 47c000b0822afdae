"""Impact-ordered candidate pruning: exhaustive equivalence harness.

The pruned top-k path (`IncrementalIndex(pruning="always")`) must be
**bit-identical** — same ids, same float scores, same order — to the
exhaustive ``bincount`` ranking (``pruning="never"``) on every query,
across randomized add/update/delete/compaction interleavings, every
threshold, every ``max_candidates``, and all three index shapes
(trigram, TF-IDF, multi-attribute).  The same holds one level up: an
N-shard :class:`ClusterIndex` with pruning equals a 1-shard cluster
equals the single index, including under divergent per-shard
compaction points and process-mode workers.

The hub-token stress test regression-guards the *sublinearity* claim
without timing: with one token in 90% of the reference, the pruned
path must touch a bounded fraction of the posting mass (counters
``postings_touched`` / ``postings_skipped``) while answering
identically.
"""

import itertools
import random

import pytest

from repro.core.operators.functions import get_combination
from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import ClusterIndex, IncrementalIndex
from repro.serve.cluster import _fork_available
from repro.sim.ngram import TrigramSimilarity
from repro.sim.tfidf import TfIdfCosineSimilarity

WORDS = ["adaptive", "stream", "schema", "query", "index", "cache",
         "graph", "join", "view", "cube", "match", "entity", "fusion",
         "cleaning", "warehouse", "duplicate", "lineage", "canopy"]


def _title(rng, hub_probability=0.0):
    tokens = [rng.choice(WORDS) for _ in range(rng.randint(2, 5))]
    if hub_probability and rng.random() < hub_probability:
        tokens.insert(0, "ubiquitous")
    return " ".join(tokens) + f" {rng.randint(0, 60)}"


def _reference(rng, n=60, hub_probability=0.0):
    source = LogicalSource(PhysicalSource("REF"), ObjectType("Publication"))
    for i in range(n):
        source.add_record(f"p{i}", title=_title(rng, hub_probability))
    return source


def _queries(rng, count=8, hub_probability=0.0):
    return [ObjectInstance(f"q{i}", {"title": _title(rng, hub_probability)})
            for i in range(count)]


def _twins(reference, **kwargs):
    """The same index twice, pruned and exhaustive."""
    rebuilt = LogicalSource(reference.physical, reference.object_type)
    for instance in reference:
        rebuilt.add(instance)
    return (IncrementalIndex(reference, pruning="always", **kwargs),
            IncrementalIndex(rebuilt, pruning="never", **kwargs))


def _assert_identical(pruned, exhaustive, queries, *, threshold,
                      max_candidates):
    expected = exhaustive.match_records(queries, threshold=threshold,
                                        max_candidates=max_candidates)
    actual = pruned.match_records(queries, threshold=threshold,
                                  max_candidates=max_candidates)
    assert actual == expected  # bit-identical: ids, floats, order


def _mutate(indexes, rng, counter):
    """Apply one random mutation to every index identically."""
    live = indexes[0].ids()
    op = rng.random()
    if op < 0.5 or not live:
        record = ObjectInstance(f"n{next(counter)}", {"title": _title(rng)})
        for index in indexes:
            index.add(record)
    elif op < 0.75:
        record = ObjectInstance(rng.choice(live), {"title": _title(rng)})
        for index in indexes:
            index.update(record)
    else:
        id = rng.choice(live)
        for index in indexes:
            index.delete(id)


class TestSingleIndexEquivalence:
    @pytest.mark.parametrize("seed", [7, 21, 99])
    def test_trigram_over_mutation_interleavings(self, seed):
        rng = random.Random(seed)
        pruned, exhaustive = _twins(_reference(rng), attribute="title",
                                    similarity=TrigramSimilarity(),
                                    compact_min=8)
        counter = itertools.count()
        for step in range(30):
            _mutate((pruned, exhaustive), rng, counter)
            _assert_identical(pruned, exhaustive, _queries(rng, 4),
                              threshold=rng.choice([0.0, 0.3, 0.6, 0.9]),
                              max_candidates=rng.choice([1, 3, 10, 50]))
        assert pruned.compactions == exhaustive.compactions
        assert pruned.compactions > 0  # interleavings crossed compaction

    @pytest.mark.parametrize("seed", [5, 42])
    def test_tfidf_over_mutation_interleavings(self, seed):
        rng = random.Random(seed)
        pruned, exhaustive = _twins(_reference(rng), attribute="title",
                                    similarity=TfIdfCosineSimilarity(),
                                    compact_min=8)
        counter = itertools.count()
        for step in range(20):
            _mutate((pruned, exhaustive), rng, counter)
            _assert_identical(pruned, exhaustive, _queries(rng, 4),
                              threshold=rng.choice([0.0, 0.3, 0.6]),
                              max_candidates=rng.choice([1, 5, 25]))

    @pytest.mark.parametrize("combiner", ["avg", "min", "max", "weighted"])
    def test_multi_attribute_over_mutations(self, combiner):
        rng = random.Random(13)
        specs = [AttributeSpec("title", "title", TrigramSimilarity()),
                 AttributeSpec("venue", "venue", TrigramSimilarity())]
        combination = (get_combination(combiner, weights=[0.7, 0.3])
                       if combiner == "weighted"
                       else get_combination(combiner))
        source = LogicalSource(PhysicalSource("REF"),
                               ObjectType("Publication"))
        for i in range(50):
            source.add_record(f"p{i}", title=_title(rng),
                              venue=_title(rng) if i % 6 else None)
        pruned, exhaustive = _twins(source, specs=specs,
                                    combiner=combination, compact_min=8)
        counter = itertools.count()
        queries = [ObjectInstance(f"q{i}", {"title": _title(rng),
                                            "venue": _title(rng)})
                   for i in range(5)]
        for step in range(12):
            _mutate((pruned, exhaustive), rng, counter)
            _assert_identical(pruned, exhaustive, queries,
                              threshold=rng.choice([0.0, 0.4, 0.7]),
                              max_candidates=rng.choice([2, 10, 50]))

    def test_exhaustive_mode_unaffected(self):
        rng = random.Random(3)
        pruned, exhaustive = _twins(_reference(rng), attribute="title",
                                    similarity=TrigramSimilarity())
        _assert_identical(pruned, exhaustive, _queries(rng),
                          threshold=0.2, max_candidates=None)
        # max_candidates=None never enters the pruned path
        assert pruned.pruning_counters()["pruned_queries"] == 0


class TestPruningGate:
    def test_invalid_mode_rejected(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            IncrementalIndex(_reference(rng), "title",
                             TrigramSimilarity(), pruning="sometimes")

    def test_auto_skips_low_skew(self):
        # tiny uniform reference: posting mass below PRUNE_MIN_MASS
        rng = random.Random(2)
        index = IncrementalIndex(_reference(rng, n=10), "title",
                                 TrigramSimilarity(), pruning="auto")
        index.match_records(_queries(rng, 3), threshold=0.2,
                            max_candidates=5)
        counters = index.pruning_counters()
        assert counters["queries"] > 0
        assert counters["pruned_queries"] == 0

    def test_auto_engages_on_hub_skew(self):
        rng = random.Random(4)
        index = IncrementalIndex(_reference(rng, n=400,
                                            hub_probability=0.95),
                                 "title", TrigramSimilarity(),
                                 pruning="auto")
        index.match_records(_queries(rng, 10, hub_probability=1.0),
                            threshold=0.2, max_candidates=10)
        assert index.pruning_counters()["pruned_queries"] > 0

    def test_never_mode_never_prunes(self):
        rng = random.Random(4)
        index = IncrementalIndex(_reference(rng, n=400,
                                            hub_probability=0.95),
                                 "title", TrigramSimilarity(),
                                 pruning="never")
        index.match_records(_queries(rng, 10, hub_probability=1.0),
                            threshold=0.2, max_candidates=10)
        counters = index.pruning_counters()
        assert counters["pruned_queries"] == 0
        assert counters["postings_skipped"] == 0


class TestHubTokenStress:
    def test_bounded_posting_mass_with_identical_results(self):
        rng = random.Random(17)
        source = _reference(rng, n=600, hub_probability=0.9)
        pruned, exhaustive = _twins(source, attribute="title",
                                    similarity=TrigramSimilarity())
        queries = _queries(rng, 20, hub_probability=1.0)
        for threshold, k in [(0.0, 5), (0.2, 10), (0.5, 3)]:
            _assert_identical(pruned, exhaustive, queries,
                              threshold=threshold, max_candidates=k)
        touched = pruned.pruning_counters()
        mass = touched["postings_touched"] + touched["postings_skipped"]
        assert touched["pruned_queries"] > 0
        # the sublinearity regression guard: the hub token's postings
        # must be largely skipped, not scanned
        assert touched["postings_touched"] < 0.6 * mass
        baseline = exhaustive.pruning_counters()
        assert baseline["postings_touched"] == \
            baseline["postings_touched"] + baseline["postings_skipped"]


SPECS = [AttributeSpec("title", "title", TrigramSimilarity())]


class TestClusterEquivalence:
    def _build(self, seed, *, processes=False, pruning="always"):
        rng = random.Random(seed)
        titles = [_title(rng, 0.5) for _ in range(80)]

        def source():
            out = LogicalSource(PhysicalSource("REF"),
                                ObjectType("Publication"))
            for i, title in enumerate(titles):
                out.add_record(f"p{i}", title=title)
            return out

        single = IncrementalIndex(source(), specs=SPECS, compact_min=8,
                                  pruning=pruning)
        one = ClusterIndex.build(source(), specs=SPECS, shards=1,
                                 processes=False, compact_min=8,
                                 pruning=pruning)
        many = ClusterIndex.build(source(), specs=SPECS, shards=3,
                                  processes=processes, compact_min=8,
                                  pruning=pruning)
        return rng, single, one, many

    @pytest.mark.parametrize("pruning", ["always", "auto", "never"])
    def test_shard_counts_agree_bit_identically(self, pruning):
        rng, single, one, many = self._build(23, pruning=pruning)
        counter = itertools.count()
        try:
            for step in range(15):
                _mutate((single, one, many), rng, counter)
                queries = _queries(rng, 4, hub_probability=0.5)
                for k in (1, 5, 50, None):
                    expected = single.match_records(queries, threshold=0.2,
                                                    max_candidates=k)
                    assert one.match_records(
                        queries, threshold=0.2,
                        max_candidates=k) == expected
                    assert many.match_records(
                        queries, threshold=0.2,
                        max_candidates=k) == expected
            # per-shard compaction points diverged from the single
            # index's during the interleaving; identity held throughout
            shard_compactions = [stats["compactions"] for stats in
                                 many.stats()["shard_stats"]]
            assert len(set(shard_compactions)) > 1
        finally:
            one.close()
            many.close()

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_process_mode_workers(self):
        rng, single, one, many = self._build(31, processes=True)
        counter = itertools.count()
        try:
            for step in range(8):
                _mutate((single, one, many), rng, counter)
                queries = _queries(rng, 3, hub_probability=0.5)
                expected = single.match_records(queries, threshold=0.2,
                                                max_candidates=10)
                assert many.match_records(queries, threshold=0.2,
                                          max_candidates=10) == expected
        finally:
            one.close()
            many.close()

    def test_cluster_aggregates_pruning_counters(self):
        rng, single, one, many = self._build(5)
        try:
            queries = _queries(rng, 6, hub_probability=0.5)
            many.match_records(queries, threshold=0.2, max_candidates=10)
            totals = many.stats()["pruning"]
            assert totals["queries"] > 0
            per_shard = [stats["pruning"]["queries"]
                         for stats in many.stats()["shard_stats"]]
            assert totals["queries"] == sum(per_shard)
        finally:
            one.close()
            many.close()
