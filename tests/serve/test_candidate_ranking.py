"""Candidate ranking in the serve index against a pure-Python reference.

``IncrementalIndex.ranked_candidates`` must equal
``reference_scorer.reference_ranking`` — the same slots in the same
order with the same float bits — on any corpus (hub tokens included),
through every add / update / delete / compact interleaving.  The
durable ``ClusterIndex`` (built with any ``shards=``) must rank (and
answer) exactly like the single index.  Also here: the ``pruning``
keyword the index keeps for the benchmark harness, and data dirs
written while the index persisted a pruning mode.
"""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_scorer import index_ranking

from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import ClusterIndex, IncrementalIndex
from repro.serve import partition as partition_layout
from repro.sim.ngram import TrigramSimilarity

WORDS = ["adaptive", "stream", "schema", "query", "index", "cache",
         "graph", "join"]
#: a token most records of a hub corpus carry
HUB = "ubiquitous"

SPECS = [AttributeSpec("title", "title", TrigramSimilarity())]


@st.composite
def _titles(draw, hub_rate):
    """A title, an empty one or none; ``hub_rate`` of 4 puts the hub
    token into a title, 3 in three of four, 0 never."""
    if draw(st.integers(0, 9)) == 0:
        return None
    words = draw(st.lists(st.sampled_from(WORDS), max_size=4))
    if draw(st.integers(0, 3)) < hub_rate:
        words.insert(0, HUB)
    return " ".join(words)


@st.composite
def _scenarios(draw):
    """``(reference titles, operations, query titles, k)``."""
    hub_rate = draw(st.sampled_from([0, 3, 4]))
    title = _titles(hub_rate)
    operation = st.one_of(
        st.tuples(st.just("add"), title),
        st.tuples(st.just("update"), st.integers(0, 1 << 16), title),
        st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
        st.just(("compact",)))
    return (draw(st.lists(title, min_size=1, max_size=24)),
            draw(st.lists(operation, max_size=16)),
            draw(st.lists(title, min_size=1, max_size=3)),
            draw(st.sampled_from([1, 2, 3, 7, 50])))


def _reference(titles):
    source = LogicalSource(PhysicalSource("REF"), ObjectType("Publication"))
    for i, title in enumerate(titles):
        source.add_record(f"p{i}", title=title)
    return source


def _apply(targets, operation, counter):
    """Apply one drawn operation to every target alike; update and
    delete pick a live id by index (and do nothing when none is)."""
    live = targets[0].ids()
    kind = operation[0]
    if kind == "add":
        record = ObjectInstance(f"n{next(counter)}",
                                {"title": operation[1]})
        for target in targets:
            target.add(record)
    elif kind == "compact":
        for target in targets:
            target.compact()
    elif live:
        id = live[operation[1] % len(live)]
        for target in targets:
            if kind == "update":
                target.update(ObjectInstance(id, {"title": operation[2]}))
            else:
                target.delete(id)


def _bits(weights):
    return np.asarray(weights, dtype=np.float64).view(np.int64).tolist()


def _assert_ranks_like_the_reference(index, value, k):
    ranked = index.ranked_candidates(value, k)
    expected = index_ranking(index, value, k)
    assert [slot for slot, _ in ranked] == [slot for slot, _ in expected]
    assert _bits([weight for _, weight in ranked]) \
        == _bits([weight for _, weight in expected])


@settings(max_examples=80, deadline=None)
@given(_scenarios())
def test_single_index_ranks_like_the_reference(scenario):
    titles, operations, queries, k = scenario
    index = IncrementalIndex(_reference(titles), specs=SPECS, compact_min=4)
    counter = itertools.count()
    for operation in [None] + operations:
        if operation is not None:
            _apply([index], operation, counter)
        for value in queries:
            _assert_ranks_like_the_reference(index, value, k)


def _answer_bits(answers):
    return [[(id, struct.pack("<d", score)) for id, score in answer]
            for answer in answers]


@settings(max_examples=40, deadline=None)
@given(_scenarios(), st.sampled_from([1, 2, 3]))
def test_cluster_ranks_and_answers_like_the_single_index(scenario, shards):
    titles, operations, queries, k = scenario
    single = IncrementalIndex(_reference(titles), specs=SPECS, compact_min=4)
    cluster = ClusterIndex.build(_reference(titles), specs=SPECS,
                                 shards=shards, compact_min=4)
    records = [ObjectInstance(f"q{i}", {"title": value})
               for i, value in enumerate(queries)]
    counter = itertools.count()
    try:
        for operation in [None] + operations:
            if operation is not None:
                _apply([single, cluster], operation, counter)
            assert cluster.ids() == single.ids()
            for value in queries:
                _assert_ranks_like_the_reference(cluster, value, k)
                ranked = cluster.ranked_candidates(value, k)
                expected = single.ranked_candidates(value, k)
                assert [slot for slot, _ in ranked] \
                    == [slot for slot, _ in expected]
                assert _bits([weight for _, weight in ranked]) \
                    == _bits([weight for _, weight in expected])
            assert _answer_bits(cluster.match_records(
                records, threshold=0.2, max_candidates=k)) \
                == _answer_bits(single.match_records(
                    records, threshold=0.2, max_candidates=k))
    finally:
        cluster.close()


def _hub_reference(n=200):
    return _reference([f"{HUB} {WORDS[i % len(WORDS)]} {i % 7}"
                       for i in range(n)])


def _hub_queries():
    return [ObjectInstance(f"q{i}", {"title": f"{HUB} {word} {i}"})
            for i, word in enumerate(WORDS)]


def test_pruning_keyword_selects_nothing():
    """The keyword is validated and ignored: every mode answers the
    same bits, and nothing is ever counted as pruned or skipped."""
    with pytest.raises(ValueError):
        IncrementalIndex(_hub_reference(), specs=SPECS, pruning="sometimes")
    answers = []
    for mode in ("auto", "always", "never"):
        index = IncrementalIndex(_hub_reference(), specs=SPECS, pruning=mode)
        answers.append(_answer_bits(index.match_records(
            _hub_queries(), threshold=0.2, max_candidates=5)))
        counters = index.stats()["pruning"]
        assert set(counters) == {"queries", "pruned_queries",
                                 "postings_touched", "postings_skipped",
                                 "prefilter_skipped"}
        assert counters["queries"] == len(WORDS)
        assert counters["postings_touched"] > 200 * len(WORDS)
        assert counters["pruned_queries"] == counters["postings_skipped"] \
            == counters["prefilter_skipped"] == 0
    assert answers[0] == answers[1] == answers[2]


def test_cluster_counts_candidates_like_the_single_index():
    cluster = ClusterIndex.build(_hub_reference(60), specs=SPECS, shards=3)
    single = IncrementalIndex(_hub_reference(60), specs=SPECS)
    try:
        for index in (cluster, single):
            index.match_records(_hub_queries(), threshold=0.2,
                                max_candidates=10)
        assert cluster.stats()["pruning"]["queries"] > 0
        assert cluster.stats() == single.stats()
    finally:
        cluster.close()


def test_data_dir_with_a_persisted_pruning_mode_restores(tmp_path):
    """Data dirs written while the index persisted its pruning mode
    carry a ``"pruning"`` key in their specs payload; they restore and
    answer bit for bit as before."""
    data_dir = str(tmp_path)
    cluster = ClusterIndex.build(_hub_reference(40), specs=SPECS, shards=2,
                                 data_dir=data_dir, compact_min=4)
    try:
        cluster.add(ObjectInstance("n0", {"title": f"{HUB} schema join"}))
        cluster.update(ObjectInstance("p3", {"title": "adaptive graph"}))
        cluster.delete("p5")
        cluster.checkpoint()
        before = [_answer_bits(cluster.match_records(
            _hub_queries(), threshold=0.2, max_candidates=k))
            for k in (3, None)]
    finally:
        cluster.close()
    payload = partition_layout.read_specs(data_dir)
    assert "pruning" not in payload
    partition_layout.write_specs(data_dir, dict(payload, pruning="always"))
    restored = ClusterIndex.restore(data_dir)
    try:
        assert [_answer_bits(restored.match_records(
            _hub_queries(), threshold=0.2, max_candidates=k))
            for k in (3, None)] == before
    finally:
        restored.close()
