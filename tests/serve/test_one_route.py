"""One scoring route in the serve index.

Every pair a page scores — a base slot or a buffer slot — goes
column → bind → kernel → :func:`~repro.engine.columns.survivors`, and
what comes out equals the scalar oracle
(``reference_scorer.index_scores``) over the index's live instances in
every state an index passes through: base only, with a buffer, after
updates, with tombstones.  Both hold for the single index and for the
durable ``ClusterIndex``.
"""

import struct

import pytest
from reference_scorer import index_scores

from repro.core.operators.functions import WeightedFunction, get_combination
from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import ClusterIndex
from repro.serve import index as serve_index
from repro.serve.index import IncrementalIndex
from repro.sim.registry import get_similarity

TITLES = [
    "adaptive query processing for streams",
    "schema matching with cupid",
    "data cleaning in warehouses",
    "adaptive stream joins over windows",
    "query optimization in federated systems",
    "duplicate detection by learned models",
]

QUERIES = [
    ObjectInstance("q0", {"title": "adaptive query processing for streams 0",
                          "venue": "venue 0"}),
    ObjectInstance("q1", {"title": "schema matchng with cupid",
                          "venue": None}),
    ObjectInstance("q2", {"title": "warehouse data cleaning",
                          "venue": "venue 2"}),
    ObjectInstance("q3", {"venue": "venue 1"}),
    # far shorter than every title it shares a token with: a length
    # bound alone rules it out at threshold 0.5
    ObjectInstance("q4", {"title": "adaptive", "venue": "venue 1"}),
]


COMBINED = {"weighted": lambda: WeightedFunction([2.0, 1.0]),
            "avg": lambda: get_combination("avg"),
            "min": lambda: get_combination("min"),
            "max": lambda: get_combination("max")}


def _specs(kind):
    """``(specs, combiner)``: one spec of a packed q-gram, a TF/IDF or
    a non-packing similarity, or a combined pair of a q-gram title
    beside a non-packing venue spec."""
    if kind in COMBINED:
        return [AttributeSpec("title", "title", get_similarity("trigram")),
                AttributeSpec("venue", "venue",
                              get_similarity("editdistance"))], \
            COMBINED[kind]()
    return [AttributeSpec("title", "title", get_similarity(kind))], None


def _reference(n=12):
    source = LogicalSource(PhysicalSource("REF"), ObjectType("Publication"))
    for i in range(n):
        source.add_record(
            f"p{i}", title=None if i == 5 else f"{TITLES[i % 6]} {i}",
            venue=None if i % 4 == 1 else f"venue {i % 3}")
    return source


def _states(index):
    """Mutate ``index`` through buffer, update and tombstone states,
    yielding a name for each (the base comes first)."""
    yield "base"
    for i in range(4):
        index.add(ObjectInstance(f"x{i}", {
            "title": None if i == 2 else f"{TITLES[(i + 1) % 6]} x{i}",
            "venue": None if i == 3 else f"venue {i}"}))
    yield "buffer"
    index.update(ObjectInstance("p2", {"title": "data cleaning revisited",
                                       "venue": "venue 2"}))
    index.update(ObjectInstance("x1", {"title": "schema matching again",
                                       "venue": None}))
    yield "update"
    index.delete("p3")
    index.delete("x0")
    yield "tombstone"


def _bits(triples):
    return sorted((query, id, struct.pack("<d", score))
                  for query, id, score in triples)


def _assert_equals_oracle(index, threshold):
    pairs = [(query, id) for query in range(len(QUERIES))
             for id in index.ids()]
    assert _bits(index.score_pairs(QUERIES, pairs, threshold=threshold)) \
        == _bits(index_scores(index, QUERIES, pairs, threshold))
    # the candidate route: each record's top-k scored like the oracle
    answers = index.match_records(QUERIES, threshold=threshold,
                                  max_candidates=8)
    for position, (record, answer) in enumerate(zip(QUERIES, answers)):
        value = record.get(index.specs[0].attribute)
        ids = [] if value is None else index.candidate_ids(str(value), 8)
        expected = index_scores(index, QUERIES,
                                [(position, id) for id in ids], threshold)
        assert _bits((position, id, score) for id, score in answer) \
            == _bits(expected)


def _build(topology, kind, missing):
    specs, combiner = _specs(kind)
    if topology == "index":
        return IncrementalIndex(_reference(), specs=specs, combiner=combiner,
                                missing=missing, compact_min=1000)
    return ClusterIndex.build(_reference(), specs=specs, combiner=combiner,
                              missing=missing, compact_min=1000, shards=2)


@pytest.mark.parametrize("topology", ["index", "cluster"])
@pytest.mark.parametrize("missing", ["skip", "zero"])
@pytest.mark.parametrize("kind", ["trigram", "tfidf", "editdistance",
                                  "weighted", "avg", "min", "max"])
def test_every_state_equals_the_scalar_oracle(topology, kind, missing):
    target = _build(topology, kind, missing)
    try:
        for state in _states(target):
            assert (target.stats()["buffer"] > 0) == (state != "base")
            for threshold in (0.0, 0.5):
                _assert_equals_oracle(target, threshold)
    finally:
        if topology == "cluster":
            target.close()


@pytest.mark.parametrize("threshold", [0.0, 0.5])
@pytest.mark.parametrize("topology", ["index", "cluster"])
@pytest.mark.parametrize("kind", ["trigram", "editdistance", "weighted"])
def test_base_and_buffer_pairs_all_pass_survivors(monkeypatch, topology,
                                                  kind, threshold):
    """Count the rows :func:`survivors` sees (as the index imports it)
    against the pairs handed to ``_score_slots``: on a page that hits
    base and buffer slots alike, they are the same number, at any
    threshold — no pair is dropped before the kernel is asked (a
    multi-attribute kernel's own prefilter runs inside it)."""
    target = _build(topology, kind, "skip")
    try:
        states = _states(target)
        next(states)
        next(states)  # a buffer beside the base
        scored, buffered, survived = [], [], []
        score_slots = IncrementalIndex._score_slots
        real_survivors = serve_index.survivors

        def counting_slots(self, records, runs, threshold):
            slots = [slot for _, run in runs for slot in run]
            scored.append(len(slots))
            buffered.append(sum(slot >= len(self._base) for slot in slots))
            return score_slots(self, records, runs, threshold)

        def counting_survivors(kernel, rows_a, rows_b, *args):
            survived.append(len(rows_a))
            return real_survivors(kernel, rows_a, rows_b, *args)

        monkeypatch.setattr(IncrementalIndex, "_score_slots", counting_slots)
        monkeypatch.setattr(serve_index, "survivors", counting_survivors)
        answers = target.match_records(QUERIES, threshold=threshold,
                                       max_candidates=50)
    finally:
        if topology == "cluster":
            target.close()
    assert any(answers)
    assert sum(buffered) > 0 and sum(scored) > sum(buffered)
    assert sum(survived) == sum(scored)
