"""Property tests: the incremental index is indistinguishable from a
rebuild.

A random sequence of add / update / delete / query operations against
an :class:`IncrementalIndex` must answer every query exactly like an
index freshly built from the current live records — same candidates,
same scores, bit for bit.  (For corpus-aware similarities the
guarantee holds after :meth:`compact`, which refreshes the frozen
document frequencies; the trigram run checks every step.)
"""

import random

import pytest
from reference_scorer import index_scores

from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve.index import IncrementalIndex

WORDS = ["adaptive", "stream", "schema", "query", "index", "cache",
         "graph", "join", "view", "cube", "match", "entity", "fusion",
         "cleaning", "warehouse", "duplicate"]


def _title(rng):
    return " ".join(rng.choice(WORDS)
                    for _ in range(rng.randint(2, 6))) \
        + f" {rng.randint(0, 40)}"


def _seed_source(rng, n=40):
    source = LogicalSource(PhysicalSource("REF"), ObjectType("Publication"))
    for i in range(n):
        source.add_record(f"p{i}", title=_title(rng))
    return source


def _match(index, value, threshold=0.2, max_candidates=10):
    record = ObjectInstance("probe", {"title": value})
    pairs = [(0, id) for id in index.candidate_ids(value, max_candidates)]
    triples = index.score_pairs([record], pairs, threshold=threshold)
    return sorted(((id, score) for _, id, score in triples),
                  key=lambda item: (-item[1], item[0]))


def _mutate(index, rng, counter):
    op = rng.random()
    live = index.ids()
    if op < 0.5 or not live:
        id = f"n{next(counter)}"
        index.add_record(id, title=_title(rng))
    elif op < 0.75:
        index.update(ObjectInstance(rng.choice(live),
                                    {"title": _title(rng)}))
    else:
        index.delete(rng.choice(live))


@pytest.mark.parametrize("seed", [7, 21, 99])
def test_incremental_equals_rebuilt_trigram(seed):
    rng = random.Random(seed)
    counter = iter(range(10**6))
    index = IncrementalIndex(_seed_source(rng), "title",
                             compact_min=16, compact_ratio=0.2)
    for step in range(60):
        _mutate(index, rng, counter)
        if step % 5 != 0:
            continue
        rebuilt = IncrementalIndex(index.snapshot(), "title")
        assert index.ids() == rebuilt.ids()
        for _ in range(3):
            value = _title(rng)
            assert index.candidate_ids(value, 10) \
                == rebuilt.candidate_ids(value, 10)
            assert _match(index, value) == _match(rebuilt, value)
        # a live record's own title must match itself exactly
        probe = index.get(rng.choice(index.ids())).get("title")
        own = _match(index, probe, threshold=0.99)
        assert own and own[0][1] == pytest.approx(1.0)
        assert own == _match(rebuilt, probe, threshold=0.99)


@pytest.mark.parametrize("seed", [13, 42])
def test_incremental_equals_rebuilt_tfidf_after_compaction(seed):
    rng = random.Random(seed)
    counter = iter(range(10**6))
    index = IncrementalIndex(_seed_source(rng, 30), "title", "tfidf",
                             compact_min=1000)
    for _ in range(25):
        _mutate(index, rng, counter)
    # between compactions document frequencies are frozen by design;
    # compact() refreshes them, after which the index must be
    # bit-identical to one built from scratch
    index.compact()
    rebuilt = IncrementalIndex(index.snapshot(), "title", "tfidf")
    assert index.ids() == rebuilt.ids()
    for _ in range(8):
        value = _title(rng)
        assert _match(index, value, threshold=0.0) \
            == _match(rebuilt, value, threshold=0.0)


def test_index_equals_scalar_oracle_under_mutations():
    rng = random.Random(5)
    index = IncrementalIndex(_seed_source(random.Random(5)), "title",
                             compact_min=12)
    counter = iter(range(10**6))
    for step in range(40):
        _mutate(index, random.Random(5000 + step), counter)
        record = ObjectInstance("probe", {"title": _title(rng)})
        pairs = [(0, id) for id in index.ids()]
        assert sorted(index.score_pairs([record], pairs, threshold=0.0)) \
            == sorted(index_scores(index, [record], pairs, 0.0))
