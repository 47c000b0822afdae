"""A request's mapping does not depend on how its rows are cut into calls.

``chunk_size`` only sets how many rows one kernel call scores, and the
q-gram kernel cuts a long call into cache-sized gather blocks of its
own (:data:`repro.engine.columns.GATHER_BYTES`).  Two statements hold
both to that:

* ``execute(...).to_rows()`` is equal at ``chunk_size`` 64, 2 048, the
  default and 32 768, for trigram, TF/IDF and a weighted
  multi-attribute request, token blocking (overlapping blocks) and
  key blocking with one dominant block, two-source and self-match,
  one, two and four workers, ``shard_blocking`` off and on;
* :meth:`NGramColumn.kernel_rows` over a call that spans several
  blocks is bitwise the per-block calls, rows wider than one block
  (long values) and the empty call included.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from reference_blocks import dominant_key

from repro.blocking import KeyBlocking, TokenBlocking
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.matchers.multi_attribute import (
    AttributePair,
    MultiAttributeMatcher,
)
from repro.engine import BatchMatchEngine, EngineConfig, columns
from repro.engine.columns import NGramColumn, build_column
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.ngram import TrigramSimilarity

CHUNK_SIZES = [64, 2048, EngineConfig().chunk_size, 32768]

#: 300 made-up words: titles of five share one with ~8 % of the others
WORDS = sorted({"".join(random.Random(seed).choices("bcdfghklmnprstvz", k=3))
                + random.Random(-seed).choice(["a", "er", "ion", "ing"])
                for seed in range(400)})[:300]
VENUES = ["VLDB", "SIGMOD", "ICDE", "EDBT", "CIKM", "KDD", "WWW", "PODS"]


def _source(name, rng, count, base=None):
    """Publications over a small vocabulary: enough shared tokens for
    tens of thousands of blocked pairs, and more distinct titles than
    that, so the title column scores with its kernel, not a table;
    with ``base``, every other record is a perturbed copy of one of
    its titles."""
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for index in range(count):
        words = rng.sample(WORDS, rng.randint(4, 6))
        if base is not None and index % 2 == 0:
            words = base[index % len(base)].split()[:-1] + [rng.choice(WORDS)]
        source.add_record(f"{name.lower()}{index}", title=" ".join(words),
                          venue=rng.choice(VENUES),
                          year=rng.randint(1995, 2005))
    return source


@pytest.fixture(scope="module")
def sources():
    rng = random.Random(11)
    domain = _source("A", rng, 700)
    return domain, _source("B", rng, 640,
                           base=domain.attribute_values("title"))


MATCHERS = {
    "trigram": lambda blocking, engine: AttributeMatcher(
        "title", similarity="trigram", threshold=0.5, blocking=blocking,
        engine=engine),
    "tfidf": lambda blocking, engine: AttributeMatcher(
        "title", similarity="tfidf", threshold=0.4, blocking=blocking,
        engine=engine),
    "multiattr": lambda blocking, engine: MultiAttributeMatcher(
        [AttributePair("title", similarity="trigram"),
         AttributePair("venue", similarity="tfidf", weight=2.0),
         AttributePair("year", similarity="year", weight=0.5)],
        combine="weighted", threshold=0.5, blocking=blocking,
        engine=engine),
}
BLOCKINGS = {
    "token": lambda: TokenBlocking(max_df=0.5),
    "dominant-key": lambda: KeyBlocking(key=dominant_key),
}


#: ``(workers, shard_blocking)``: every worker count, each knob value
WORKERS = [(1, False), (2, False), (2, True), (4, True)]


@pytest.mark.parametrize("mode", ["two-source", "self"])
@pytest.mark.parametrize("blocking", sorted(BLOCKINGS))
@pytest.mark.parametrize("matcher", sorted(MATCHERS))
def test_rows_do_not_follow_the_chunk_size(sources, matcher, blocking,
                                           mode):
    # fresh copies: a column a source keeps stays tabulated
    domain, range_ = (source.subset(source.ids()) for source in sources)
    if mode == "self":
        range_ = domain

    def rows(**config):
        engine = BatchMatchEngine(EngineConfig(profile=True, **config))
        mapping = MATCHERS[matcher](BLOCKINGS[blocking](), engine).match(
            domain, range_)
        return mapping.to_rows(), engine.profile_summary()

    expected, summary = rows(chunk_size=64)
    assert expected
    # enough rows that every chunk size but the largest cuts several
    # calls, and the largest spans several q-gram gather blocks
    assert summary["candidate_rows"] > 2 * CHUNK_SIZES[2]
    # ... scored by the title column's kernel, not a score table
    assert not all(column["table"] for column in summary["columns"])
    for chunk_size in CHUNK_SIZES:
        for workers, shard_blocking in WORKERS:
            got, _ = rows(chunk_size=chunk_size, workers=workers,
                          shard_blocking=shard_blocking)
            assert got == expected, (chunk_size, workers, shard_blocking)


LONG = ["".join(random.Random(seed).choices("abcdefghijklmnop ", k=400))
        for seed in range(6)] + [None, "", "ab"]
SHORT = ["adaptive query processing", "query processing", "join", None,
         "", "streaming joins", "adaptive joins over streams"]


@pytest.mark.parametrize("budget", [64, 512, 4096])
@pytest.mark.parametrize("values", [SHORT, LONG], ids=["short", "long"])
def test_a_long_call_is_its_blocks(monkeypatch, values, budget):
    """A call over many blocks equals one call per block, bit for bit;
    at 64 bytes the long values' rows (dozens of words) are wider than
    a block, so a block is one row."""
    kernel = build_column(TrigramSimilarity(), values).bind(values)
    assert type(kernel) is NGramColumn
    grid = np.meshgrid(np.arange(len(values)), np.arange(len(values)),
                       indexing="ij")
    rows_a, rows_b = (np.tile(side.ravel(), 40) for side in grid)
    monkeypatch.setattr(columns, "GATHER_BYTES", budget)
    step = max(1, budget // (8 * kernel._width))
    assert len(rows_a) > 3 * step
    if values is LONG and budget == 64:
        assert step == 1 and 8 * kernel._width > budget
    blocked = kernel.kernel_rows(rows_a, rows_b)
    parts = np.concatenate([
        kernel.kernel_rows(rows_a[start:start + step],
                           rows_b[start:start + step])
        for start in range(0, len(rows_a), step)])
    assert blocked.dtype == parts.dtype == np.float64
    assert blocked.tobytes() == parts.tobytes()
    # ... which are the similarity's own scores, sign bits too
    sim = TrigramSimilarity()
    assert np.array_equal(blocked.view(np.int64), np.array(
        [sim.similarity(values[a], values[b])
         for a, b in zip(rows_a.tolist(), rows_b.tolist())]).view(np.int64))
    empty = kernel.kernel_rows(rows_a[:0], rows_b[:0])
    assert empty.dtype == np.float64 and empty.shape == (0,)
