"""Rows are the currency of the blocking tier.

A built-in strategy's shard is a
:class:`~repro.blocking.pair_generator.BlockBatch` — start / count
arrays into two row arrays — and
:meth:`~repro.engine.shards.ShardRunner.slices` expands it in one
ragged cross product.  What that must produce is pinned against the
per-block loops it replaced (``reference_blocks``): the same rows in
the same order for every strategy, both matching modes, any shard
count and any slice size, read as id blocks by the reference
(``reference_blocks.id_blocks``); ``pairs()``, ``cost()`` and
``distinct_pairs()`` read the same batch.  Where blocks overlap
(token blocking) a pair comes from the first block holding it only:
the rows are the reference loops' first-seen filter, in the same
order, and no pair is in two shards; other strategies' blocks never
repeat a pair.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import reference_blocks as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import FullCross, KeyBlocking, TokenBlocking
from repro.blocking.pair_generator import (
    EXPAND_ROWS,
    BlockBatch,
    keep_first,
    partition_spans,
)
from repro.core.mapping import distinct_keys
from repro.engine import (
    AttributeSpec,
    BatchMatchEngine,
    EngineConfig,
    MatchRequest,
)
from repro.engine.shards import ROWS_PER_CALL
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.ngram import TrigramSimilarity

#: every built-in strategy (their shards are all blocks)
STRATEGIES = {
    "FullCross": FullCross(),
    "KeyBlocking": KeyBlocking(),
    "KeyBlocking-capped": KeyBlocking(max_block_size=3),
    "TokenBlocking": TokenBlocking(max_df=1.0),
    "TokenBlocking-df": TokenBlocking(max_df=0.3, max_block_size=6),
    "TokenBlocking-overlap": TokenBlocking(max_df=0.5),
    "KeyBlocking-dominant": KeyBlocking(key=reference.dominant_key),
}
ATTRIBUTES = dict(domain_attribute="title", range_attribute="title")


def _source(name: str, titles) -> LogicalSource:
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for index, title in enumerate(titles):
        source.add_record(f"{name.lower()}{index}", title=title)
    return source


def _runner(domain, range_, shards, chunk_size=64):
    request = MatchRequest(
        domain=domain, range=range_, threshold=0.3,
        specs=[AttributeSpec("title", "title", TrigramSimilarity())])
    return BatchMatchEngine(
        EngineConfig(chunk_size=chunk_size))._prepare(request, shards)


def _ranges(domain, other, k=40):
    """What ``domain`` is matched against, by mode.  ``self-subset`` /
    ``self-superset`` are self-matches of two source *objects*: the
    other's rows are not the domain's, and it lacks some of its ids —
    or has some more."""
    backwards = list(reversed(domain.ids()))
    part = domain.subset(backwards[:k])
    return {"two-source": (domain, other), "self": (domain, domain),
            "self-subset": (domain, part),
            "self-superset": (part, domain.subset(backwards))}


MODES = sorted(_ranges(_source("L", []), None))


def _check(blocking, domain, range_, n_shards, chunk_size=64):
    shards = blocking.shards(domain, range_, n_shards=n_shards, **ATTRIBUTES)
    assert len(shards) <= n_shards
    runner = _runner(domain, range_, shards, chunk_size)
    indexes = runner.domain.index, runner.range.index
    # the serial stream's one shard: the blocks every shard is cut from
    whole = blocking.shards(domain, range_, n_shards=1, **ATTRIBUTES)
    whole_blocks = [block for shard in whole
                    for block in reference.id_blocks(shard)]
    repeats = isinstance(blocking, TokenBlocking)
    canonical = repeats and runner.is_self
    first = reference.first_blocks(whole_blocks, unordered=canonical)
    streamed = []
    for shard in shards:
        slices = list(runner.slices(shard))
        assert all(0 < len(rows_a) == len(rows_b) <= chunk_size
                   for rows_a, rows_b in slices)
        rows = [np.concatenate([piece[side] for piece in slices]).tolist()
                if slices else [] for side in (0, 1)]
        assert (shard.batch().first is not None) == repeats
        assert shard.canonical == canonical
        blocks = list(reference.id_blocks(shard))
        pairs = (list(reference.first_seen(
            blocks, reference.origins(shard, whole[0]), first,
            unordered=canonical)) if repeats else
            [pair for block in blocks for pair in reference.raw_pairs(block)])
        assert tuple(rows) == reference.pair_rows(pairs, *indexes)
        assert shard.cost() == sum(block.pair_count() for block in blocks)
        assert shard.distinct_pairs() == len(pairs)
        if not repeats and (runner.domain is runner.range
                            or not runner.is_self):
            assert tuple(rows) == reference.expanded(blocks, *indexes)
            assert shard.cost() == len(rows[0])
        shard_pairs = list(shard.pairs())
        assert shard_pairs == [(b, a) if canonical and b < a else (a, b)
                               for a, b in pairs]
        streamed += shard_pairs
    # each pair once, the serial stream's first-seen copy, in its order
    assert streamed == list(reference.block_pairs(
        whole_blocks, dedup=repeats, canonical=canonical))
    return shards


class TestRowsEqualTheReference:
    #: a slice of 7 rows cuts most blocks mid-row; one of
    #: ``ROWS_PER_CALL`` takes each expansion step whole
    @pytest.mark.parametrize("chunk_size", [7, ROWS_PER_CALL],
                             ids=["sliced", "whole"])
    @pytest.mark.parametrize("n_shards", [1, 3, 8])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_on_tiny(self, dblp, acm, name, mode, n_shards, chunk_size):
        domain, range_ = _ranges(dblp.publications, acm.publications)[mode]
        shards = _check(STRATEGIES[name], domain, range_, n_shards,
                        chunk_size)
        assert sum(shard.cost() for shard in shards) > 0

    #: repeated values, ``None``s, tokens under ``min_token_length``
    #: ("ab", "c"), a token most values hold ("the": over ``max_df``
    #: and, in bulk, over ``max_block_size``)
    TITLES = st.lists(st.one_of(
        st.none(),
        st.lists(st.sampled_from(["the", "the", "ab", "c", "query",
                                  "stream", "schema", "join", "views"]),
                 min_size=0, max_size=4).map(" ".join)),
        min_size=0, max_size=14)

    @settings(max_examples=40, deadline=None)
    @given(titles_a=TITLES, titles_b=TITLES, data=st.data())
    def test_on_generated_sources(self, titles_a, titles_b, data):
        domain, other = _source("L", titles_a), _source("R", titles_b)
        modes = _ranges(domain, other,
                        data.draw(st.integers(0, len(titles_a)), label="k"))
        for name in sorted(STRATEGIES):
            mode = data.draw(st.sampled_from(MODES), label=f"{name} mode")
            _check(STRATEGIES[name], *modes[mode],
                   data.draw(st.sampled_from([1, 3, 8])),
                   data.draw(st.sampled_from([1, 7, 64]), label="chunk"))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["TokenBlocking", "TokenBlocking-df",
                                      "TokenBlocking-overlap"])
    def test_token_blocks_are_the_filtered_posting_lists(
            self, dblp, acm, name, mode):
        """The CSR join against the token-by-token filter: the same
        blocks, in the same (domain token) order."""
        domain, range_ = _ranges(dblp.publications, acm.publications)[mode]
        shard, = STRATEGIES[name].shards(domain, range_, n_shards=1,
                                         **ATTRIBUTES)
        assert list(reference.id_blocks(shard)) == reference.eligible_postings(
            STRATEGIES[name], domain, range_, "title", "title")

    def test_an_expansion_step_is_bounded(self, monkeypatch):
        """Blocks far larger than one step come out in steps of
        ``EXPAND_ROWS`` cut mid-row, the same rows in the same order."""
        from repro.blocking import pair_generator

        assert EXPAND_ROWS <= ROWS_PER_CALL
        rows = np.arange(40, dtype=np.int32)
        batch = BlockBatch(rows, rows[::-1].copy(), np.array(
            [(0, 40, 0, 40, 1), (3, 9, 1, 30, 0), (0, 0, 0, 5, 0),
             (7, 1, 0, 0, 0), (2, 30, 5, 17, 0)], dtype=np.int64))
        whole = [np.concatenate(side) for side in zip(*batch.expand())]
        assert len(whole[0]) == batch.costs().sum() == 780 + 270 + 510
        monkeypatch.setattr(pair_generator, "EXPAND_ROWS", 37)
        steps = list(batch.expand())
        assert [len(rows_a) for rows_a, _ in steps[:-1]] == \
            [37] * (len(steps) - 1)
        for side in (0, 1):
            assert np.array_equal(
                np.concatenate([step[side] for step in steps]), whole[side])


def _rows(batch):
    """:meth:`BlockBatch.expand`, concatenated."""
    steps = list(batch.expand())
    return [np.concatenate([step[side] for step in steps])
            if steps else np.zeros(0, dtype=np.int32) for side in (0, 1)]


class TestFirstBlocks:
    """The rule — a pair comes from the first block holding both its
    rows — against a first-seen sort of the raw expansion, on up to
    80 generated blocks over the rows of two sides (or one, as
    triangles), and on runs of them, as ``block_shards`` cuts them."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), triangle=st.booleans(),
           n_rows=st.integers(1, 12),
           step=st.sampled_from([64, 128, EXPAND_ROWS]))
    def test_equals_a_first_seen_sort(self, data, triangle, n_rows, step):
        """``step`` stands in for ``EXPAND_ROWS``: the repeats are
        found, and the pairs expanded, that many at a time."""
        from repro.blocking import pair_generator

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pair_generator, "EXPAND_ROWS", step)
            self._check(data, triangle, n_rows)

    @staticmethod
    def _check(data, triangle, n_rows):
        side = st.lists(st.integers(0, n_rows - 1), min_size=1,
                        unique=True).map(sorted)
        most = data.draw(st.sampled_from([8, 80]), label="most blocks")
        blocks = data.draw(st.lists(
            st.tuples(side, side), min_size=most // 4, max_size=most),
            label="blocks")
        spans_a = [a for a, _ in blocks]
        spans_b = spans_a if triangle else [b for _, b in blocks]
        rows_a, rows_b = (np.array([row for span in spans for row in span],
                                   dtype=np.int32) for spans in
                          (spans_a, spans_b))
        count_a, count_b = ([len(span) for span in spans]
                            for spans in (spans_a, spans_b))
        raw = BlockBatch(rows_a, rows_b, np.array(
            [(start_a, n_a, start_b, n_b, int(triangle)) for
             start_a, n_a, start_b, n_b in zip(
                 np.cumsum(count_a) - count_a, count_a,
                 np.cumsum(count_b) - count_b, count_b)],
            dtype=np.int64).reshape(-1, 5))
        batch = keep_first(raw)
        # the first-seen sort, and the block each first copy is in
        whole_a, whole_b = _rows(raw)
        keys = (whole_a.astype(np.int64) << 32) | whole_b
        if triangle:
            keys = np.minimum(keys, (whole_b.astype(np.int64) << 32)
                              | whole_a)
        first = distinct_keys(keys)[0]
        kept = _rows(batch)
        assert np.array_equal(kept[0], whole_a[first])
        assert np.array_equal(kept[1], whole_b[first])
        assert batch.size() == len(first)
        homes = set(zip(keys[first].tolist(), np.repeat(
            np.arange(len(raw.blocks)), raw.costs())[first].tolist()))
        # runs of blocks, as shards hold them: each keeps exactly its
        # first copies, in order
        origins = np.arange(len(raw.blocks))
        scattered = []
        for start, end in partition_spans(
                raw.costs(), data.draw(st.integers(1, 6), label="runs")):
            cut = batch.take(start, end)
            piece_a, piece_b = _rows(cut._replace(first=None))
            piece_keys = (np.minimum(piece_a, piece_b) if triangle
                          else piece_a).astype(np.int64) << 32 | (
                np.maximum(piece_a, piece_b) if triangle else piece_b)
            home = np.repeat(origins[start:end], cut.costs())
            expected = np.array([(key, origin) in homes for key, origin
                                 in zip(piece_keys.tolist(),
                                        home.tolist())], dtype=bool)
            got = _rows(cut)
            assert np.array_equal(got[0], piece_a[expected])
            assert np.array_equal(got[1], piece_b[expected])
            assert cut.size() == int(expected.sum())
            scattered += zip(*(side.tolist() for side in got))
        assert sorted(scattered) == sorted(zip(whole_a[first].tolist(),
                                               whole_b[first].tolist()))


class _Untouchable(dict):
    """An ``id -> row`` index nobody may ask anything."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("an id string was looked up")

    __getitem__ = __contains__ = __iter__ = __len__ = _refuse
    get = keys = values = items = setdefault = _refuse


@pytest.mark.parametrize("mode", ["two-source", "self-subset",
                                  "self-superset"])
@pytest.mark.parametrize("blocking, attribute", [
    (TokenBlocking(max_df=0.5), "title"),
    (KeyBlocking(key=lambda value: None if value is None else str(value)),
     "year"),
    (KeyBlocking(key=reference.dominant_key), "title"),
], ids=["TokenBlocking", "KeyBlocking", "KeyBlocking-dominant"])
@pytest.mark.parametrize("config", [
    dict(), dict(workers=2)], ids=["inline", "sharded"])
def test_no_id_string_is_read_on_the_block_path(dblp, acm, blocking,
                                                attribute, config, mode):
    """Between ``shards()`` and the survivors a warm request touches
    arrays only — a subset matched against its source included: with
    both bridges' ``id -> row`` dicts booby-trapped it runs, and loads
    the mapping of an untouched run."""
    def request(domain, range_):
        return MatchRequest(
            domain=domain, range=range_, threshold=0.4, blocking=blocking,
            specs=[AttributeSpec(attribute, attribute,
                                 TrigramSimilarity())])

    pubs_a, pubs_b = dblp.publications, acm.publications
    domain, range_ = _ranges(pubs_a.subset(pubs_a.ids()),
                             pubs_b.subset(pubs_b.ids()), k=120)[mode]
    engine = BatchMatchEngine(EngineConfig(**config))

    def run():
        """The request's mapping, then the survivors of an eight-shard
        plan, cut the same way: inline or where each shard is scored."""
        shards = blocking.shards(
            domain, range_, n_shards=8, domain_attribute=attribute,
            range_attribute=attribute)
        runner = engine._prepare(request(domain, range_), shards)
        outputs = ([runner.run(index)[1] for index in range(len(shards))]
                   if config else
                   [runner.score(*item) for shard in shards
                    for item in runner.slices(shard)])
        return (list(engine.execute(request(domain, range_))),
                [column.tolist() for column in runner.gather(outputs)])

    expected = run()
    assert expected[0] and expected[1][2]
    for source in (domain, range_):
        bridge = source.derived(("id-codes",), lambda: None)
        source._derived[("id-codes",)] = \
            bridge._replace(index=_Untouchable())
    with pytest.raises(AssertionError, match="looked up"):
        BatchMatchEngine().execute(MatchRequest(
            domain=domain, range=range_, candidates=[(domain.ids()[0],
                                                      range_.ids()[1])],
            specs=request(domain, range_).specs))
    assert run() == expected


_TOKEN_ROWS = """
import hashlib, json
from repro.blocking import TokenBlocking
from repro.datagen import build_dataset
from repro.engine import (AttributeSpec, BatchMatchEngine, EngineConfig,
                          MatchRequest)
from repro.sim.ngram import TrigramSimilarity

dataset = build_dataset("tiny", seed=7)
domain, range_ = dataset.dblp.publications, dataset.acm.publications
blocking = TokenBlocking(max_df=0.5)
out = {"vocabulary": list(blocking._index(domain, "title").codes)}
for name, other in (("two-source", range_), ("self", domain)):
    shard, = blocking.shards(domain, other, n_shards=1,
                             domain_attribute="title",
                             range_attribute="title")
    runner = BatchMatchEngine(EngineConfig())._prepare(MatchRequest(
        domain=domain, range=other,
        specs=[AttributeSpec("title", "title", TrigramSimilarity())]),
        [shard])
    digest = hashlib.sha256()
    for rows_a, rows_b in runner.slices(shard):
        digest.update(rows_a.tobytes() + rows_b.tobytes())
    out[name] = {"blocks": shard.batch().blocks.tolist(),
                 "rows": digest.hexdigest(), "cost": shard.cost()}
print(json.dumps(out))
"""


def test_token_rows_do_not_follow_the_hash_seed(under_hash_seeds):
    """Token codes count first occurrences over (row, sorted token),
    so the vocabulary, the eligible blocks and the expanded rows are
    the same in every interpreter."""
    first, second = under_hash_seeds(_TOKEN_ROWS)
    assert first == second
    out = json.loads(first)
    assert len(out["vocabulary"]) == len(set(out["vocabulary"])) > 50
    assert out["two-source"]["cost"] > 0 and out["self"]["cost"] > 0


@pytest.mark.parametrize("config", [
    dict(), dict(workers=2)], ids=["inline", "sharded"])
@pytest.mark.parametrize("mode", ["self-subset", "self-superset"])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_self_match_of_two_source_objects(dblp, acm, name, mode, config):
    """A subset against its source is a self-match whose range rows
    are not the domain's: blocks are domain rows on both sides, the
    runner reaches the range through ids, and the mapping relates
    exactly the candidate pairs both sides know, scored as themselves,
    both ways round."""
    domain, range_ = _ranges(dblp.publications, acm.publications)[mode]
    similarity, threshold = TrigramSimilarity(), 0.5
    expected = {}
    for id_a, id_b in STRATEGIES[name].candidates(domain, range_,
                                                  **ATTRIBUTES):
        if id_a != id_b and id_a in domain and id_b in range_:
            score = similarity(domain.get(id_a).get("title"),
                               range_.get(id_b).get("title"))
            if score >= threshold:
                expected[id_a, id_b] = expected[id_b, id_a] = score
    assert expected
    mapping = BatchMatchEngine(EngineConfig(**config)).execute(MatchRequest(
        domain=domain, range=range_, threshold=threshold,
        blocking=STRATEGIES[name],
        specs=[AttributeSpec("title", "title", similarity)]))
    assert {(id_a, id_b): score
            for id_a, id_b, score in mapping.to_rows()} == expected
