"""Every candidate source is an ordinary pair source.

An explicit ``candidates=`` list, a blocking strategy and the cross
product all reach the engine as shards that one
:class:`~repro.engine.shards.ShardRunner` cuts into slices — so they
share the kernels, and who cuts the slices (the parent, inline, or
the workers, per shard) never shows in the mapping.  These suites pin
both: explicit lists against the scalar reference, and sharded ==
serial, row list for row list.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_blocks

from repro import AttributeMatcher, AttributePair, MultiAttributeMatcher
from repro.blocking import BlockShard, FullCross, KeyBlocking, TokenBlocking
from repro.blocking import pair_generator
from repro.core.mapping import Mapping, MappingKind
from repro.core.matchers.neighborhood import NeighborhoodMatcher
from repro.core.operators.functions import get_combination
from repro.core.workflow import MatchContext, MatchWorkflow
from repro.engine import (
    AttributeSpec,
    BatchMatchEngine,
    EngineConfig,
    MatchRequest,
)
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.base import SimilarityFunction
from repro.sim.registry import get_similarity

WORDS = ["adaptive", "stream", "schema", "query", "index", "cache",
         "graph", "join", "view", "cube", "fusion"]


def _pubs(name: str, count: int, *, step: int = 3) -> LogicalSource:
    """Publications with overlapping titles, a few of them missing."""
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for i in range(count):
        title = " ".join(WORDS[(i * step + j) % len(WORDS)]
                         for j in range(4)) + f" {i % 5}x"
        source.add_record(
            f"{name.lower()}{i}",
            title=None if i % 7 == 3 else title,
            venue=None if i % 5 == 4 else f"{WORDS[i % 3]} conf",
            year=None if i % 6 == 5 else 1995 + i % 4)
    return source


# ----------------------------------------------------------------------
# (a) explicit candidates == the scalar reference, as lists
# ----------------------------------------------------------------------

def _request(flavor: str, domain, range_, missing: str, candidates=None):
    """A threshold-0 request with brand-new similarity objects."""
    def spec(attribute, similarity):
        return AttributeSpec(attribute, attribute, get_similarity(similarity))

    if flavor == "weighted":
        return MatchRequest(
            domain=domain, range=range_, candidates=candidates,
            specs=[spec("title", "trigram"), spec("venue", "tfidf"),
                   spec("year", "year")],
            combiner=get_combination("weighted", weights=[1.0, 2.0, 0.5]))
    return MatchRequest(domain=domain, range=range_, candidates=candidates,
                        specs=[spec("title", flavor)], missing=missing)


def _candidates(domain, range_, self_matching: bool) -> list:
    ids_a, ids_b = domain.ids(), range_.ids()
    pairs = [(ids_a[i], ids_b[(i * 5 + j) % len(ids_b)])
             for i in range(len(ids_a)) for j in range(4)]
    pairs += pairs[3:40:4]                          # repeated pairs
    pairs[10:10] = [("nope", ids_b[0]), (ids_a[0], "nope")]  # unknown ids
    if self_matching:
        pairs += [(b, a) for a, b in pairs[:30:3]]  # both orientations
        pairs.append((ids_a[2], ids_a[2]))          # and a reflexive pair
    return pairs


class _Containment(SimilarityFunction):
    """Asymmetric: the share of ``a``'s words that ``b`` holds."""

    name = "containment"

    def _score(self, a: str, b: str) -> float:
        words, others = a.split(), set(b.split())
        return sum(word in others for word in words) / len(words)


EXPLICIT_ENGINES = {
    "serial": BatchMatchEngine(EngineConfig(workers=1, chunk_size=16,
                                            profile=True)),
    "pool": BatchMatchEngine(EngineConfig(workers=2, chunk_size=16,
                                          profile=True)),
}


class TestExplicitCandidates:
    @pytest.mark.parametrize("engine", sorted(EXPLICIT_ENGINES))
    @pytest.mark.parametrize("missing", ["skip", "zero"])
    @pytest.mark.parametrize("self_matching", [False, True],
                             ids=["two-source", "self"])
    @pytest.mark.parametrize("flavor", ["trigram", "tfidf", "weighted"])
    def test_equals_the_scalar_reference_as_lists(self, flavor,
                                                  self_matching, missing,
                                                  engine, scalar_reference):
        domain = _pubs("L", 30)
        range_ = domain if self_matching else _pubs("R", 26, step=2)
        pairs = _candidates(domain, range_, self_matching)
        expected = list(scalar_reference(
            _request(flavor, domain, range_, missing, candidates=pairs)))
        assert len(expected) > 20
        if missing == "zero" and flavor != "weighted":
            assert any(score == 0.0 for _, _, score in expected)
        mapping = EXPLICIT_ENGINES[engine].execute(
            _request(flavor, domain, range_, missing, candidates=pairs))
        assert list(mapping) == expected
        # scored by the kernel, in chunk_size slices: inline, or each
        # a pool task of its own
        summary = EXPLICIT_ENGINES[engine].profile_summary()
        if engine == "pool":
            assert summary["path"] == "sharded" and summary["shards"] > 4
        else:
            assert summary["path"] == "indexed" and summary["chunks"] > 4

    def test_a_self_match_list_keeps_its_first_orientation(
            self, scalar_reference):
        """A self-match list holding pairs both ways round, the second
        orientation in a later run of the list: every engine scores
        the first orientation only, as the one pair stream does — an
        asymmetric similarity shows which one was scored."""
        domain = LogicalSource(PhysicalSource("L"), ObjectType("Publication"))
        for i in range(30):  # two to six words: containment differs
            domain.add_record(f"l{i}", title=" ".join(
                WORDS[(i * 3 + j) % len(WORDS)] for j in range(2 + i % 5)))
        pairs = _candidates(domain, domain, True)

        def request():
            return MatchRequest(
                domain=domain, range=domain, candidates=pairs,
                specs=[AttributeSpec("title", "title", _Containment())])

        expected = list(scalar_reference(request()))
        assert any(score != _Containment().similarity(
            domain.get(b).get("title"), domain.get(a).get("title"))
            for a, b, score in expected)
        for engine in EXPLICIT_ENGINES.values():
            assert list(engine.execute(request())) == expected

    def test_a_one_shot_iterator_is_a_candidate_source(self):
        domain, range_ = _pubs("L", 12), _pubs("R", 12, step=2)
        pairs = _candidates(domain, range_, False)
        expected = EXPLICIT_ENGINES["serial"].execute(
            _request("trigram", domain, range_, "skip", candidates=pairs))
        streamed = EXPLICIT_ENGINES["pool"].execute(
            _request("trigram", domain, range_, "skip",
                     candidates=iter(pairs)))
        assert list(streamed) == list(expected)

    def test_confined_request_scores_through_the_kept_columns(self, dataset):
        """Figure 11's shape: one matcher's result confines the next.
        The confined request finds the column the blocked one packed."""
        dblp, acm = (source.subset(source.ids()) for source in
                     (dataset.dblp.publications, dataset.acm.publications))
        engine = BatchMatchEngine(EngineConfig(profile=True))
        blocked = AttributeMatcher(
            "title", similarity="trigram", threshold=0.4,
            blocking=TokenBlocking(max_df=0.5), engine=engine,
        ).match(dblp, acm)
        assert engine.profile_summary()["kernel_cached"] is False
        confined = AttributeMatcher(
            "title", similarity="trigram", threshold=0.6, engine=engine,
        ).match(dblp, acm, candidates=[(a, b) for a, b, _ in blocked])
        profile = engine.profile_summary()
        assert profile["path"] == "indexed"
        assert profile["kernel_cached"] is True
        assert profile["survivor_rows"] == profile["merged_rows"] \
            == len(confined)
        kept = [row for row in blocked if row[2] >= 0.6]
        assert 0 < len(kept) < len(blocked)
        assert confined.to_rows() == sorted(kept)


# ----------------------------------------------------------------------
# (b) a mapping as the candidate set == its id pairs as a list
# ----------------------------------------------------------------------

def _candidate_mapping(domain, range_, self_matching, names=None) -> Mapping:
    names = names or (domain.name, range_.name)
    return Mapping.from_correspondences(
        *names, [(a, b, 0.5) for a, b in
                 _candidates(domain, range_, self_matching)])


class TestMappingCandidates:
    @pytest.mark.parametrize("engine", sorted(EXPLICIT_ENGINES))
    @pytest.mark.parametrize("self_matching", [False, True],
                             ids=["two-source", "self"])
    @pytest.mark.parametrize("flavor", ["trigram", "jaccard", "weighted"])
    def test_equals_its_pair_list_as_lists(self, flavor, self_matching,
                                           engine):
        """Same rows in the same order — the candidate mapping's — with
        unknown ids dropped and self-matching pairs deduplicated, first
        orientation winning, whoever scores the slices."""
        domain = _pubs("L", 30)
        range_ = domain if self_matching else _pubs("R", 26, step=2)
        candidates = _candidate_mapping(domain, range_, self_matching)
        pairs = list(candidates.id_pairs())
        assert ("nope", range_.ids()[0]) in pairs
        if self_matching:
            assert any((b, a) in pairs for a, b in pairs if a != b)
            assert any(a == b for a, b in pairs)
        expected = EXPLICIT_ENGINES["serial"].execute(
            _request(flavor, domain, range_, "skip", candidates=pairs))
        assert EXPLICIT_ENGINES["serial"].last_profile["path"] == "indexed"
        assert len(expected) > 20
        for form in (candidates, candidates.copy()):  # dicts, columns
            mapping = EXPLICIT_ENGINES[engine].execute(
                _request(flavor, domain, range_, "skip", candidates=form))
            assert list(mapping) == list(expected)
            profile = EXPLICIT_ENGINES[engine].last_profile
            assert profile["path"] == "rows" and profile["chunks"] > 4

    def test_rows_are_scored_in_the_mappings_row_order(self):
        domain, range_ = _pubs("L", 12), _pubs("R", 12, step=2)
        rows = [(a, b, 1.0) for a in reversed(domain.ids())
                for b in range_.ids()[:3]]
        candidates = Mapping.from_correspondences(domain.name, range_.name,
                                                  rows)
        mapping = EXPLICIT_ENGINES["serial"].execute(
            _request("trigram", domain, range_, "zero", candidates=candidates))
        scored = [(a, b) for a, b, _ in mapping]
        assert len(scored) > 10
        assert scored == [(a, b) for a, b, _ in rows if (a, b) in set(scored)]

    def test_a_mapping_declared_under_other_names_compares_by_id(self):
        domain, range_ = _pubs("L", 20), _pubs("R", 20, step=2)
        own = _candidate_mapping(domain, range_, False)
        foreign = _candidate_mapping(domain, range_, False,
                                     names=("Elsewhere.X", "Elsewhere.Y"))
        run = EXPLICIT_ENGINES["serial"].execute
        assert list(run(_request("trigram", domain, range_, "skip",
                                 candidates=foreign))) == \
            list(run(_request("trigram", domain, range_, "skip",
                              candidates=own)))

    def test_a_subset_against_its_source_is_self_matching(self):
        """Two source objects, one name, one id space: ``(b, a)`` first
        shadows ``(a, b)`` even where only the latter has rows."""
        full = _pubs("L", 16)
        part = full.subset(full.ids()[:8])
        inside, outside = full.ids()[2], full.ids()[12]
        rows = [(outside, inside, 1.0), (inside, outside, 1.0),
                (inside, full.ids()[5], 1.0), (inside, inside, 1.0)]
        candidates = Mapping.from_correspondences(part.name, full.name, rows)
        run = EXPLICIT_ENGINES["serial"].execute
        mapping = run(_request("trigram", part, full, "zero",
                               candidates=candidates))
        assert list(mapping) == list(run(_request(
            "trigram", part, full, "zero",
            candidates=[(a, b) for a, b, _ in rows])))
        assert {(a, b) for a, b, _ in mapping} == {
            (inside, full.ids()[5]), (full.ids()[5], inside)}

    def test_matchers_and_workflow_steps_pass_a_mapping_through(self):
        domain, range_ = _pubs("L", 20), _pubs("R", 20, step=2)
        candidates = _candidate_mapping(domain, range_, False)
        pairs = list(candidates.id_pairs())
        for matcher in (
                AttributeMatcher("title", similarity="trigram"),
                MultiAttributeMatcher(
                    [AttributePair("title", similarity="trigram"),
                     AttributePair("year", similarity="year")],
                    combine="avg")):
            expected = list(matcher.match(domain, range_, candidates=pairs))
            assert expected
            assert list(matcher.match(domain, range_,
                                      candidates=candidates)) == expected
            context = MatchContext(sources={domain.name: domain,
                                            range_.name: range_})
            workflow = MatchWorkflow("fig11") \
                .add_select("confine", candidates) \
                .add_matcher("by-object", matcher, domain.name, range_.name,
                             candidates=candidates) \
                .add_matcher("by-name", matcher, domain.name, range_.name,
                             candidates="confine")
            assert list(workflow.run(context)) == expected
            assert list(context.resolve_mapping("by-object")) == expected

    def test_neighborhood_matcher_is_confined_by_a_mapping(self):
        asso1 = Mapping.from_correspondences(
            "N.Pub", "N.Author", [("p1", "x", 1.0), ("p2", "y", 1.0)],
            kind=MappingKind.ASSOCIATION)
        same = Mapping.from_correspondences(
            "N.Author", "M.Author", [("x", "u", 1.0), ("y", "v", 1.0)])
        asso2 = Mapping.from_correspondences(
            "M.Author", "M.Pub", [("u", "q1", 1.0), ("v", "q2", 1.0)],
            kind=MappingKind.ASSOCIATION)
        domain = LogicalSource(PhysicalSource("N"), ObjectType("Pub"))
        range_ = LogicalSource(PhysicalSource("M"), ObjectType("Pub"))
        matcher = NeighborhoodMatcher(asso1, same, asso2)
        full = matcher.match(domain, range_)
        assert {(a, b) for a, b, _ in full} == {("p1", "q1"), ("p2", "q2")}
        for names in (("N.Pub", "M.Pub"), ("Else.A", "Else.B")):
            allowed = Mapping.from_correspondences(
                *names, [("p2", "q2", 0.1), ("p1", "q2", 0.1)])
            confined = matcher.match(domain, range_, candidates=allowed)
            assert list(confined) == [row for row in full
                                      if row[0] == "p2"]
            assert list(confined) == list(matcher.match(
                domain, range_, candidates=[("p2", "q2"), ("p1", "q2")]))


# ----------------------------------------------------------------------
# (c) sharded == serial, as lists
# ----------------------------------------------------------------------

ALL_BLOCKINGS = {
    "cross-default": None,
    "FullCross": FullCross(),
    "KeyBlocking": KeyBlocking(),
    "TokenBlocking": TokenBlocking(max_df=0.5),  # overlapping blocks
    # one dominant block
    "KeyBlocking-dominant": KeyBlocking(key=reference_blocks.dominant_key),
    # blocks over the caps dropped
    "TokenBlocking-df": TokenBlocking(max_df=0.3, max_block_size=6),
}
CUTS = {
    "serial": dict(workers=1),
    "sharded": dict(workers=2),
}
MATCHERS = {
    "trigram": lambda blocking, engine: AttributeMatcher(
        "title", similarity="trigram", threshold=0.4, blocking=blocking,
        engine=engine),
    "jaccard": lambda blocking, engine: AttributeMatcher(
        "title", similarity="jaccard", threshold=0.3, blocking=blocking,
        engine=engine),
    # a scalar column in a composed kernel: self-matching takes the
    # orientation-faithful converted chunks, not the block expansion
    "weighted": lambda blocking, engine: MultiAttributeMatcher(
        [AttributePair("title", similarity="trigram"),
         AttributePair("venue", similarity="tfidf", weight=2.0),
         AttributePair("year", similarity="year", weight=0.5)],
        combine="weighted", threshold=0.4, blocking=blocking, engine=engine),
}


class TestWhoCutsNeverShows:
    # 1: every block is a slice of its own; 7: most token blocks are
    # joined and a join ends mid-way through the block list; 4096:
    # more than the request holds, everything is one slice
    @pytest.mark.parametrize("chunk_size", [1, 7, 4096])
    @pytest.mark.parametrize("self_matching", [False, True],
                             ids=["two-source", "self"])
    @pytest.mark.parametrize("flavor", sorted(MATCHERS))
    @pytest.mark.parametrize("blocking", sorted(ALL_BLOCKINGS))
    def test_same_list_whoever_cuts(self, dataset, blocking, flavor,
                                    self_matching, chunk_size):
        pubs = dataset.dblp.publications
        domain = pubs.subset(pubs.ids()[:30])
        range_ = domain if self_matching else \
            dataset.acm.publications.subset(
                dataset.acm.publications.ids()[:26])
        lists = {}
        for name, cut in CUTS.items():
            engine = BatchMatchEngine(EngineConfig(
                chunk_size=chunk_size, profile=True, **cut))
            lists[name] = list(MATCHERS[flavor](
                ALL_BLOCKINGS[blocking], engine).match(domain, range_))
            whole_shards = bool(engine.last_profile["shard_seconds"])
            assert whole_shards == (name == "sharded")
        assert lists["serial"]
        for name in CUTS:
            assert lists[name] == lists["serial"], name

    def test_a_block_larger_than_chunk_size_is_cut_into_views(self):
        domain, range_ = _pubs("L", 20), _pubs("R", 15, step=2)
        engine = BatchMatchEngine(EngineConfig(chunk_size=8, profile=True))
        mapping = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.3, engine=engine,
                                   ).match(domain, range_)
        assert engine.last_profile["chunk_items"] == [8] * 37 + [4]
        pooled = AttributeMatcher(
            "title", similarity="trigram", threshold=0.3,
            engine=BatchMatchEngine(EngineConfig(workers=2, chunk_size=8)),
        ).match(domain, range_)
        assert list(pooled) == list(mapping)


class TestSlices:
    """``ShardRunner.slices`` on block shards: ``chunk_size`` changes
    how many calls score the rows, never which rows or in what order."""

    def _runner(self, chunk_size, n=40):
        source = _pubs("S", n)
        request = _request("trigram", source, source, "skip")
        engine = BatchMatchEngine(EngineConfig(chunk_size=chunk_size))
        return engine._prepare(request, ()), source

    @staticmethod
    def _shard(source, blocks) -> BlockShard:
        """``(start_a, count_a, start_b, count_b, triangle)`` blocks over
        ``source``'s rows, a self-match's shard."""
        rows = np.arange(len(source), dtype=np.int32)
        return BlockShard(pair_generator.BlockBatch(
            rows, rows, np.array(blocks, dtype=np.int64)), (source, source))

    @staticmethod
    def _expanded(runner, shard):
        return reference_blocks.expanded(
            reference_blocks.id_blocks(shard), runner.domain.index,
            runner.range.index)

    @staticmethod
    def _flat(slices):
        return tuple(
            np.concatenate([piece[side] for piece in slices]).tolist()
            for side in (0, 1))

    @pytest.mark.parametrize("chunk_size", [1, 5, 16, 17, 1000])
    def test_slices_keep_every_row_in_order(self, chunk_size):
        runner, source = self._runner(chunk_size)
        # triangles of 1..9 ids (0..36 pairs) and 2x3 rectangles:
        # slices end before, on and after block boundaries
        blocks = [(i, 1 + i % 9, i, 1 + i % 9, 1) for i in range(30)]
        blocks[4:4] = [(0, 2, 5, 3, 0)] * 3
        shard = self._shard(source, blocks)
        slices = list(runner.slices(shard))
        expected = self._expanded(runner, shard)
        assert self._flat(slices) == expected
        assert all(len(rows_a) == chunk_size for rows_a, _ in slices[:-1])
        assert len(slices) == -(-len(expected[0]) // chunk_size)

    def test_a_slice_never_spans_two_expansion_steps(self, monkeypatch):
        monkeypatch.setattr(pair_generator, "EXPAND_ROWS", 50)
        runner, source = self._runner(chunk_size=40)
        # 28 pairs each
        shard = self._shard(source, [(i, 8, i, 8, 1) for i in range(12)])
        slices = list(runner.slices(shard))
        # 336 rows in steps of 50, each cut into views of 40
        assert [len(rows_a) for rows_a, _ in slices] == \
            [40, 10] * 6 + [36]
        assert self._flat(slices) == self._expanded(runner, shard)

    def test_run_is_gather_of_scored_slices(self):
        runner, source = self._runner(chunk_size=16)
        runner.shards = [self._shard(
            source, [(i, 6, i, 6, 1) for i in range(0, 36, 3)])]
        rows, whole, calls = runner.run(0)
        items = list(runner.slices(runner.shards[0]))
        parts = [runner.score(*item) for item in items]
        assert len(parts) > 1
        assert rows == sum(len(rows_a) for rows_a, _ in items)
        assert calls == len(parts)
        for got, expected in zip(whole, runner.gather(parts)):
            assert got.tolist() == expected.tolist()
        assert len(whole[2]) > 0
        # nothing to gather: empty columns, not an error
        assert [len(column) for column in runner.gather([])] == [0, 0, 0]
