"""Tests for the parallel batch match engine (``repro.engine``).

The load-bearing guarantee is *execution equivalence*: chunked,
cached, parallel scoring must produce byte-identical mappings to
serial one-pair-at-a-time evaluation, for every matcher flavor and
blocking strategy.  The property test drives that over randomized
sources; the seed-scenario tests pin it on the deterministic datagen
world the rest of the suite uses.
"""

from __future__ import annotations

import pytest
from config_contract import contract_faults
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_blocks import dominant_key
from reference_scorer import ChunkScorer

from repro import AttributeMatcher, AttributePair, MultiAttributeMatcher
from repro.blocking import FullCross, KeyBlocking, TokenBlocking
from repro.core.workflow import MatchContext, MatchWorkflow
from repro.engine import (
    AttributeSpec,
    BatchMatchEngine,
    EngineConfig,
    MatchRequest,
    columns,
    iter_chunks,
    vectorized,
)
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.base import SimilarityFunction
from repro.sim.ngram import JaccardNGram, NGramSimilarity, TrigramSimilarity
from repro.sim.registry import available_similarities, get_similarity
from repro.sim.tfidf import SoftTfIdfSimilarity, TfIdfCosineSimilarity

PARALLEL = BatchMatchEngine(EngineConfig(workers=4, chunk_size=64))
SERIAL = BatchMatchEngine(EngineConfig(workers=1, chunk_size=64))
SHARDED = BatchMatchEngine(EngineConfig(workers=4, chunk_size=64))
#: inline, in slices that cut across the serial engine's
SLICED = BatchMatchEngine(EngineConfig(workers=1, chunk_size=7))


def _source(name: str, titles, years=None) -> LogicalSource:
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for index, title in enumerate(titles):
        year = None if years is None else years[index % len(years)]
        source.add_record(f"{name.lower()}{index}", title=title, year=year)
    return source


# ----------------------------------------------------------------------
# chunked streaming
# ----------------------------------------------------------------------

class TestIterChunks:
    def test_partitions_without_loss_or_overlap(self):
        items = list(range(25))
        chunks = list(iter_chunks(items, 8))
        assert [len(c) for c in chunks] == [8, 8, 8, 1]
        assert [x for chunk in chunks for x in chunk] == items

    def test_exact_multiple_has_no_empty_tail(self):
        assert [len(c) for c in iter_chunks(range(16), 8)] == [8, 8]

    def test_empty_iterable_yields_nothing(self):
        assert list(iter_chunks([], 4)) == []

    def test_rejects_non_positive_chunk_size(self):
        with pytest.raises(ValueError):
            next(iter_chunks([1], 0))

    def test_streams_lazily(self):
        pulled = []

        def generator():
            for i in range(100):
                pulled.append(i)
                yield i

        chunks = iter_chunks(generator(), 10)
        next(chunks)
        # only the first chunk (plus nothing beyond it) was pulled
        assert len(pulled) == 10

    @pytest.mark.parametrize("blocking", [
        FullCross(),
        KeyBlocking(),
        TokenBlocking(max_df=1.0),
        TokenBlocking(max_df=0.5),
        KeyBlocking(key=dominant_key),
    ], ids=["FullCross", "KeyBlocking", "TokenBlocking",
            "TokenBlocking-overlap", "KeyBlocking-dominant"])
    def test_chunked_stream_covers_each_blocking_strategy(self, blocking):
        domain = _source("L", [f"alpha beta {i}xx" for i in range(12)])
        range_ = _source("R", [f"alpha beta {i}xx" for i in range(12)])
        full = list(blocking.candidates(domain, range_,
                                        domain_attribute="title",
                                        range_attribute="title"))
        chunks = list(iter_chunks(
            blocking.candidates(domain, range_,
                                domain_attribute="title",
                                range_attribute="title"), 7))
        assert all(len(chunk) <= 7 for chunk in chunks)
        assert [pair for chunk in chunks for pair in chunk] == full


# ----------------------------------------------------------------------
# serial == parallel (property + seed scenarios)
# ----------------------------------------------------------------------

_titles = st.lists(
    st.text(alphabet="abcdefg ", min_size=0, max_size=12),
    min_size=0, max_size=12)


class TestSerialParallelEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(domain_titles=_titles, range_titles=_titles,
           threshold=st.sampled_from([0.0, 0.3, 0.7]))
    def test_property_identical_mappings(self, domain_titles, range_titles,
                                         threshold):
        domain = _source("L", domain_titles)
        range_ = _source("R", range_titles)
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=threshold, engine=SERIAL)
        parallel = AttributeMatcher("title", similarity="trigram",
                                    threshold=threshold, engine=PARALLEL)
        assert serial.match(domain, range_).to_rows() == \
            parallel.match(domain, range_).to_rows()

    def test_seed_scenario_single_attribute(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.4, engine=SERIAL)
        parallel = AttributeMatcher("title", similarity="trigram",
                                    threshold=0.4, engine=PARALLEL)
        rows = serial.match(dblp, acm).to_rows()
        assert rows == parallel.match(dblp, acm).to_rows()
        assert rows  # the scenario is non-trivial

    def test_seed_scenario_multi_attribute(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        pairs = [AttributePair("title", similarity="tfidf"),
                 AttributePair("year", similarity="year", weight=0.5)]
        serial = MultiAttributeMatcher(
            [AttributePair("title", similarity="tfidf"),
             AttributePair("year", similarity="year", weight=0.5)],
            combine="weighted", threshold=0.3, engine=SERIAL)
        parallel = MultiAttributeMatcher(pairs, combine="weighted",
                                         threshold=0.3, engine=PARALLEL)
        assert serial.match(dblp, acm).to_rows() == \
            parallel.match(dblp, acm).to_rows()

    def test_seed_scenario_self_mapping(self, dataset):
        gs = dataset.gs.publications
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.7, engine=SERIAL)
        parallel = AttributeMatcher("title", similarity="trigram",
                                    threshold=0.7, engine=PARALLEL)
        rows = serial.match(gs, gs).to_rows()
        assert rows == parallel.match(gs, gs).to_rows()
        # self-mappings stay symmetric through the parallel merge
        mapping = parallel.match(gs, gs)
        for domain_id, range_id, similarity in mapping.to_rows():
            assert mapping.get(range_id, domain_id) == similarity

    def test_seed_scenario_with_blocking(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        blocking = TokenBlocking(max_df=0.5)
        serial = AttributeMatcher("title", similarity="trigram", threshold=0.4,
                                  blocking=blocking, engine=SERIAL)
        parallel = AttributeMatcher("title", similarity="trigram",
                                    threshold=0.4, blocking=blocking,
                                    engine=PARALLEL)
        assert serial.match(dblp, acm).to_rows() == \
            parallel.match(dblp, acm).to_rows()

    def test_explicit_candidate_list_respected(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        candidates = [(a, b) for a in dblp.ids()[:20] for b in acm.ids()[:20]]
        matcher = AttributeMatcher("title", similarity="trigram",
                                   engine=PARALLEL)
        mapping = matcher.match(dblp, acm, candidates=candidates)
        allowed = set(candidates)
        assert all((a, b) in allowed for a, b, _ in mapping.to_rows())


# ----------------------------------------------------------------------
# serial == sharded (candidate generation inside the workers)
# ----------------------------------------------------------------------

ALL_BLOCKINGS = [
    None,  # full cross product
    FullCross(),
    KeyBlocking(),
    TokenBlocking(max_df=0.5),  # overlapping blocks
    KeyBlocking(key=dominant_key),  # one dominant block
    TokenBlocking(max_df=0.3, max_block_size=6),  # blocks dropped
]
BLOCKING_IDS = ["cross-default", "FullCross", "KeyBlocking",
                "TokenBlocking", "KeyBlocking-dominant", "TokenBlocking-df"]


def _weighted(blocking, engine):
    return MultiAttributeMatcher(
        [AttributePair("title", similarity="trigram"),
         AttributePair("venue", similarity="tfidf", weight=2.0),
         AttributePair("year", similarity="year", weight=0.5)],
        combine="weighted", threshold=0.4, blocking=blocking, engine=engine)


#: fresh matcher (and similarity objects) per run, like a workflow's
#: matchers: what is shared between runs is shared through the sources
PREPARED_MATCHERS = {
    "trigram": lambda blocking, engine: AttributeMatcher(
        "title", similarity="trigram", threshold=0.4, blocking=blocking,
        engine=engine),
    "tfidf": lambda blocking, engine: AttributeMatcher(
        "title", similarity="tfidf", threshold=0.3, blocking=blocking,
        engine=engine),
    "weighted": _weighted,
}
PREPARED_ENGINES = {
    "streamed": SERIAL,
    "sharded-2": BatchMatchEngine(EngineConfig(workers=2, chunk_size=64)),
    "sharded-4": BatchMatchEngine(EngineConfig(workers=4, chunk_size=64)),
}


def _twin(instance):
    """A near-duplicate of ``instance`` under a new id."""
    from repro.model.entity import ObjectInstance
    return ObjectInstance(instance.id + "-twin", dict(instance.attributes))


def _derived_keys(source):
    """Every tuple key in ``source``'s memo, partner-scoped ones included."""
    keys = []
    for key, value in source._derived.items():
        if isinstance(key, tuple):
            keys.append(key)
        else:  # the partner table: partner -> (version, entries)
            keys.extend(k for _, entries in value.values() for k in entries)
    return keys


def _similarities(matcher):
    if isinstance(matcher, AttributeMatcher):
        return [matcher.similarity]
    return [pair.similarity for pair in matcher.pairs]


def _reachable(root):
    """Every container / object reachable from ``root`` (leaf values,
    classes and source instances excluded)."""
    import gc
    import types

    from repro.model.entity import ObjectInstance
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (str, int, float, type, types.ModuleType,
                      types.FunctionType, ObjectInstance)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


class TestSerialShardedEquivalence:
    """Sharded execution must be byte-identical to serial execution
    for every blocking strategy, in every worker-side scoring mode
    (block-vectorized q-gram kernel, row-converted pair stream, and
    the generic chunk scorer)."""

    @pytest.mark.parametrize("blocking", ALL_BLOCKINGS, ids=BLOCKING_IDS)
    @pytest.mark.parametrize("engine", [SHARDED, SLICED],
                             ids=["pool", "sliced"])
    def test_vectorized_kernel_path(self, dataset, blocking, engine):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.4, blocking=blocking,
                                  engine=SERIAL)
        sharded = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.4, blocking=blocking,
                                   engine=engine)
        rows = serial.match(dblp, acm).to_rows()
        assert rows == sharded.match(dblp, acm).to_rows()
        assert rows  # the scenario is non-trivial

    @pytest.mark.parametrize("blocking", ALL_BLOCKINGS, ids=BLOCKING_IDS)
    def test_chunk_scorer_path(self, dataset, blocking):
        """levenshtein has no vector kernel (tfidf gained the sparse
        one), forcing the generic scorer mode."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="levenshtein",
                                  threshold=0.3, blocking=blocking,
                                  engine=SERIAL)
        sharded = AttributeMatcher("title", similarity="levenshtein",
                                   threshold=0.3, blocking=blocking,
                                   engine=SHARDED)
        assert serial.match(dblp, acm).to_rows() == \
            sharded.match(dblp, acm).to_rows()

    @pytest.mark.parametrize("blocking", ALL_BLOCKINGS, ids=BLOCKING_IDS)
    def test_self_matching(self, dataset, blocking):
        gs = dataset.gs.publications
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.7, blocking=blocking,
                                  engine=SERIAL)
        sharded = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.7, blocking=blocking,
                                   engine=SHARDED)
        rows = serial.match(gs, gs).to_rows()
        assert rows == sharded.match(gs, gs).to_rows()
        # self-mappings stay symmetric through the sharded merge
        mapping = sharded.match(gs, gs)
        for domain_id, range_id, similarity in mapping.to_rows():
            assert mapping.get(range_id, domain_id) == similarity

    def test_multi_attribute(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        pairs = [AttributePair("title", similarity="tfidf"),
                 AttributePair("year", similarity="year", weight=0.5)]
        serial = MultiAttributeMatcher(pairs, combine="weighted",
                                       threshold=0.3,
                                       blocking=TokenBlocking(max_df=0.5),
                                       engine=SERIAL)
        sharded = MultiAttributeMatcher(pairs, combine="weighted",
                                        threshold=0.3,
                                        blocking=TokenBlocking(max_df=0.5),
                                        engine=SHARDED)
        assert serial.match(dblp, acm).to_rows() == \
            sharded.match(dblp, acm).to_rows()

    def test_explicit_candidates_shard_by_the_chunk(self, dataset):
        """With workers, an explicit candidate list is planned as its
        ``chunk_size`` runs, each a pool task, and still honored."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        candidates = [(a, b) for a in dblp.ids()[:15] for b in acm.ids()[:15]]
        engine = BatchMatchEngine(EngineConfig(
            workers=4, chunk_size=64, profile=True))
        matcher = AttributeMatcher("title", similarity="trigram",
                                   engine=engine)
        mapping = matcher.match(dblp, acm, candidates=candidates)
        allowed = set(candidates)
        assert all((a, b) in allowed for a, b, _ in mapping.to_rows())
        profile = engine.profile_summary()
        assert profile["path"] == "sharded"
        assert profile["shards"] == 4  # 225 pairs by 64
        assert profile["kernel_calls"] == 4 and profile["chunks"] == 0
        assert list(mapping) == list(AttributeMatcher(
            "title", similarity="trigram", engine=SERIAL,
        ).match(dblp, acm, candidates=candidates))

    def test_foreign_blocking_object_falls_back(self, dataset):
        """A blocking object without the shards protocol still works
        through the streamed path."""
        class BareBlocking:
            def candidates(self, domain, range, *, domain_attribute,
                           range_attribute):
                for id_a in domain.ids()[:10]:
                    for id_b in range.ids()[:10]:
                        yield id_a, id_b

        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.4, blocking=BareBlocking(),
                                  engine=SERIAL)
        sharded = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.4, blocking=BareBlocking(),
                                   engine=SHARDED)
        assert serial.match(dblp, acm).to_rows() == \
            sharded.match(dblp, acm).to_rows()

    def test_subclass_without_shards_override_is_scored_inline(
            self, dataset, monkeypatch):
        """A PairGenerator subclass that only overrides candidates()
        cannot shard: its stream is one shard, cut and scored inline,
        not a pool task."""
        from repro.blocking.pair_generator import PairGenerator
        from repro.engine import shards as shards_module

        class CandidatesOnly(PairGenerator):
            def candidates(self, domain, range, *, domain_attribute,
                           range_attribute):
                for id_a in domain.ids()[:10]:
                    for id_b in range.ids()[:10]:
                        yield id_a, id_b

        assert not shards_module.shards_authoritative(CandidatesOnly())
        installed = []
        monkeypatch.setattr(
            shards_module.ShardRunner, "run",
            lambda runner, index: installed.append(runner))
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="tfidf",
                                  threshold=0.4, blocking=CandidatesOnly(),
                                  engine=SERIAL)
        pooled = BatchMatchEngine(EngineConfig(
            workers=4, chunk_size=16, profile=True))
        sharded = AttributeMatcher("title", similarity="tfidf",
                                   threshold=0.4, blocking=CandidatesOnly(),
                                   engine=pooled)
        assert serial.match(dblp, acm).to_rows() == \
            sharded.match(dblp, acm).to_rows()
        assert not installed  # the sharded orchestration never engaged
        profile = pooled.profile_summary()
        assert profile["path"] == "indexed" and profile["shards"] == 0
        assert profile["chunks"] == -(-100 // 16)

    def test_subclass_overriding_candidates_invalidates_inherited_shards(
            self, dataset):
        """Inherited shards() describing the parent's pair set must not
        be used when candidates() was overridden below it — the sharded
        run would score pairs serial execution never generates."""
        class FilteredTokenBlocking(TokenBlocking):
            def candidates(self, domain, range, *, domain_attribute,
                           range_attribute):
                for id_a, id_b in super().candidates(
                        domain, range, domain_attribute=domain_attribute,
                        range_attribute=range_attribute):
                    if hash((id_a, id_b)) % 2:
                        yield id_a, id_b

        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        blocking = FilteredTokenBlocking(max_df=0.5)
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.4, blocking=blocking,
                                  engine=SERIAL)
        sharded = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.4, blocking=blocking,
                                   engine=SHARDED)
        assert serial.match(dblp, acm).to_rows() == \
            sharded.match(dblp, acm).to_rows()

    def test_spawn_only_platform_plans_the_same_shards(
            self, dataset, monkeypatch, recwarn):
        """The plan does not ask for ``fork``: without it the shards
        are still the pool tasks, and the pool pickles the runner to
        its workers or, where it cannot, runs inline with a warning —
        the rows are the serial engine's either way."""
        import multiprocessing

        from repro.engine.request import AttributeSpec as Spec

        dblp, acm = dataset.dblp.publications, dataset.acm.publications

        def request():
            return MatchRequest(
                domain=dblp, range=acm,
                specs=[Spec("title", "title", TrigramSimilarity())],
                threshold=0.4, blocking=TokenBlocking(max_df=0.5))

        forked = [shard.cost() for shard in SHARDED._plan(request())[0]]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        shards, sharded = SHARDED._plan(request())
        assert sharded and [shard.cost() for shard in shards] == forked
        engine = BatchMatchEngine(EngineConfig(
            workers=2, chunk_size=64, profile=True))
        rows = engine.execute(request()).to_rows()
        assert rows == SERIAL.execute(request()).to_rows()
        assert engine.last_profile["path"] == "sharded"
        assert all(w.category is RuntimeWarning for w in recwarn)

    @settings(max_examples=10, deadline=None)
    @given(domain_titles=_titles, range_titles=_titles,
           threshold=st.sampled_from([0.0, 0.3, 0.7]))
    def test_property_identical_mappings(self, domain_titles, range_titles,
                                         threshold):
        domain = _source("L", domain_titles)
        range_ = _source("R", range_titles)
        blocking = TokenBlocking(max_df=1.0)
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=threshold, blocking=blocking,
                                  engine=SERIAL)
        sharded = AttributeMatcher("title", similarity="trigram",
                                   threshold=threshold, blocking=blocking,
                                   engine=SHARDED)
        assert serial.match(domain, range_).to_rows() == \
            sharded.match(domain, range_).to_rows()

    # -- prepared state on the sources: cold == warm == grown == fresh --

    @pytest.mark.parametrize("engine", sorted(PREPARED_ENGINES))
    @pytest.mark.parametrize("self_matching", [False, True],
                             ids=["two-source", "self"])
    @pytest.mark.parametrize("flavor", sorted(PREPARED_MATCHERS))
    @pytest.mark.parametrize("blocking", ALL_BLOCKINGS, ids=BLOCKING_IDS)
    def test_prepared_state_never_changes_rows(self, dataset, blocking,
                                               flavor, self_matching,
                                               engine):
        """What the sources keep between requests (posting lists,
        packed columns) is invisible in the rows: a cold run, a warm
        run and runs after either source grew all equal a serial run
        over brand-new source objects, row list for row list."""
        make = PREPARED_MATCHERS[flavor]

        def rows(domain, range_, on=PREPARED_ENGINES[engine]):
            return make(blocking, on).match(domain, range_).to_rows()

        def fresh(*sources):
            copies = [source.subset(source.ids()) for source in sources]
            return copies[0], copies[-1]

        pubs = dataset.dblp.publications
        domain = pubs.subset(pubs.ids()[:45])
        range_ = domain if self_matching else \
            dataset.acm.publications.subset(
                dataset.acm.publications.ids()[:40])
        cold = rows(domain, range_)
        assert cold == rows(*fresh(domain, range_), on=SERIAL)
        assert cold
        builds = domain.derived_builds + range_.derived_builds
        assert rows(domain, range_) == cold
        # the warm run found everything it looked up
        assert domain.derived_builds + range_.derived_builds == builds
        first, later = pubs.ids()[0], pubs.ids()[50]
        for grown, twin in ((range_, first), (domain, later)):
            grown.add(_twin(pubs.require(twin)))
            after = rows(domain, range_)
            assert after == rows(*fresh(domain, range_), on=SERIAL)
            # the record that arrived after the state was built is seen
            assert (first, first + "-twin") in {(a, b) for a, b, _ in after}

    def test_shared_similarity_object_stays_off_the_memo(self, dataset,
                                                         scalar_engine):
        """Two specs sharing one TF/IDF instance score with its last
        corpus — in the kernel as in the scalar reference; no per-spec
        memo key describes that."""
        dblp, acm = (source.subset(source.ids()) for source in
                     (dataset.dblp.publications, dataset.acm.publications))
        for config in (dict(), dict(workers=2)):
            engine = BatchMatchEngine(EngineConfig(
                chunk_size=64, profile=True, **config))
            shared = TfIdfCosineSimilarity()
            matcher = MultiAttributeMatcher(
                [AttributePair("title", similarity=shared),
                 AttributePair("venue", similarity=shared)],
                combine="avg", threshold=0.3,
                blocking=TokenBlocking(max_df=0.5), engine=engine)
            mapping = matcher.match(dblp, acm)
            rows = mapping.to_rows()
            assert rows
            assert engine.profile_summary()["path"] == (
                "sharded" if config else "indexed")
            assert not any(key[0] == "bound-column"
                           for key in _derived_keys(dblp))  # nothing kept
            candidates = [(a, b) for a, b, _ in rows]
            confined = matcher.match(dblp, acm, candidates=candidates)
            assert confined.to_rows() == rows
            matcher.engine = scalar_engine
            assert list(matcher.match(dblp, acm)) == list(mapping)

    def test_duplicate_survivors_reach_the_merge_once(self):
        """A candidate list may repeat a pair (blocking's repeats never
        reach the kernel, a list's do); every copy survives scoring,
        and the merge must see each surviving pair exactly once."""
        words = "adaptive query processing over streaming sensor data"
        domain = _source("L", [f"{words} part{i}" for i in range(12)])
        range_ = _source("R", [f"{words} vol{i}" for i in range(12)])
        candidates = [(id_a, id_b) for id_a in domain.ids()
                      for id_b in range_.ids()] * 5
        engine = BatchMatchEngine(EngineConfig(
            workers=2, chunk_size=64, profile=True))
        mapping = AttributeMatcher(
            "title", similarity="trigram", threshold=0.5, engine=engine,
        ).match(domain, range_, candidates=candidates)
        profile = engine.profile_summary()
        assert len(mapping) == 12 * 12
        assert profile["merged_rows"] == len(mapping)
        assert profile["survivor_rows"] == 5 * len(mapping)
        serial = AttributeMatcher(
            "title", similarity="trigram", threshold=0.5, engine=SERIAL,
        ).match(domain, range_, candidates=candidates)
        # same rows in the same insertion order, not just the same set
        assert list(mapping) == list(serial)

    @pytest.mark.parametrize("flavor", sorted(PREPARED_MATCHERS))
    def test_sources_keep_arrays_not_per_string_state(self, dataset, flavor):
        """The memory rule: forked workers map every retained parent
        byte too, so the memo may hold posting lists, id tables and
        numpy state — never gram sets or TF/IDF weight dicts."""
        dblp, acm = (source.subset(source.ids()) for source in
                     (dataset.dblp.publications, dataset.acm.publications))
        matcher = PREPARED_MATCHERS[flavor](TokenBlocking(max_df=0.5),
                                            SERIAL)
        assert matcher.match(dblp, acm).to_rows()
        assert any(key[0] == "bound-column" for key in _derived_keys(dblp))
        kept = list(_reachable(dblp._derived))
        assert any(type(obj).__name__ == "ndarray" for obj in kept)
        for obj in kept:
            assert not isinstance(obj, frozenset)
            if isinstance(obj, dict):
                assert not any(isinstance(value, float)
                               for value in obj.values()), obj
        # and the similarity that packed is left prepared but unburdened
        # (per string a similarity may keep TF/IDF vectors only; gram
        # sets are the process memo's, repro.sim.tokenize)
        for spec_similarity in _similarities(matcher):
            state = dict(vars(spec_similarity))
            assert not state.pop("_vector_cache", None)
            state.pop("_idf", None)  # corpus statistics
            assert not any(isinstance(value, (dict, list, set, frozenset))
                           for value in state.values()), state


# ----------------------------------------------------------------------
# engine internals
# ----------------------------------------------------------------------

#: keyword sets ``EngineConfig`` rejects
BAD_ENGINE_VALUES = [{"workers": 0}, {"chunk_size": 0}]


class TestEngineConfig:
    def test_defaults_are_serial(self):
        config = EngineConfig()
        assert config.workers == 1
        assert config.chunk_size == 8192

    @pytest.mark.parametrize("kwargs", BAD_ENGINE_VALUES)
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_every_field_is_checked_settable_and_documented(self):
        # the engine flags are global: any subcommand's parse sets them
        assert contract_faults(EngineConfig, "stats", "docs/engine.md",
                               BAD_ENGINE_VALUES, free_form={}) == []


class TestMatchRequest:
    def test_requires_specs(self, dataset):
        dblp = dataset.dblp.publications
        with pytest.raises(ValueError):
            MatchRequest(domain=dblp, range=dblp, specs=[])

    def test_multi_spec_requires_combiner(self, dataset):
        dblp = dataset.dblp.publications
        specs = [AttributeSpec("title", "title", TrigramSimilarity()),
                 AttributeSpec("year", "year", TrigramSimilarity())]
        with pytest.raises(ValueError):
            MatchRequest(domain=dblp, range=dblp, specs=specs)


class TestChunkScorerCaching:
    def test_duplicate_value_pairs_score_once(self):
        class CountingSim(SimilarityFunction):
            name = "counting"
            calls = 0

            def _score(self, a: str, b: str) -> float:
                type(self).calls += 1
                return 1.0 if a == b else 0.5

        domain = _source("L", ["same title"] * 6)
        range_ = _source("R", ["same title"] * 6)
        sim = CountingSim()
        request = MatchRequest(
            domain=domain, range=range_,
            specs=[AttributeSpec("title", "title", sim)])
        scorer = ChunkScorer(request)
        pairs = [(a, b) for a in domain.ids() for b in range_.ids()]
        triples = scorer.score_chunk(pairs)
        assert len(triples) == 36
        assert CountingSim.calls == 1  # 36 pairs, one distinct value pair


class TestChunkScorerCacheLimit:
    def test_tiny_cache_limit_never_loses_scores(self, dataset):
        """Regression: a memo reset must not orphan in-flight records."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        reference = AttributeMatcher("title", similarity="trigram",
                                     threshold=0.4, engine=SERIAL)
        expected = reference.match(dblp, acm).to_rows()

        request = MatchRequest(
            domain=dblp, range=acm,
            specs=[AttributeSpec("title", "title", TrigramSimilarity())],
            threshold=0.4)
        scorer = ChunkScorer(request, cache_limit=16)
        request.specs[0].similarity.prepare(
            dblp.attribute_values("title") + acm.attribute_values("title"))
        triples = []
        for chunk in iter_chunks(
                ((a, b) for a in dblp.ids() for b in acm.ids()), 64):
            triples.extend(scorer.score_chunk(chunk))
        assert sorted(triples) == expected


class TestWorkflowEngineInjection:
    def test_context_engine_reaches_matcher_step(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        matcher = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.4)
        workflow = MatchWorkflow("wired").add_matcher(
            "out", matcher, dblp.name, acm.name)

        serial_context = MatchContext(
            sources={dblp.name: dblp, acm.name: acm})
        parallel_context = MatchContext(
            sources={dblp.name: dblp, acm.name: acm}, engine=PARALLEL)
        serial_rows = workflow.run(serial_context).to_rows()
        parallel_rows = workflow.run(parallel_context).to_rows()
        assert serial_rows == parallel_rows
        # the injection is per-step: the matcher's own engine is restored
        assert matcher.engine is None

    def test_engine_config_injected_as_config(self, dataset):
        """A bare EngineConfig (e.g. asking for two workers) is
        accepted wherever an engine instance is."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        matcher = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.4,
                                   blocking=TokenBlocking(max_df=0.5))
        workflow = MatchWorkflow("wired").add_matcher(
            "out", matcher, dblp.name, acm.name,
            engine=EngineConfig(workers=2, chunk_size=64))
        serial_context = MatchContext(
            sources={dblp.name: dblp, acm.name: acm})
        sharded_rows = workflow.run(serial_context).to_rows()

        reference = AttributeMatcher("title", similarity="trigram",
                                     threshold=0.4,
                                     blocking=TokenBlocking(max_df=0.5),
                                     engine=SERIAL)
        assert sharded_rows == reference.match(dblp, acm).to_rows()
        assert matcher.engine is None


# ----------------------------------------------------------------------
# vectorized (bit-kernel) path
# ----------------------------------------------------------------------

class TestVectorizedKernel:
    @pytest.mark.parametrize("make_sim", [
        TrigramSimilarity,
        lambda: JaccardNGram(2),
        lambda: NGramSimilarity(3, method="overlap"),
    ], ids=["dice", "jaccard", "overlap"])
    def test_bit_identical_to_python_path(self, dataset, scalar_engine,
                                          make_sim):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        engine = BatchMatchEngine(EngineConfig(workers=1, chunk_size=128))
        fast = AttributeMatcher("title", similarity=make_sim(),
                                threshold=0.0, engine=engine)
        fast_rows = fast.match(dblp, acm).to_rows()

        slow = AttributeMatcher("title", similarity=make_sim(),
                                threshold=0.0, engine=scalar_engine)
        assert slow.match(dblp, acm).to_rows() == fast_rows

    def test_parallel_indexed_path_identical(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.3, engine=SERIAL)
        parallel = AttributeMatcher("title", similarity="trigram",
                                    threshold=0.3, engine=PARALLEL)
        assert serial.match(dblp, acm).to_rows() == \
            parallel.match(dblp, acm).to_rows()

    def test_subclass_with_custom_score_rides_the_scalar_column(
            self, dataset, scalar_reference):
        """An overridden ``_score`` never packs — the bit column would
        replay the base class's math — but scores on the indexed path
        like any request, through its own ``_score``."""
        class Tweaked(TrigramSimilarity):
            def _score(self, a: str, b: str) -> float:
                return min(1.0, super()._score(a, b) * 1.1)

        dblp = dataset.dblp.publications
        request = MatchRequest(
            domain=dblp, range=dblp, threshold=0.5,
            specs=[AttributeSpec("title", "title", Tweaked())])
        assert not columns.build_column(
            Tweaked(), dblp.attribute_values("title")).vectorized
        assert type(vectorized.request_kernel(request)) \
            is columns.ScalarColumn
        engine = BatchMatchEngine(EngineConfig(chunk_size=128, profile=True))
        mapping = engine.execute(request)
        assert engine.profile_summary()["path"] == "indexed"
        assert list(mapping) == list(scalar_reference(request))
        plain = MatchRequest(
            domain=dblp, range=dblp, threshold=0.5,
            specs=[AttributeSpec("title", "title", TrigramSimilarity())])
        # its own math, not the packed trigram's
        assert len(mapping) > 0
        assert list(mapping) != list(engine.execute(plain))

    def test_missing_values_score_like_python_path(self, scalar_engine):
        domain = _source("L", ["alpha beta", None, "gamma delta"])
        range_ = _source("R", ["alpha beta", "gamma delta", None])
        engine = BatchMatchEngine(EngineConfig(workers=1, chunk_size=2))
        fast = AttributeMatcher("title", similarity="trigram",
                                threshold=0.0, engine=engine)
        fast_rows = fast.match(domain, range_).to_rows()
        slow = AttributeMatcher("title", similarity="trigram",
                                threshold=0.0, engine=scalar_engine)
        assert slow.match(domain, range_).to_rows() == fast_rows


# ----------------------------------------------------------------------
# score_batch kernels
# ----------------------------------------------------------------------

class TestScoreBatch:
    PAIRS = [("data cleaning", "data cleaning in warehouses"),
             ("schema matching", "cupid schema matching"),
             ("", "empty left"), ("x", "y"), ("abc", "abc")]

    @pytest.mark.parametrize("name", available_similarities())
    def test_batch_matches_per_pair_scoring(self, name):
        sim = get_similarity(name)
        sim.prepare([a for a, _ in self.PAIRS] + [b for _, b in self.PAIRS])
        expected = [sim.similarity(a, b) for a, b in self.PAIRS]
        assert sim.score_batch(self.PAIRS) == expected


# ----------------------------------------------------------------------
# streaming pair counting
# ----------------------------------------------------------------------

class TestPairCounting:
    def test_full_cross_closed_form(self):
        domain = _source("L", [f"t{i}" for i in range(7)])
        range_ = _source("R", [f"t{i}" for i in range(5)])
        blocking = FullCross()
        assert blocking.count(domain, range_, domain_attribute="title",
                              range_attribute="title") == 35
        assert blocking.count(domain, domain, domain_attribute="title",
                              range_attribute="title") == 21  # 7 choose 2

    def test_full_cross_limit(self):
        domain = _source("L", [f"t{i}" for i in range(7)])
        blocking = FullCross()
        assert blocking.count(domain, domain, domain_attribute="title",
                              range_attribute="title", limit=4) == 4

    def test_generic_count_deduplicates_and_limits(self):
        domain = _source("L", ["alpha beta"] * 4)
        range_ = _source("R", ["alpha beta"] * 4)
        blocking = TokenBlocking(max_df=1.0)
        full = blocking.count(domain, range_, domain_attribute="title",
                              range_attribute="title")
        distinct = len(set(blocking.candidates(
            domain, range_, domain_attribute="title",
            range_attribute="title")))
        assert full == distinct == 16
        assert blocking.count(domain, range_, domain_attribute="title",
                              range_attribute="title", limit=5) == 5
