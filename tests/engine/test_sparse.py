"""Tests for the sparse TF/IDF column and sharding under skew.

Two load-bearing guarantees ride on this module:

* **column selection** — ``build_column`` must route each similarity
  function to the right column (bit column / sparse TF/IDF column /
  scalar fallback), and in particular must *never* hand SoftTFIDF's
  fuzzy math to the plain-cosine sparse column;
* **execution equivalence under skew** — serial and sharded
  execution must produce byte-identical mappings on skewed block-size
  distributions, where one shard holds most of the pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AttributeMatcher
from repro.blocking import FullCross, KeyBlocking, TokenBlocking
from repro.engine import BatchMatchEngine, EngineConfig, columns, vectorized
from repro.engine.columns import (
    NGramColumn,
    ScalarColumn,
    TfIdfColumn,
    build_column,
)
from repro.engine.request import AttributeSpec, MatchRequest
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.edit import LevenshteinSimilarity
from repro.sim.ngram import JaccardNGram, NGramSimilarity, TrigramSimilarity
from repro.sim.tfidf import SoftTfIdfSimilarity, TfIdfCosineSimilarity

SERIAL = BatchMatchEngine(EngineConfig(workers=1, chunk_size=64))
SHARDED = BatchMatchEngine(EngineConfig(workers=4, chunk_size=64))


def _source(name: str, titles) -> LogicalSource:
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for index, title in enumerate(titles):
        source.add_record(f"{name.lower()}{index}", title=title)
    return source


def _skewed_titles(count: int, skew_every: int = 2):
    """Titles whose first token is dominated by one hot key.

    Every ``skew_every``-th record starts with the same word, so
    first-token key blocking produces one block holding roughly
    ``(count / skew_every) ** 2`` of the pairs: one shard holds most
    of the request.
    """
    words = ["alpha", "beta", "gamma", "delta", "epsilon",
             "zeta", "eta", "theta"]
    titles = []
    for i in range(count):
        first = "popular" if i % skew_every == 0 else words[i % len(words)]
        tail = " ".join(words[(i + j) % len(words)] for j in range(1, 4))
        titles.append(f"{first} {tail} {i % 7}x")
    return titles


@pytest.fixture(scope="module")
def skewed_sources():
    return (_source("L", _skewed_titles(90)),
            _source("R", _skewed_titles(84)))


# ----------------------------------------------------------------------
# kernel selection
# ----------------------------------------------------------------------

class TweakedTfIdf(TfIdfCosineSimilarity):
    def _score(self, a: str, b: str) -> float:
        return min(1.0, super()._score(a, b) * 1.1)


class TweakedVector(TfIdfCosineSimilarity):
    def vector(self, text: str):
        return {token: 1.0 for token in text.split()}


class TweakedGrams(TrigramSimilarity):
    """Same ``q``/``method``/``pad`` as its base, different gram sets:
    a packed column of it must not pass for a trigram column."""

    def grams(self, text: str):
        return frozenset(text.split())


class TweakedIdf(TfIdfCosineSimilarity):
    def idf(self, token: str) -> float:
        return 1.0


class TestKernelSelection:
    """``build_column`` is the registry; each similarity type must land
    on exactly the column whose math it matches."""

    @pytest.mark.parametrize("make_sim, expected", [
        (TrigramSimilarity, NGramColumn),
        (lambda: JaccardNGram(2), NGramColumn),
        (TfIdfCosineSimilarity, TfIdfColumn),
        (SoftTfIdfSimilarity, ScalarColumn),
        (LevenshteinSimilarity, ScalarColumn),
        (TweakedTfIdf, ScalarColumn),
        (TweakedVector, ScalarColumn),
        (TweakedGrams, ScalarColumn),
        (TweakedIdf, ScalarColumn),
    ], ids=["trigram", "jaccard-ngram", "tfidf", "softtfidf",
            "levenshtein", "tfidf-score-override",
            "tfidf-vector-override", "ngram-grams-override",
            "tfidf-idf-override"])
    def test_registry_routing(self, dataset, make_sim, expected):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        sim = make_sim()
        sim.prepare(dblp.attribute_values("title")
                    + acm.attribute_values("title"))
        column = build_column(sim, acm.attribute_values("title"))
        assert type(column) is expected
        assert column.vectorized is (expected is not ScalarColumn)
        # and the request-level registry agrees: a single-attribute
        # request's kernel is that very column, bound
        request = MatchRequest(dblp, acm,
                               specs=[AttributeSpec("title", "title", sim)])
        kernel = vectorized.request_kernel(request)
        assert type(kernel) is expected

    @pytest.mark.parametrize("make_sim", [TrigramSimilarity,
                                          TfIdfCosineSimilarity],
                             ids=["ngram", "tfidf"])
    def test_without_bitwise_count_nothing_packs(self, dataset, make_sim,
                                                 monkeypatch,
                                                 scalar_reference):
        """numpy < 2.0 has no ``bitwise_count``, which both packed
        kinds read bit rows with: each falls back to the scalar column
        instead of failing, and scores like the reference."""
        monkeypatch.delattr(np, "bitwise_count")
        dblp, acm = (source.subset(source.ids()) for source in (
            dataset.dblp.publications, dataset.acm.publications))
        sim = make_sim()
        assert columns.column_config(sim) is None
        sim.prepare(dblp.attribute_values("title")
                    + acm.attribute_values("title"))
        assert type(build_column(sim, acm.attribute_values("title"))) \
            is ScalarColumn
        request = MatchRequest(dblp, acm, threshold=0.3,
                               blocking=TokenBlocking(),
                               specs=[AttributeSpec("title", "title", sim)])
        assert type(vectorized.request_kernel(request)) is ScalarColumn
        mapping = SERIAL.execute(request)
        assert list(mapping) == list(scalar_reference(request))
        assert len(mapping) > 0

    def test_soft_tfidf_never_routes_into_sparse_kernel(self, dataset):
        """Regression for the ``score_batch`` reassignment: SoftTFIDF
        must be refused by the sparse column even though it *is* a
        TfIdfCosineSimilarity."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        sim = SoftTfIdfSimilarity()
        sim.prepare(dblp.attribute_values("title")
                    + acm.attribute_values("title"))
        column = build_column(sim, acm.attribute_values("title"))
        assert not isinstance(column, TfIdfColumn)

    def test_soft_tfidf_batch_matches_pairwise(self, dataset):
        """The explicit ``score_batch`` override must keep producing
        the fuzzy per-pair scores, not the parent's plain cosine."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        sim = SoftTfIdfSimilarity()
        corpus = (dblp.attribute_values("title")
                  + acm.attribute_values("title"))
        sim.prepare(corpus)
        pairs = [(str(a), str(b)) for a, b in
                 zip(dblp.attribute_values("title")[:25],
                     acm.attribute_values("title")[:25])
                 if a is not None and b is not None]
        # a typo pair where fuzzy token matching genuinely diverges
        # from the plain cosine, or this regression test proves nothing
        typo = [(str(dblp.attribute_values("title")[0]),
                 str(dblp.attribute_values("title")[0])[:-1] + "x")]
        pairs = typo + pairs
        assert sim.score_batch(pairs) == \
            [sim.similarity(a, b) for a, b in pairs]
        hard = TfIdfCosineSimilarity()
        hard.prepare(corpus)
        assert sim.score_batch(pairs) != hard.score_batch(pairs)

    def test_soft_tfidf_engine_run_uses_generic_path(self, dataset,
                                                     monkeypatch):
        """End-to-end: a SoftTFIDF match through the engine must score
        through the scalar column's batch loop (same rows as
        pairwise), with the sparse column forbidden outright."""

        def exploding_column(*args, **kwargs):
            raise AssertionError("SoftTFIDF reached the sparse column")

        monkeypatch.setattr(columns, "TfIdfColumn", exploding_column)
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        engine_rows = AttributeMatcher(
            "title", similarity=SoftTfIdfSimilarity(), threshold=0.3,
            engine=SERIAL).match(dblp, acm).to_rows()

        sim = SoftTfIdfSimilarity()
        sim.prepare(dblp.attribute_values("title")
                    + acm.attribute_values("title"))
        expected = []
        for id_a in dblp.ids():
            for id_b in acm.ids():
                score = sim.similarity(dblp.get(id_a).get("title"),
                                       acm.get(id_b).get("title"))
                if score >= 0.3 and score > 0.0:
                    expected.append((id_a, id_b, score))
        assert engine_rows == sorted(expected)


# ----------------------------------------------------------------------
# sparse kernel bit-exactness
# ----------------------------------------------------------------------

class TestSparseKernelBitExact:
    def test_identical_to_python_path_two_source(self, dataset,
                                                 scalar_engine):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        fast = AttributeMatcher("title", similarity="tfidf", threshold=0.0,
                                engine=SERIAL)
        fast_rows = fast.match(dblp, acm).to_rows()
        assert fast_rows  # non-trivial scenario

        slow = AttributeMatcher("title", similarity="tfidf", threshold=0.0,
                                engine=scalar_engine)
        assert slow.match(dblp, acm).to_rows() == fast_rows

    def test_identical_to_python_path_self_matching(self, dataset,
                                                    scalar_engine):
        gs = dataset.gs.publications
        fast = AttributeMatcher("title", similarity="tfidf", threshold=0.2,
                                engine=SERIAL)
        fast_rows = fast.match(gs, gs).to_rows()
        slow = AttributeMatcher("title", similarity="tfidf", threshold=0.2,
                                engine=scalar_engine)
        assert slow.match(gs, gs).to_rows() == fast_rows

    def test_parallel_sparse_path_identical(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        parallel = BatchMatchEngine(EngineConfig(workers=4, chunk_size=64))
        serial_rows = AttributeMatcher(
            "title", similarity="tfidf", threshold=0.2,
            engine=SERIAL).match(dblp, acm).to_rows()
        parallel_rows = AttributeMatcher(
            "title", similarity="tfidf", threshold=0.2,
            engine=parallel).match(dblp, acm).to_rows()
        assert serial_rows == parallel_rows

    def test_missing_and_empty_values(self, scalar_engine):
        domain = _source("L", ["alpha beta", None, "", "gamma delta"])
        range_ = _source("R", ["alpha beta", "gamma delta", None, ""])
        fast = AttributeMatcher("title", similarity="tfidf", threshold=0.0,
                                engine=SERIAL)
        fast_rows = fast.match(domain, range_).to_rows()
        slow = AttributeMatcher("title", similarity="tfidf", threshold=0.0,
                                engine=scalar_engine)
        assert slow.match(domain, range_).to_rows() == fast_rows

    def test_orientation_symmetric(self, dataset):
        """The kernel may see a self-matching pair in either
        orientation (block-vectorized triangles expand in block
        order); scores must not depend on it."""
        import numpy as np

        gs = dataset.gs.publications
        sim = TfIdfCosineSimilarity()
        sim.prepare(gs.attribute_values("title"))
        values = [instance.get("title") for instance in gs]
        kernel = build_column(sim, values).bind(values)
        assert isinstance(kernel, TfIdfColumn)
        n = min(len(gs), 40)
        rows_a, rows_b = [], []
        for i in range(n):
            for j in range(i + 1, n):
                rows_a.append(i)
                rows_b.append(j)
        forward = kernel.score_rows(np.asarray(rows_a), np.asarray(rows_b))
        backward = kernel.score_rows(np.asarray(rows_b), np.asarray(rows_a))
        assert (forward == backward).all()

    @pytest.mark.parametrize("over_budget", ["range", "domain"])
    @pytest.mark.parametrize("make_sim", [TrigramSimilarity,
                                          TfIdfCosineSimilarity],
                             ids=["ngram", "tfidf"])
    def test_memory_budget_refuses_oversized_index(self, dataset, make_sim,
                                                   over_budget, monkeypatch,
                                                   scalar_reference):
        """A side over the budget rides the scalar column — kept by
        nobody — and the request still scores like the reference."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        # subsets: the budget guards packing, and the shared fixture
        # sources may already hold this column packed
        small, large = dblp.subset(dblp.ids()[:3]), acm.subset(acm.ids())
        domain, range_ = ((small, large) if over_budget == "range"
                          else (large, small))
        sim = make_sim()
        sim.prepare(small.attribute_values("title"))
        # fits the three-record side, not the full one
        monkeypatch.setattr(columns, "MAX_INDEX_BYTES", 1024)
        assert build_column(sim, small.attribute_values("title")).vectorized
        assert isinstance(build_column(sim, large.attribute_values("title")),
                          ScalarColumn)
        request = MatchRequest(domain, range_, threshold=0.2,
                               specs=[AttributeSpec("title", "title", sim)])
        assert type(vectorized.request_kernel(request)) is ScalarColumn
        engine = BatchMatchEngine(EngineConfig(chunk_size=64, profile=True))
        for _ in range(2):  # nothing was kept: the second run is cold too
            mapping = engine.execute(request)
            profile = engine.profile_summary()
            assert profile["path"] == "indexed"
            assert profile["kernel_cached"] is False
        assert list(mapping) == list(scalar_reference(request))
        assert len(mapping) > 0


# ----------------------------------------------------------------------
# column binding: aliasing and the reference-only vocabulary
# ----------------------------------------------------------------------

#: domain values carry grams/tokens the range never saw ("zebra",
#: "qqq", "zzz"), ``None`` and empty values, and TF/IDF vectors that tie
#: with a range vector on *logical* length while their packed length
#: (reference vocabulary only) is shorter
QUERY_ONLY_DOMAIN = [
    "zebra crossing qqq", "alpha beta", None, "", "delta gamma",
    "beta alpha", "alpha zzz", "alpha beta gamma zzz",
    "gamma beta alpha delta", "epsilon alpha beta gamma",
]
QUERY_ONLY_RANGE = [
    "alpha beta", "gamma delta", None, "", "beta alpha gamma",
    "gamma beta alpha delta", "delta gamma beta alpha",
    "alpha beta gamma epsilon",
]


class TestColumnBinding:
    @pytest.mark.parametrize("make_sim", [TrigramSimilarity,
                                          TfIdfCosineSimilarity],
                             ids=["ngram", "tfidf"])
    def test_self_matching_bind_aliases_the_packed_side(self, make_sim):
        source = _source("S", _skewed_titles(30))
        sim = make_sim()
        sim.prepare(source.attribute_values("title"))
        values = [instance.get("title") for instance in source]
        column = build_column(sim, values)
        kernel = column.bind(values)
        assert kernel.domain is column.range  # packed once, not twice
        assert kernel.domain_missing is column.range_missing
        assert column.bind(list(values)).domain is not column.range
        # the engine's self-matching request takes exactly that route
        request = MatchRequest(
            source, source, specs=[AttributeSpec("title", "title", sim)])
        kernel = vectorized.request_kernel(request)
        assert kernel.domain is kernel.range

    @pytest.mark.parametrize("make_sim", [TrigramSimilarity,
                                          TfIdfCosineSimilarity],
                             ids=["ngram", "tfidf"])
    def test_released_kernel_scores_but_cannot_pack(self, make_sim):
        import numpy as np

        source = _source("S", _skewed_titles(30))
        sim = make_sim()
        sim.prepare(source.attribute_values("title"))
        values = [instance.get("title") for instance in source]
        kernel = build_column(sim, values).bind(list(values))
        rows = np.arange(len(values))
        before = kernel.score_rows(rows, rows[::-1])
        bounds = kernel.score_bound_rows(rows, rows[::-1])
        kernel.release()
        assert np.array_equal(kernel.score_rows(rows, rows[::-1]), before)
        assert np.array_equal(kernel.score_bound_rows(rows, rows[::-1]),
                              bounds)
        assert not kernel.missing_rows(rows, rows).any()
        # a q-gram similarity keeps nothing per string to begin with
        # (gram sets live in the process memo, repro.sim.tokenize);
        # TF/IDF's per-string cache went, its corpus statistics stay
        if make_sim is TrigramSimilarity:
            assert not any(isinstance(state, (dict, list, set, frozenset))
                           for state in vars(sim).values())
        else:
            assert not sim._vector_cache and sim._idf
        with pytest.raises(AttributeError):
            kernel.bind(values)
        with pytest.raises(AttributeError):
            kernel.export()

    @pytest.mark.parametrize("make_sim", [
        TrigramSimilarity,
        lambda: JaccardNGram(2),
        lambda: NGramSimilarity(3, method="overlap"),
        TfIdfCosineSimilarity,
    ], ids=["dice", "jaccard", "overlap", "tfidf"])
    def test_query_only_vocabulary_scores_like_chunk_scorer(self, make_sim):
        import numpy as np

        from reference_scorer import ChunkScorer

        domain = _source("L", QUERY_ONLY_DOMAIN)
        range_ = _source("R", QUERY_ONLY_RANGE)
        sim = make_sim()
        sim.prepare(domain.attribute_values("title")
                    + range_.attribute_values("title"))
        request = MatchRequest(
            domain, range_, specs=[AttributeSpec("title", "title", sim)],
            threshold=0.0, missing="zero")
        kernel = vectorized.request_kernel(request)
        assert kernel is not None and kernel.vectorized
        pairs = [(a, b) for a in domain.ids() for b in range_.ids()]
        # the scalar path drops plain zero scores; missing="zero"
        # surfaces the None pairs at 0.0, every other absentee is 0.0 too
        expected = {(a, b): score for a, b, score
                    in ChunkScorer(request).score_chunk(pairs)}
        rows_a = np.repeat(np.arange(len(domain)), len(range_))
        rows_b = np.tile(np.arange(len(range_)), len(domain))
        scores = kernel.score_rows(rows_a, rows_b).tolist()
        assert scores == [expected.get(pair, 0.0) for pair in pairs]
        assert sum(1 for score in scores if 0.0 < score < 1.0) >= 10
        bounds = kernel.score_bound_rows(rows_a, rows_b).tolist()
        assert all(score <= bound for score, bound in zip(scores, bounds))

    def test_tfidf_tie_break_counts_query_only_tokens(self):
        """'delta sigma alpha zzz' ties 'alpha delta kappa sigma' on
        *logical* vector size (4 = 4), so the lexicographically smaller
        range text is the one expanded; going by the packed size (3,
        'zzz' is outside the range vocabulary) would expand the domain
        row and sum the three shared products in another order — a
        last-bit difference on this corpus."""
        import numpy as np

        domain = _source("L", ["beta sigma alpha zzz",
                               "epsilon sigma alpha zzz",
                               "alpha kappa epsilon zzz",
                               "delta sigma alpha zzz"])
        range_ = _source("R", ["gamma alpha beta", "alpha kappa epsilon",
                               "alpha delta kappa sigma",
                               "delta alpha epsilon",
                               "kappa alpha epsilon gamma",
                               "alpha delta kappa sigma"])
        sim = TfIdfCosineSimilarity()
        sim.prepare(domain.attribute_values("title")
                    + range_.attribute_values("title"))
        kernel = vectorized.request_kernel(MatchRequest(
            domain, range_, specs=[AttributeSpec("title", "title", sim)]))
        rows_a = np.repeat(np.arange(len(domain)), len(range_))
        rows_b = np.tile(np.arange(len(range_)), len(domain))
        expected = sim.score_batch(
            [(a, b) for a in domain.attribute_values("title")
             for b in range_.attribute_values("title")])
        assert kernel.score_rows(rows_a, rows_b).tolist() == expected

    @pytest.mark.parametrize("similarity", ["trigram", "tfidf"])
    @pytest.mark.parametrize("engine", [SERIAL, SHARDED],
                             ids=["serial", "sharded"])
    def test_query_only_vocabulary_end_to_end(self, similarity, engine,
                                              scalar_engine):
        domain = _source("L", QUERY_ONLY_DOMAIN)
        range_ = _source("R", QUERY_ONLY_RANGE)
        fast = AttributeMatcher("title", similarity=similarity,
                                threshold=0.0, missing="zero",
                                engine=engine).match(domain, range_)
        slow = AttributeMatcher("title", similarity=similarity,
                                threshold=0.0, missing="zero",
                                engine=scalar_engine).match(domain, range_)
        assert fast.to_rows() == slow.to_rows()
        assert fast.to_rows()


# ----------------------------------------------------------------------
# serial == sharded on a skewed dataset
# ----------------------------------------------------------------------

SKEW_BLOCKINGS = [
    KeyBlocking(),  # one dominant key block
    TokenBlocking(max_df=0.9),
    TokenBlocking(max_df=0.5),  # overlapping blocks
    FullCross(),
    KeyBlocking(max_block_size=40),  # the dominant block dropped
]
SKEW_IDS = ["KeyBlocking", "TokenBlocking", "TokenBlocking-overlap",
            "FullCross", "KeyBlocking-capped"]


class TestSkewedShardingEquivalence:
    """One shard holding most pairs leaves results byte-identical —
    for the kernel paths (trigram, tfidf) and the generic scorer path
    (softtfidf, whose asymmetric scores also pin pair *orientation*)."""

    @pytest.mark.parametrize("blocking", SKEW_BLOCKINGS, ids=SKEW_IDS)
    @pytest.mark.parametrize("similarity", ["trigram", "tfidf"])
    def test_two_source(self, skewed_sources, blocking, similarity):
        domain, range_ = skewed_sources

        def rows(engine):
            return AttributeMatcher(
                "title", similarity=similarity, threshold=0.4,
                blocking=blocking, engine=engine
            ).match(domain, range_).to_rows()

        serial = rows(SERIAL)
        assert serial  # the skewed scenario is non-trivial
        assert rows(SHARDED) == serial

    @pytest.mark.parametrize("blocking", SKEW_BLOCKINGS, ids=SKEW_IDS)
    @pytest.mark.parametrize("similarity", ["trigram", "tfidf"])
    def test_self_matching(self, skewed_sources, blocking, similarity):
        domain, _ = skewed_sources

        def rows(engine):
            return AttributeMatcher(
                "title", similarity=similarity, threshold=0.5,
                blocking=blocking, engine=engine
            ).match(domain, domain).to_rows()

        assert rows(SHARDED) == rows(SERIAL)

    def test_generic_scorer_path_on_the_pool(self, skewed_sources):
        """softtfidf has no kernel *and* asymmetric scores: a sharded
        self-match keeps the serial orientation."""
        domain, _ = skewed_sources
        blocking = TokenBlocking(max_df=0.9)
        serial_rows = AttributeMatcher(
            "title", similarity="softtfidf", threshold=0.5,
            blocking=blocking, engine=SERIAL).match(domain, domain).to_rows()
        sharded_rows = AttributeMatcher(
            "title", similarity="softtfidf", threshold=0.5,
            blocking=blocking,
            engine=SHARDED).match(domain, domain).to_rows()
        assert serial_rows == sharded_rows
