"""Equivalence suite for the multi-attribute composed kernel.

The composed kernel (:func:`repro.engine.vectorized.request_kernel`)
must be *bit-identical* to the scalar multi-attribute path
(``reference_scorer.score_pairs``) in every execution mode: serial,
parallel streamed, sharded, and sharded+balanced — across all
combination functions (incl. the ``-0`` missing-as-zero policies),
asymmetric per-spec similarities (which force a scalar-fallback
column), and records with missing values on either side.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AttributePair, MultiAttributeMatcher
from repro.blocking import FullCross, KeyBlocking, TokenBlocking
from repro.core.operators.functions import (
    CombinationFunction,
    MaxFunction,
)
from repro.engine import BatchMatchEngine, EngineConfig
from repro.engine.columns import ScalarColumn
from repro.engine.request import AttributeSpec, MatchRequest
from repro.engine.vectorized import MultiSpecKernel, request_kernel
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.base import SimilarityFunction
from repro.sim.ngram import TrigramSimilarity
from repro.sim.tfidf import TfIdfCosineSimilarity

SERIAL = BatchMatchEngine(EngineConfig(workers=1, chunk_size=64))
SHARDED = BatchMatchEngine(EngineConfig(workers=4, chunk_size=64))
EXECUTION_MODES = (SERIAL, SHARDED)

COMBINERS = ["avg", "avg0", "min", "min0", "max", "weighted", "weighted0"]


class AsymmetricOverlap(SimilarityFunction):
    """Deliberately asymmetric: containment of ``a``'s tokens in ``b``.

    No vector kernel exists for it, so a multi request carrying it
    exercises the scalar-fallback column — and its asymmetry exercises
    the orientation-faithful sharded mode.
    """

    name = "asym-overlap"

    def _score(self, a: str, b: str) -> float:
        tokens_a = a.split()
        if not tokens_a:
            return 0.0
        tokens_b = set(b.split())
        return sum(1 for token in tokens_a if token in tokens_b) \
            / len(tokens_a)


def _sources(miss_rate=0.25, n=90, seed=11):
    rng = random.Random(seed)
    words = ["adaptive", "stream", "schema", "query", "index",
             "cache", "graph", "join", "view", "cube"]

    def build(name, count):
        source = LogicalSource(PhysicalSource(name),
                               ObjectType("Publication"))
        for i in range(count):
            title = " ".join(rng.choice(words) for _ in range(4)) \
                + f" {i % 9}"
            year = (None if rng.random() < miss_rate
                    else str(1990 + i % 15))
            venue = (None if rng.random() < miss_rate
                     else rng.choice(words))
            source.add_record(f"{name.lower()}{i}", title=title,
                              year=year, venue=venue)
        return source

    return build("L", n), build("R", n - 7)


def _pairs():
    return [AttributePair("title", similarity="trigram"),
            AttributePair("year", similarity="year", weight=0.5),
            AttributePair("venue", similarity="tfidf", weight=2.0)]


def _scalar_reference(pairs, combine, threshold, blocking, domain, range_,
                      scalar_engine):
    """The matcher's request scored by the scalar reference."""
    matcher = MultiAttributeMatcher(pairs, combine=combine,
                                    threshold=threshold,
                                    blocking=blocking, engine=scalar_engine)
    return matcher.match(domain, range_).to_rows()


class TestComposedKernelEquivalence:
    @pytest.mark.parametrize("combine", COMBINERS)
    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    def test_all_execution_modes_match_scalar(self, combine, threshold,
                                              scalar_engine):
        domain, range_ = _sources()
        blocking = TokenBlocking(max_df=0.8)
        reference = _scalar_reference(_pairs(), combine, threshold,
                                      blocking, domain, range_,
                                      scalar_engine)
        for engine in EXECUTION_MODES:
            matcher = MultiAttributeMatcher(_pairs(), combine=combine,
                                            threshold=threshold,
                                            blocking=blocking,
                                            engine=engine)
            assert matcher.match(domain, range_).to_rows() == reference
        assert reference  # the scenario is non-trivial

    @pytest.mark.parametrize("combine", ["avg", "min0", "weighted"])
    def test_asymmetric_similarity_scalar_column(self, combine,
                                                 scalar_engine):
        """An asymmetric, kernel-less similarity rides a scalar-fallback
        column; every mode (incl. self-matching below) must agree."""
        domain, range_ = _sources()
        pairs = [AttributePair("title", similarity=AsymmetricOverlap()),
                 AttributePair("venue", similarity="tfidf", weight=2.0)]
        reference = _scalar_reference(pairs, combine, 0.2, KeyBlocking(),
                                      domain, range_, scalar_engine)
        for engine in EXECUTION_MODES:
            matcher = MultiAttributeMatcher(pairs, combine=combine,
                                            threshold=0.2,
                                            blocking=KeyBlocking(),
                                            engine=engine)
            assert matcher.match(domain, range_).to_rows() == reference

    @pytest.mark.parametrize("combine", ["avg", "min", "weighted0"])
    def test_self_matching_with_scalar_column(self, combine):
        """Self-matching forces the orientation question: a composed
        kernel with a scalar column must leave the block-vectorized
        expansion for the orientation-faithful pair stream."""
        domain, _ = _sources(n=60)
        pairs = [AttributePair("title", similarity=AsymmetricOverlap()),
                 AttributePair("title", similarity="trigram")]
        reference = None
        for engine in EXECUTION_MODES:
            matcher = MultiAttributeMatcher(pairs, combine=combine,
                                            threshold=0.2,
                                            blocking=KeyBlocking(),
                                            engine=engine)
            rows = matcher.match(domain, domain).to_rows()
            if reference is None:
                reference = rows
            assert rows == reference

    def test_missing_slots_on_either_side(self, scalar_engine):
        """Heavy missing rates on both sources: the masked None slots
        must flow through every combiner policy identically."""
        domain, range_ = _sources(miss_rate=0.6, seed=23)
        for combine in COMBINERS:
            reference = _scalar_reference(_pairs(), combine, 0.0,
                                          FullCross(), domain, range_,
                                          scalar_engine)
            matcher = MultiAttributeMatcher(_pairs(), combine=combine,
                                            threshold=0.0,
                                            blocking=FullCross(),
                                            engine=SHARDED)
            assert matcher.match(domain, range_).to_rows() == reference

    @settings(max_examples=10, deadline=None)
    @given(threshold=st.sampled_from([0.0, 0.3, 0.6]),
           combine=st.sampled_from(COMBINERS),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_property_composed_equals_scalar(self, scalar_engine,
                                             threshold, combine, seed):
        domain, range_ = _sources(miss_rate=0.35, n=40, seed=seed)
        pairs = _pairs()
        fast = MultiAttributeMatcher(pairs, combine=combine,
                                     threshold=threshold, engine=SERIAL)
        slow = MultiAttributeMatcher(pairs, combine=combine,
                                     threshold=threshold,
                                     engine=scalar_engine)
        assert fast.match(domain, range_).to_rows() \
            == slow.match(domain, range_).to_rows()


class TestComposedKernelStructure:
    def _request(self, pairs, combine="avg"):
        domain, range_ = _sources(n=30)
        matcher = MultiAttributeMatcher(pairs, combine=combine)
        return MatchRequest(
            domain=domain, range=range_,
            specs=[AttributeSpec(pair.attribute, pair.range_attribute,
                                 pair.similarity)
                   for pair in matcher.pairs],
            threshold=0.0, combiner=matcher.combiner)

    def test_kernel_engages_for_eligible_request(self):
        request = self._request(_pairs())
        for spec in request.specs:
            spec.similarity.prepare(
                request.domain.attribute_values(spec.attribute)
                + request.range.attribute_values(spec.range_attribute))
        kernel = request_kernel(request)
        assert isinstance(kernel, MultiSpecKernel)
        # trigram + tfidf get real kernels, "year" needs the fallback
        assert sum(isinstance(column, ScalarColumn)
                   for column in kernel.columns) == 1
        assert not kernel.orientation_symmetric  # scalar column inside

    def test_all_scalar_columns_compose_like_any_others(
            self, scalar_reference):
        """No packed column in sight: still one composed kernel, on
        the indexed path, equal to the reference as lists."""
        pairs = [AttributePair("title", similarity=AsymmetricOverlap()),
                 AttributePair("venue", similarity=AsymmetricOverlap())]
        request = self._request(pairs)
        kernel = request_kernel(request)
        assert isinstance(kernel, MultiSpecKernel)
        assert all(type(column) is ScalarColumn
                   for column in kernel.columns)
        assert not kernel.orientation_symmetric
        engine = BatchMatchEngine(EngineConfig(chunk_size=64, profile=True))
        mapping = engine.execute(request)
        assert engine.profile_summary()["path"] == "indexed"
        assert list(mapping) == list(scalar_reference(request))
        assert len(mapping) > 50

    def test_all_real_kernels_are_orientation_symmetric(self):
        pairs = [AttributePair("title", similarity="trigram"),
                 AttributePair("venue", similarity="tfidf")]
        request = self._request(pairs)
        for spec in request.specs:
            spec.similarity.prepare(
                request.domain.attribute_values(spec.attribute)
                + request.range.attribute_values(spec.range_attribute))
        kernel = request_kernel(request)
        assert isinstance(kernel, MultiSpecKernel)
        assert kernel.orientation_symmetric

    def test_custom_combiner_subclass_uses_per_row_fallback(self,
                                                            scalar_engine):
        """A combiner the vectorized dispatch does not recognize still
        produces scalar-identical results through the per-row path."""

        class Harmonic(CombinationFunction):
            name = "harmonic"

            def combine(self, values):
                present = [value for value in values if value is not None]
                if not present or any(value == 0.0 for value in present):
                    return None
                return len(present) / sum(1.0 / value
                                          for value in present)

        domain, range_ = _sources(n=40)
        pairs = [AttributePair("title", similarity="trigram"),
                 AttributePair("venue", similarity="tfidf")]
        reference = _scalar_reference(pairs, Harmonic(), 0.1, FullCross(),
                                      domain, range_, scalar_engine)
        matcher = MultiAttributeMatcher(pairs, combine=Harmonic(),
                                        threshold=0.1,
                                        blocking=FullCross(),
                                        engine=SHARDED)
        assert matcher.match(domain, range_).to_rows() == reference

    def test_tfidf_column_matches_single_kernel_scores(self):
        """The composed kernel's tfidf column is the same sparse kernel
        the single-attribute path builds — spot-check score agreement."""
        domain, range_ = _sources(n=30)
        sim = TfIdfCosineSimilarity()
        sim.prepare(domain.attribute_values("title")
                    + range_.attribute_values("title"))
        single = request_kernel(MatchRequest(
            domain=domain, range=range_,
            specs=[AttributeSpec("title", "title", sim)]))
        trigram = TrigramSimilarity()
        trigram.prepare(domain.attribute_values("title")
                        + range_.attribute_values("title"))
        request = MatchRequest(
            domain=domain, range=range_,
            specs=[AttributeSpec("title", "title", sim),
                   AttributeSpec("title", "title", trigram)],
            threshold=0.0, combiner=MaxFunction())
        composed = request_kernel(request)
        import numpy as np
        rows = np.arange(min(len(domain.ids()), len(range_.ids())),
                         dtype=np.int64)
        assert (composed.columns[0].score_rows(rows, rows)
                == single.score_rows(rows, rows)).all()
