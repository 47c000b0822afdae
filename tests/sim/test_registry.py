"""Tests for the similarity-function registry."""

import pytest

from repro.sim.base import SimilarityFunction
from repro.sim.registry import (
    available_similarities,
    get_similarity,
    register_similarity,
)


class TestRegistry:
    def test_known_names_resolve(self):
        for name in ("trigram", "tfidf", "affix", "levenshtein", "jaro",
                     "jarowinkler", "exact", "year", "personname",
                     "mongeelkan", "jaccard", "softtfidf"):
            function = get_similarity(name)
            assert isinstance(function, SimilarityFunction)

    def test_case_insensitive(self):
        assert type(get_similarity("Trigram")) is type(get_similarity("trigram"))

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError) as excinfo:
            get_similarity("no-such-sim")
        assert "trigram" in str(excinfo.value)

    def test_parameters_forwarded(self):
        sim = get_similarity("ngram", q=2)
        assert sim.q == 2

    def test_fresh_instances(self):
        assert get_similarity("trigram") is not get_similarity("trigram")

    def test_available_contains_trigram(self):
        assert "trigram" in available_similarities()

    def test_custom_registration(self):
        class Constant(SimilarityFunction):
            name = "constant"

            def _score(self, a, b):
                return 0.5

        register_similarity("constant-test", lambda **kw: Constant())
        assert get_similarity("constant-test")("a", "b") == 0.5

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_similarity("  ", lambda **kw: None)


class TestBaseBehaviour:
    def test_clamping(self):
        class Overflow(SimilarityFunction):
            name = "overflow"

            def _score(self, a, b):
                return 1.5

        assert Overflow()("a", "b") == 1.0

    def test_negative_clamped(self):
        class Negative(SimilarityFunction):
            name = "negative"

            def _score(self, a, b):
                return -0.5

        assert Negative()("a", "b") == 0.0
