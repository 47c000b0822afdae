"""Tests for n-gram similarity (the paper's trigram matcher)."""

import pytest

from repro.sim.ngram import DiceNGram, JaccardNGram, NGramSimilarity, TrigramSimilarity
from repro.sim.tokenize import qgrams


class TestTrigram:
    def setup_method(self):
        self.sim = TrigramSimilarity()

    def test_identical_strings(self):
        assert self.sim("query processing", "query processing") == 1.0

    def test_disjoint_strings(self):
        assert self.sim("zzz", "qqq") == 0.0

    def test_symmetry(self):
        a, b = "data integration", "data cleaning"
        assert self.sim(a, b) == pytest.approx(self.sim(b, a))

    def test_small_typo_keeps_high_similarity(self):
        assert self.sim("schema matching", "schema matchng") > 0.7

    def test_case_insensitive(self):
        assert self.sim("VLDB", "vldb") == 1.0

    def test_none_values_score_zero(self):
        assert self.sim(None, "abc") == 0.0
        assert self.sim("abc", None) == 0.0

    def test_empty_strings(self):
        assert self.sim("", "") == 0.0

    def test_range(self):
        value = self.sim("adaptive query processing", "query optimization")
        assert 0.0 <= value <= 1.0


class TestVariants:
    def test_dice_vs_jaccard_ordering(self):
        # Dice >= Jaccard for any non-disjoint pair
        a, b = "data streams", "data stream"
        dice = DiceNGram(3)(a, b)
        jaccard = JaccardNGram(3)(a, b)
        assert dice >= jaccard > 0

    def test_overlap_coefficient(self):
        sim = NGramSimilarity(3, method="overlap")
        # substring pairs score 1.0 under overlap
        assert sim("data", "data streams") > DiceNGram(3)("data", "data streams")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            NGramSimilarity(3, method="cosine")

    def test_gram_sets_come_from_the_process_memo(self):
        # one set per (value, q, pad), whichever instance asks
        grams_first = TrigramSimilarity().grams("hello world")
        grams_second = DiceNGram(3).grams("hello world")
        assert grams_first is grams_second
        assert grams_first == frozenset(qgrams("hello world", 3))
        assert DiceNGram(3, pad=False).grams("hello world") \
            == frozenset(qgrams("hello world", 3, pad=False))
        assert not any(isinstance(state, (dict, set, frozenset))
                       for state in vars(TrigramSimilarity()).values())

    def test_prepare_is_accepted_and_changes_nothing(self):
        sim = TrigramSimilarity()
        before = sim("alpha", "beta")
        sim.prepare(["alpha", "beta", None])
        assert sim.grams("alpha") == frozenset(qgrams("alpha", 3))
        assert sim("alpha", "beta") == before

    def test_q1_grams(self):
        sim = NGramSimilarity(1, pad=False)
        assert sim("abc", "cba") == 1.0  # same character set
