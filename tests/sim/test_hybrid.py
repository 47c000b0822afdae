"""Tests for hybrid and person-name similarities."""

import pytest

from repro.blocking import TokenBlocking
from repro.sim.hybrid import (
    ExactSimilarity,
    MongeElkanSimilarity,
    PersonNameSimilarity,
    TokenJaccardSimilarity,
)
from repro.sim.tokenize import initials, name_parts, normalize, word_tokens


class TestExact:
    def test_equal_after_normalization(self):
        assert ExactSimilarity()("VLDB 2002!", "vldb 2002") == 1.0

    def test_different(self):
        assert ExactSimilarity()("2001", "2002") == 0.0


class TestTokenJaccard:
    def test_identical(self):
        assert TokenJaccardSimilarity()("data streams", "data streams") == 1.0

    def test_half_overlap(self):
        value = TokenJaccardSimilarity()("a b", "b c")
        assert value == pytest.approx(1 / 3)

    def test_empty(self):
        assert TokenJaccardSimilarity()("", "abc") == 0.0


class TestMongeElkan:
    def test_identical(self):
        assert MongeElkanSimilarity()("john smith", "john smith") == pytest.approx(1.0)

    def test_asymmetric_directed(self):
        sim = MongeElkanSimilarity(symmetric=False)
        forward = sim("data", "data processing systems")
        backward = sim("data processing systems", "data")
        assert forward > backward

    def test_symmetric_mode_is_symmetric(self):
        sim = MongeElkanSimilarity(symmetric=True)
        a, b = "schema matching cupid", "cupid schema"
        assert sim(a, b) == pytest.approx(sim(b, a))

    def test_typo_tokens_still_match(self):
        assert MongeElkanSimilarity()("jon smith", "john smith") > 0.8

    def test_empty(self):
        assert MongeElkanSimilarity()("", "x") == 0.0


class TestPersonName:
    def setup_method(self):
        self.sim = PersonNameSimilarity()

    def test_identical_full_names(self):
        assert self.sim("John Smith", "John Smith") == pytest.approx(1.0)

    def test_initial_matches_full_first_name(self):
        # the Google Scholar case: "J. Smith" vs "John Smith"
        assert self.sim("J. Smith", "John Smith") == pytest.approx(1.0)

    def test_wrong_initial_penalized(self):
        right = self.sim("J. Smith", "John Smith")
        wrong = self.sim("K. Smith", "John Smith")
        assert wrong < right

    def test_different_last_names_dominate(self):
        assert self.sim("John Smith", "John Smythe") < 0.95
        assert self.sim("John Smith", "John Miller") < 0.6

    def test_middle_initial_prefix_match(self):
        assert self.sim("J. B. Smith", "John B. Smith") == pytest.approx(1.0)

    def test_missing_first_name_neutral(self):
        value = self.sim("Smith", "John Smith")
        assert 0.5 < value < 1.0

    def test_comma_convention(self):
        assert self.sim("Smith, John", "John Smith") == pytest.approx(1.0)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            PersonNameSimilarity(last_weight=1.5)

    def test_typo_in_last_name(self):
        assert self.sim("John Smith", "John Smth") > 0.6


class _PerPairPersonName(PersonNameSimilarity):
    """``_score`` as it was before the per-name features: every part
    normalized and tokenized again for every pair.  The oracle of
    ``test_scores_equal_the_per_pair_evaluation``."""

    def _first_similarity(self, first_a, first_b):
        norm_a = normalize(first_a)
        norm_b = normalize(first_b)
        if not norm_a or not norm_b:
            return 0.5
        initials_a = initials(first_a)
        initials_b = initials(first_b)
        tokens_a = word_tokens(first_a)
        tokens_b = word_tokens(first_b)
        abbreviated_a = all(len(tok) == 1 for tok in tokens_a)
        abbreviated_b = all(len(tok) == 1 for tok in tokens_b)
        if abbreviated_a or abbreviated_b:
            width = min(len(initials_a), len(initials_b))
            if width == 0:
                return 0.5
            return 1.0 if initials_a[:width] == initials_b[:width] else 0.0
        return self.inner.similarity(norm_a, norm_b)

    def _score(self, a, b):
        first_a, last_a = name_parts(a)
        first_b, last_b = name_parts(b)
        last_sim = self.inner.similarity(normalize(last_a), normalize(last_b))
        first_sim = self._first_similarity(first_a, first_b)
        return self.last_weight * last_sim + (1.0 - self.last_weight) * first_sim


class TestPersonNameFeatures:
    def test_scores_equal_the_per_pair_evaluation(self, dataset):
        """Bitwise, over every author-name pair token blocking
        generates between the tiny sources, both orientations."""
        sim, oracle = PersonNameSimilarity(), _PerPairPersonName()
        blocking = TokenBlocking(max_df=0.5)
        pairs = 0
        for left, right in ((dataset.dblp, dataset.gs),
                            (dataset.acm, dataset.gs),
                            (dataset.dblp, dataset.acm)):
            for id_a, id_b in blocking.candidates(
                    left.authors, right.authors,
                    domain_attribute="name", range_attribute="name"):
                a = left.authors.require(id_a).get("name")
                b = right.authors.require(id_b).get("name")
                assert sim.similarity(a, b) == oracle.similarity(a, b), (a, b)
                assert sim.similarity(b, a) == oracle.similarity(b, a), (b, a)
                pairs += 1
        assert pairs > 300

    @pytest.mark.parametrize("a, b", [
        ("", ""), ("Smith", ""), ("ø Smith", "J. Smith"), ("J. Smith", "!!"),
        ("Smith, J. B.", "John Smith"), ("Jo Smith", "J Smith"),
        ("Ünal, Özgür", "Ozgur Unal"), ("_ Smith", "J. Smith"),
    ])
    def test_awkward_names_equal_the_per_pair_evaluation(self, a, b):
        sim, oracle = PersonNameSimilarity(), _PerPairPersonName()
        assert sim.similarity(a, b) == oracle.similarity(a, b)
        assert sim.similarity(b, a) == oracle.similarity(b, a)
