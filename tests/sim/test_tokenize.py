"""Tests for string normalization and tokenization."""

import sys
import threading

import pytest

from repro.sim import PersonNameSimilarity, TrigramSimilarity, tokenize
from repro.sim.tokenize import (
    _TOKEN_RE,
    MEMO_ENTRIES,
    clear_memo,
    gram_set,
    initials,
    name_features,
    name_parts,
    ngram_windows,
    normalize,
    qgrams,
    strip_accents,
    strip_punctuation,
    word_tokens,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Query Processing") == "query processing"

    def test_strips_punctuation(self):
        assert normalize("Potter's Wheel: A System!") == "potter s wheel a system"

    def test_collapses_whitespace(self):
        assert normalize("  a   b\t c ") == "a b c"

    def test_empty_string(self):
        assert normalize("") == ""

    def test_accents_removed(self):
        assert normalize("Café Müller") == "cafe muller"

    def test_idempotent(self):
        once = normalize("A  Strange-Title!")
        assert normalize(once) == once


class TestStripHelpers:
    def test_strip_accents(self):
        assert strip_accents("naïve résumé") == "naive resume"

    def test_strip_punctuation_keeps_words(self):
        assert strip_punctuation("a,b.c").split() == ["a", "b", "c"]


class TestWordTokens:
    def test_basic_split(self):
        assert word_tokens("Data Integration") == ["data", "integration"]

    def test_numbers_kept(self):
        assert word_tokens("VLDB 2002") == ["vldb", "2002"]

    def test_empty(self):
        assert word_tokens("") == []

    def test_punctuation_separates(self):
        assert word_tokens("top-k retrieval") == ["top", "k", "retrieval"]


class TestQgrams:
    def test_trigrams_padded(self):
        grams = qgrams("ab", 3)
        assert "##a" in grams and "ab#" in grams

    def test_unpadded_shorter_than_q(self):
        assert qgrams("ab", 3, pad=False) == ["ab"]

    def test_count_matches_formula(self):
        text = "abcdef"
        grams = qgrams(text, 3, pad=False)
        assert len(grams) == len(text) - 3 + 1

    def test_empty_text(self):
        assert qgrams("", 3) == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", 0)

    def test_normalization_applied(self):
        assert qgrams("AB", 2) == qgrams("ab", 2)


class TestNgramWindows:
    def test_windows(self):
        assert list(ngram_windows(["a", "b", "c"], 2)) == [("a", "b"), ("b", "c")]

    def test_window_too_large(self):
        assert list(ngram_windows(["a"], 2)) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(ngram_windows(["a"], 0))


class TestNameParts:
    def test_first_last(self):
        assert name_parts("John Smith") == ("John", "Smith")

    def test_middle_goes_to_first(self):
        assert name_parts("John B. Smith") == ("John B.", "Smith")

    def test_comma_convention(self):
        assert name_parts("Smith, John") == ("John", "Smith")

    def test_single_token(self):
        assert name_parts("Smith") == ("", "Smith")

    def test_empty(self):
        assert name_parts("") == ("", "")


class TestInitials:
    def test_full_name(self):
        assert initials("John B.") == "jb"

    def test_single(self):
        assert initials("J.") == "j"

    def test_empty(self):
        assert initials("") == ""


class TestNameFeatures:
    def test_full_first_name(self):
        assert name_features("John B. Smith") == ("smith", "john b", "jb", False)

    def test_initials_only(self):
        assert name_features("J. Smith") == ("smith", "j", "j", True)

    def test_comma_convention_and_accents(self):
        assert name_features("Müller, José") == ("muller", "jose", "j", False)

    def test_no_first_name(self):
        # no token at all: vacuously "abbreviated", which the empty
        # normalized part overrides in PersonNameSimilarity
        assert name_features("Smith") == ("smith", "", "", True)


# ----------------------------------------------------------------------
# the process-wide feature memo
# ----------------------------------------------------------------------

def _all_features(text):
    return (normalize(text), word_tokens(text), gram_set(text, 3, True),
            gram_set(text, 2, False), name_features(text))


def _uncached_features(text):
    return (normalize.__wrapped__(text),
            _TOKEN_RE.findall(normalize.__wrapped__(text)),
            frozenset(qgrams(text, 3)), frozenset(qgrams(text, 2, pad=False)),
            name_features.__wrapped__(text))


class TestFeatureMemo:
    TABLES = {"normalize": (normalize, MEMO_ENTRIES),
              "tokens": (tokenize.token_tuple, MEMO_ENTRIES),
              "gram_set": (gram_set, MEMO_ENTRIES // 8),
              "name_features": (name_features, MEMO_ENTRIES)}

    def setup_method(self):
        clear_memo()

    teardown_method = setup_method

    def test_a_seen_value_is_answered_from_the_memo(self):
        text = "Adaptive Query Processing"
        first = _all_features(text)
        hits = {name: table.cache_info().hits
                for name, (table, _) in self.TABLES.items()}
        assert _all_features(text) == first == _uncached_features(text)
        for name, (table, _) in self.TABLES.items():
            assert table.cache_info().hits > hits[name], name
        # what is handed out twice is immutable, or a fresh copy
        assert word_tokens(text) is not word_tokens(text)
        assert gram_set(text, 3, True) is gram_set(text, 3, True)

    def test_the_bound_is_respected(self):
        for name, (table, bound) in self.TABLES.items():
            assert table.cache_info().maxsize == bound, name
        for number in range(MEMO_ENTRIES + 500):
            _all_features(f"Title Number {number}")
        for name, (table, bound) in self.TABLES.items():
            assert table.cache_info().currsize == bound, name
        clear_memo()
        assert all(table.cache_info().currsize == 0
                   for table, _ in self.TABLES.values())

    def test_results_are_equal_with_the_memo_cleared_mid_run(self, dataset):
        names = [str(instance.get("name"))
                 for instance in dataset.dblp.authors][:120]
        titles = [str(instance.get("title"))
                  for instance in dataset.gs.publications][:120]
        person, trigram = PersonNameSimilarity(), TrigramSimilarity()

        def run(clear_every):
            scores = []
            for step, (a, b) in enumerate(zip(names, names[1:] + titles)):
                if clear_every and step % clear_every == 0:
                    clear_memo()
                scores.append((person.similarity(a, b),
                               person.similarity(b, a),
                               trigram.similarity(a, b)))
            return scores, [_all_features(text) for text in titles]

        assert run(0) == run(7) == run(1)

    def test_eight_threads_get_equal_values(self):
        """More threads than cores, a short switch interval, a working
        set four times the q-gram table: evictions and first computations
        race, and every answer still equals the uncached one."""
        texts = [f"Søren {number} Kierkegård, A. B. — Data Cleaning"
                 for number in range(MEMO_ENTRIES // 2)]
        expected = {text: _uncached_features(text) for text in texts[::97]}
        failures = []

        def hammer(offset):
            try:
                for text in texts[offset::3] + texts[::97]:
                    got = _all_features(text)
                    if text in expected and got != expected[text]:
                        failures.append((text, got))
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(number % 3,))
                       for number in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for table, bound in self.TABLES.values():
            assert table.cache_info().currsize <= bound
