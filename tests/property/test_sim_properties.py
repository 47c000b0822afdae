"""Property-based tests for similarity functions."""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.affix import AffixSimilarity
from repro.sim.edit import (
    LevenshteinSimilarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
)
from repro.sim.hybrid import TokenJaccardSimilarity
from repro.sim.ngram import TrigramSimilarity
from repro.sim.tokenize import strip_accents

texts = st.text(alphabet="abcdefg hi", min_size=0, max_size=20)
words = st.text(alphabet="abcdefg", min_size=1, max_size=12)

ALL_SIMS = [TrigramSimilarity(), LevenshteinSimilarity(),
            AffixSimilarity(), TokenJaccardSimilarity()]


@pytest.mark.parametrize("sim", ALL_SIMS, ids=lambda s: s.name)
@given(a=texts, b=texts)
@settings(max_examples=60)
def test_range_and_symmetry(sim, a, b):
    forward = sim(a, b)
    backward = sim(b, a)
    assert 0.0 <= forward <= 1.0
    assert forward == pytest.approx(backward)


@pytest.mark.parametrize("sim", ALL_SIMS, ids=lambda s: s.name)
@given(a=texts)
@settings(max_examples=60)
def test_reflexive_on_nonempty_normalized(sim, a):
    normalized = " ".join(a.split())
    if normalized.strip():
        assert sim(normalized, normalized) == pytest.approx(1.0)


@given(a=words, b=words, c=words)
@settings(max_examples=60)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein_distance(a, c) <= (
        levenshtein_distance(a, b) + levenshtein_distance(b, c))


@given(a=words, b=words)
def test_levenshtein_bounds(a, b):
    distance = levenshtein_distance(a, b)
    assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))


@given(a=words, b=words)
def test_jaro_winkler_dominates_jaro(a, b):
    assert jaro_winkler_similarity(a, b) >= jaro_similarity(a, b) - 1e-12


@given(a=words)
def test_single_typo_never_destroys_trigram(a):
    if len(a) >= 6:
        mutated = "z" + a[1:]
        assert TrigramSimilarity()(a, mutated) > 0.4


def _strip_accents_nfkd(text):
    """The definition, without the ASCII shortcut."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


@given(text=st.one_of(st.text(max_size=40),
                      st.text(alphabet=st.characters(max_codepoint=0x17f),
                              max_size=40)))
@settings(max_examples=300)
def test_strip_accents_fast_path_equals_nfkd(text):
    assert strip_accents(text) == _strip_accents_nfkd(text)
