"""Character n-gram similarity (the paper's trigram matcher).

MOMA's evaluation uses trigram string matching for publication titles
and author names (§5.2, §4.3).  We provide Dice- and Jaccard-normalized
variants over padded character q-grams; Dice over trigrams is the
classic "trigram metric" the paper names.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.sim.base import SimilarityFunction
from repro.sim.tokenize import qgrams


class NGramSimilarity(SimilarityFunction):
    """Set-based q-gram similarity with selectable normalization.

    ``method='dice'`` computes ``2|A∩B| / (|A| + |B|)`` and
    ``method='jaccard'`` computes ``|A∩B| / |A∪B|`` over the *sets* of
    padded q-grams.  Gram sets are cached per string because attribute
    matching scores each source value against many candidates.
    """

    def __init__(self, q: int = 3, *, method: str = "dice", pad: bool = True) -> None:
        if method not in ("dice", "jaccard", "overlap"):
            raise ValueError(f"unknown n-gram method: {method!r}")
        self.q = q
        self.method = method
        self.pad = pad
        self.name = f"{method}-{q}gram"
        self._gram_cache: Dict[str, FrozenSet[str]] = {}

    def prepare(self, values: Iterable[object]) -> None:
        """Pre-populate the gram cache for the given corpus values."""
        for value in values:
            if value is not None:
                self.grams(str(value))

    def grams(self, text: str) -> FrozenSet[str]:
        """Return (and cache) the q-gram set of ``text``."""
        cached = self._gram_cache.get(text)
        if cached is None:
            cached = frozenset(qgrams(text, self.q, pad=self.pad))
            self._gram_cache[text] = cached
        return cached

    def _score(self, a: str, b: str) -> float:
        grams_a = self.grams(a)
        grams_b = self.grams(b)
        if not grams_a and not grams_b:
            return 0.0
        overlap = len(grams_a & grams_b)
        if overlap == 0:
            return 0.0
        if self.method == "dice":
            return 2.0 * overlap / (len(grams_a) + len(grams_b))
        if self.method == "jaccard":
            return overlap / len(grams_a | grams_b)
        # overlap coefficient
        return overlap / min(len(grams_a), len(grams_b))


class DiceNGram(NGramSimilarity):
    """Dice-normalized q-gram similarity."""

    def __init__(self, q: int = 3, *, pad: bool = True) -> None:
        super().__init__(q, method="dice", pad=pad)


class JaccardNGram(NGramSimilarity):
    """Jaccard-normalized q-gram similarity."""

    def __init__(self, q: int = 3, *, pad: bool = True) -> None:
        super().__init__(q, method="jaccard", pad=pad)


class TrigramSimilarity(DiceNGram):
    """The trigram metric used throughout the paper's evaluation."""

    def __init__(self) -> None:
        super().__init__(q=3)
        self.name = "trigram"
