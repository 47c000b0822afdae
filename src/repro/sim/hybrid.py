"""Hybrid and domain-aware similarity functions.

Token-level measures (Jaccard, Monge-Elkan) and a person-name
similarity that tolerates Google-Scholar-style first-name initials —
the paper notes that "GS reduces authors' first names to their first
letter leading to ambiguous author representations" (§5.4.3), which is
exactly the failure mode :class:`PersonNameSimilarity` addresses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.base import SimilarityFunction
from repro.sim.edit import JaroWinklerSimilarity
from repro.sim.ngram import TrigramSimilarity
from repro.sim.tokenize import name_features, normalize, word_tokens


class ExactSimilarity(SimilarityFunction):
    """1.0 on normalized equality, else 0.0 (the paper's year matcher)."""

    name = "exact"

    def _score(self, a: str, b: str) -> float:
        return 1.0 if normalize(a) == normalize(b) else 0.0


class TokenJaccardSimilarity(SimilarityFunction):
    """Jaccard coefficient over normalized word tokens."""

    name = "tokenjaccard"

    def _score(self, a: str, b: str) -> float:
        tokens_a = set(word_tokens(a))
        tokens_b = set(word_tokens(b))
        if not tokens_a or not tokens_b:
            return 0.0
        return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


class MongeElkanSimilarity(SimilarityFunction):
    """Monge-Elkan: average best inner similarity of a's tokens to b's.

    Asymmetric by definition; pass ``symmetric=True`` to average both
    directions, which is usually what a matcher wants.
    """

    name = "mongeelkan"

    def __init__(self, inner: Optional[SimilarityFunction] = None, *,
                 symmetric: bool = True) -> None:
        self.inner = inner if inner is not None else JaroWinklerSimilarity()
        self.symmetric = symmetric

    def _directed(self, tokens_a: List[str], tokens_b: List[str]) -> float:
        if not tokens_a or not tokens_b:
            return 0.0
        total = 0.0
        for token_a in tokens_a:
            total += max(self.inner.similarity(token_a, token_b)
                         for token_b in tokens_b)
        return total / len(tokens_a)

    def _score(self, a: str, b: str) -> float:
        tokens_a = word_tokens(a)
        tokens_b = word_tokens(b)
        forward = self._directed(tokens_a, tokens_b)
        if not self.symmetric:
            return forward
        backward = self._directed(tokens_b, tokens_a)
        return (forward + backward) / 2.0


class PersonNameSimilarity(SimilarityFunction):
    """Person-name similarity robust to abbreviated first names.

    The last names are compared with a character-level similarity
    (trigram Dice by default).  First names compare as:

    * full vs. full  -> character similarity;
    * initial vs. anything -> 1.0 when the initials agree, else 0.0;
    * missing first name on either side -> neutral 0.5 (absence of
      evidence).

    The final score is ``last_weight * last_sim + (1 - last_weight) *
    first_sim``, so "J. Ullman" ~ "Jeffrey Ullman" scores high while
    "J. Ullman" ~ "K. Ullman" is penalized.
    """

    name = "personname"

    def __init__(self, inner: Optional[SimilarityFunction] = None, *,
                 last_weight: float = 0.7) -> None:
        if not 0.0 < last_weight < 1.0:
            raise ValueError("last_weight must be in (0, 1)")
        self.inner = inner if inner is not None else TrigramSimilarity()
        self.last_weight = last_weight

    def _score(self, a: str, b: str) -> float:
        # everything read off one name is memoized per name
        # (tokenize.name_features); a pair only pays the inner
        # similarity of the parts
        last_a, first_a, initials_a, abbreviated_a = name_features(a)
        last_b, first_b, initials_b, abbreviated_b = name_features(b)
        last_sim = self.inner.similarity(last_a, last_b)
        if not first_a or not first_b:
            first_sim = 0.5
        elif abbreviated_a or abbreviated_b:
            # Compare on the shared number of initials so "J." matches
            # "John B." (first initial agrees).
            width = min(len(initials_a), len(initials_b))
            if width == 0:
                first_sim = 0.5
            else:
                first_sim = (1.0 if initials_a[:width] == initials_b[:width]
                             else 0.0)
        else:
            first_sim = self.inner.similarity(first_a, first_b)
        return self.last_weight * last_sim + (1.0 - self.last_weight) * first_sim
