"""String-name registry of similarity functions.

The script language (``attrMatch(..., Trigram, 0.5, ...)``) and matcher
configuration files refer to similarity functions by name; this module
resolves those names to fresh instances.  Registration is open so that
applications can plug in domain-specific metrics, mirroring MOMA's
"extensible library of matcher algorithms" — and this registry is the
script language's only list of similarity symbols: a name is usable in
a script from the moment :func:`register_similarity` has seen it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.sim.affix import AffixSimilarity
from repro.sim.base import SimilarityFunction
from repro.sim.edit import JaroSimilarity, JaroWinklerSimilarity, LevenshteinSimilarity
from repro.sim.hybrid import (
    ExactSimilarity,
    MongeElkanSimilarity,
    PersonNameSimilarity,
    TokenJaccardSimilarity,
)
from repro.sim.ngram import DiceNGram, JaccardNGram, TrigramSimilarity
from repro.sim.numeric import NumericSimilarity, YearSimilarity
from repro.sim.tfidf import SoftTfIdfSimilarity, TfIdfCosineSimilarity

_FACTORIES: Dict[str, Callable[..., SimilarityFunction]] = {}


def register_similarity(name: str,
                        factory: Callable[..., SimilarityFunction]) -> None:
    """Register ``factory`` under ``name`` (case-insensitive)."""
    key = name.strip().lower()
    if not key:
        raise ValueError("similarity name must be non-empty")
    _FACTORIES[key] = factory


def get_similarity(name: str, **params: object) -> SimilarityFunction:
    """Instantiate the similarity function registered under ``name``.

    Raises ``KeyError`` with the list of known names on a miss, which
    surfaces configuration typos immediately.
    """
    key = name.strip().lower()
    factory = _FACTORIES.get(key)
    if factory is None:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown similarity function {name!r}; known: {known}")
    return factory(**params)


def available_similarities() -> List[str]:
    """Return the sorted list of registered similarity names."""
    return sorted(_FACTORIES)


def _register_defaults() -> None:
    register_similarity("trigram", lambda **kw: TrigramSimilarity())
    register_similarity("ngram", lambda **kw: DiceNGram(**kw))
    register_similarity("dicengram", lambda **kw: DiceNGram(**kw))
    register_similarity("jaccardngram", lambda **kw: JaccardNGram(**kw))
    register_similarity("levenshtein", lambda **kw: LevenshteinSimilarity())
    register_similarity("editdistance", lambda **kw: LevenshteinSimilarity())
    register_similarity("jaro", lambda **kw: JaroSimilarity())
    register_similarity("jarowinkler", lambda **kw: JaroWinklerSimilarity(**kw))
    register_similarity("tfidf", lambda **kw: TfIdfCosineSimilarity())
    register_similarity("softtfidf", lambda **kw: SoftTfIdfSimilarity(**kw))
    register_similarity("affix", lambda **kw: AffixSimilarity())
    register_similarity("jaccard", lambda **kw: TokenJaccardSimilarity())
    register_similarity("tokenjaccard", lambda **kw: TokenJaccardSimilarity())
    register_similarity("mongeelkan", lambda **kw: MongeElkanSimilarity(**kw))
    register_similarity("personname", lambda **kw: PersonNameSimilarity(**kw))
    register_similarity("name", lambda **kw: PersonNameSimilarity(**kw))
    register_similarity("exact", lambda **kw: ExactSimilarity())
    register_similarity("numeric", lambda **kw: NumericSimilarity(**kw))
    register_similarity("year", lambda **kw: YearSimilarity(**kw))


_register_defaults()
