"""Similarity-function library used by MOMA's attribute matchers.

The paper's generic attribute matcher is "provided with a pair of
attributes to be matched, a similarity function to be evaluated (e.g.
n-gram, TF/IDF or affix) and a similarity threshold".  This package
supplies those similarity functions plus the string-metric families that
are standard in the record-linkage literature the paper cites
(Cohen et al., "A Comparison of String Distance Metrics for
Name-Matching Tasks").

Every function is exposed both as a class implementing
:class:`~repro.sim.base.SimilarityFunction` and through the string
registry :func:`~repro.sim.registry.get_similarity`, which is what the
script language and the matcher configuration layer use.
"""

from repro.sim.affix import AffixSimilarity, common_prefix_length, common_suffix_length
from repro.sim.base import SimilarityFunction
from repro.sim.edit import (
    JaroSimilarity,
    JaroWinklerSimilarity,
    LevenshteinSimilarity,
    damerau_levenshtein_distance,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
)
from repro.sim.hybrid import (
    ExactSimilarity,
    MongeElkanSimilarity,
    PersonNameSimilarity,
    TokenJaccardSimilarity,
)
from repro.sim.ngram import DiceNGram, JaccardNGram, NGramSimilarity, TrigramSimilarity
from repro.sim.numeric import NumericSimilarity, YearSimilarity
from repro.sim.registry import available_similarities, get_similarity, register_similarity
from repro.sim.tfidf import SoftTfIdfSimilarity, TfIdfCosineSimilarity
from repro.sim.tokenize import (
    normalize,
    qgrams,
    strip_punctuation,
    word_tokens,
)

__all__ = [
    "AffixSimilarity",
    "DiceNGram",
    "ExactSimilarity",
    "JaccardNGram",
    "JaroSimilarity",
    "JaroWinklerSimilarity",
    "LevenshteinSimilarity",
    "MongeElkanSimilarity",
    "NGramSimilarity",
    "NumericSimilarity",
    "PersonNameSimilarity",
    "SimilarityFunction",
    "SoftTfIdfSimilarity",
    "TfIdfCosineSimilarity",
    "TokenJaccardSimilarity",
    "TrigramSimilarity",
    "YearSimilarity",
    "available_similarities",
    "common_prefix_length",
    "common_suffix_length",
    "damerau_levenshtein_distance",
    "get_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "normalize",
    "qgrams",
    "register_similarity",
    "strip_punctuation",
    "word_tokens",
]
