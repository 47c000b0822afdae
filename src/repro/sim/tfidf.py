"""TF/IDF cosine similarity and its SoftTFIDF relaxation.

The paper lists TF/IDF as one of the attribute matcher's pluggable
similarity functions.  These are corpus-aware: :meth:`prepare` must be
called with the union of both sources' attribute values before scoring
so that document frequencies are meaningful.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Tuple

from repro.sim.base import SimilarityFunction
from repro.sim.edit import jaro_winkler_similarity
from repro.sim.tokenize import word_tokens


class TfIdfCosineSimilarity(SimilarityFunction):
    """Cosine similarity over L2-normalized TF/IDF token vectors.

    IDF uses the smoothed form ``log(1 + N / df)``.  Tokens unseen at
    :meth:`prepare` time receive the maximum IDF (they are rarer than
    anything in the corpus).  Without :meth:`prepare`, every token gets
    IDF 1 and the measure degrades gracefully to plain TF cosine.
    """

    name = "tfidf"

    def __init__(self) -> None:
        self._idf: Dict[str, float] = {}
        self._default_idf = 1.0
        self._corpus_size = 0
        self._vector_cache: Dict[str, Dict[str, float]] = {}

    def prepare(self, values: Iterable[object]) -> None:
        document_frequency: Dict[str, int] = {}
        size = 0
        for value in values:
            if value is None:
                continue
            size += 1
            # sorted: keeps the document-frequency (and derived _idf)
            # dict order independent of the string hash seed
            for token in sorted(set(word_tokens(str(value)))):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        self._corpus_size = size
        self._idf = {
            token: math.log(1.0 + size / df)
            for token, df in document_frequency.items()
        }
        self._default_idf = math.log(1.0 + max(size, 1))
        self._vector_cache.clear()

    def idf(self, token: str) -> float:
        """Return the IDF weight of ``token`` under the prepared corpus."""
        if not self._idf:
            return 1.0
        return self._idf.get(token, self._default_idf)

    def vector(self, text: str) -> Dict[str, float]:
        """Return (and cache) the L2-normalized TF/IDF vector of ``text``."""
        cached = self._vector_cache.get(text)
        if cached is not None:
            return cached
        counts: Dict[str, int] = {}
        for token in word_tokens(text):
            counts[token] = counts.get(token, 0) + 1
        weights = {
            token: count * self.idf(token) for token, count in counts.items()
        }
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0:
            weights = {token: w / norm for token, w in weights.items()}
        self._vector_cache[text] = weights
        return weights

    def value_vector(self, value: object) -> Dict[str, float]:
        """Prepared vector of a raw attribute value (``None`` → empty).

        This is the packing contract of the engine's sparse TF/IDF
        column (:mod:`repro.engine.columns`): every source row is
        exactly ``value_vector(instance.get(attribute))``, so the
        packed CSR arrays hold bit-identical weights to the ones the
        scalar paths read from the vector cache.
        """
        if value is None:
            return {}
        return self.vector(str(value))

    def _score(self, a: str, b: str) -> float:
        # Iterate the smaller vector; on equal sizes, the vector of
        # the lexicographically smaller text.  The tie-break makes
        # _score(a, b) bit-identical to _score(b, a): a sum over the
        # same products in the same order regardless of argument
        # order.  The engine's block-vectorized sharded mode relies on
        # this — it may expand a self-matching pair in either
        # orientation and must still reproduce serial scores exactly.
        vec_a = self.vector(a)
        vec_b = self.vector(b)
        if len(vec_b) < len(vec_a) or (len(vec_b) == len(vec_a) and b < a):
            vec_a, vec_b = vec_b, vec_a
        return sum(weight * vec_b.get(token, 0.0) for token, weight in vec_a.items())


class SoftTfIdfSimilarity(TfIdfCosineSimilarity):
    """SoftTFIDF (Cohen et al. 2003): TF/IDF with fuzzy token matching.

    Tokens of ``a`` are matched to their most similar token of ``b``
    under a secondary character-level similarity (Jaro-Winkler by
    default); pairs above ``token_threshold`` contribute the product of
    their TF/IDF weights scaled by the secondary similarity.
    """

    name = "softtfidf"

    def __init__(self, token_threshold: float = 0.9) -> None:
        super().__init__()
        if not 0.0 < token_threshold <= 1.0:
            raise ValueError("token_threshold must be in (0, 1]")
        self.token_threshold = token_threshold

    def _best_partner(self, token: str, candidates: Iterable[str]) -> Tuple[str, float]:
        best_token, best_sim = "", 0.0
        for other in candidates:
            sim = 1.0 if token == other else jaro_winkler_similarity(token, other)
            if sim > best_sim:
                best_token, best_sim = other, sim
        return best_token, best_sim

    def _score(self, a: str, b: str) -> float:
        vec_a = self.vector(a)
        vec_b = self.vector(b)
        if not vec_a or not vec_b:
            return 0.0
        total = 0.0
        for token, weight in vec_a.items():
            partner, sim = self._best_partner(token, vec_b)
            if sim >= self.token_threshold:
                total += weight * vec_b[partner] * sim
        return total
