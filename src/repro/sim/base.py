"""Core interfaces for similarity functions.

A similarity function maps a pair of values to a score in ``[0, 1]``.
MOMA's attribute matchers call :meth:`SimilarityFunction.similarity`
once per candidate pair, so implementations are expected to be cheap
per call and to push any corpus-level work (e.g. TF/IDF statistics)
into :meth:`SimilarityFunction.prepare`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Sequence, Tuple


class SimilarityFunction(ABC):
    """A normalized similarity measure over attribute values.

    Subclasses must implement :meth:`similarity` returning a float in
    ``[0, 1]``.  ``None`` values are handled uniformly here: comparing
    anything with ``None`` yields 0.0 and ``None`` with ``None`` yields
    0.0 as well (missing evidence is not evidence of equality).
    """

    #: short registry name, overridden by subclasses
    name: str = "abstract"

    def prepare(self, values: Iterable[object]) -> None:
        """Absorb corpus-level statistics before pairwise scoring.

        The default implementation does nothing.  Functions such as
        TF/IDF override this to build document-frequency tables from
        the union of both sources' attribute values.
        """

    @abstractmethod
    def _score(self, a: str, b: str) -> float:
        """Score two non-``None`` values, already coerced to ``str``."""

    def similarity(self, a: object, b: object) -> float:
        """Return the similarity of ``a`` and ``b`` in ``[0, 1]``."""
        if a is None or b is None:
            return 0.0
        score = self._score(str(a), str(b))
        # Clamp to guard against floating point drift in implementations.
        if score < 0.0:
            return 0.0
        if score > 1.0:
            return 1.0
        return score

    def score_batch(self, pairs: Sequence[Tuple[str, str]]) -> List[float]:
        """Score many value pairs at once (the batch engine's hot path).

        ``pairs`` follows :meth:`_score`'s contract: values are
        non-``None`` and already coerced to ``str``.  Loops
        :meth:`_score` with the same clamping as :meth:`similarity`: a
        similarity keeps one scoring expression, so whatever a subclass
        makes of ``_score`` is what batches score with, bit-identical
        to per-pair :meth:`similarity` calls — which is what lets
        serial and batched execution agree exactly.
        """
        score = self._score
        out: List[float] = []
        append = out.append
        for a, b in pairs:
            s = score(a, b)
            append(0.0 if s < 0.0 else (1.0 if s > 1.0 else s))
        return out

    def __call__(self, a: object, b: object) -> float:
        return self.similarity(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
