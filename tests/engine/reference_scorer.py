"""The scalar scorer every kernel is checked against.

A :class:`ChunkScorer` turns a chunk of candidate ``(domain id,
range id)`` pairs into surviving ``(domain id, range id, score)``
triples: the request's sources, similarity functions, threshold and
combiner captured at construction, value pairs resolved from one
:class:`~repro.engine.columns.ValuePairMemo` per attribute, every
score through :meth:`SimilarityFunction.score_batch` (bit-identical to
per-pair ``similarity`` calls).  It runs no request; the engine's
kernels must reproduce it bit for bit.  Its loop is
:func:`repro.engine.scorer.score_pairs`, which the serve index scores
its unpacked buffer rows with.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.engine.columns import ValuePairMemo
from repro.engine.request import MatchRequest
from repro.engine.scorer import score_pairs

Pair = Tuple[str, str]
Triple = Tuple[str, str, float]


class ChunkScorer:
    """Score chunks of candidate pairs for one match request."""

    def __init__(self, request: MatchRequest, *,
                 cache_limit: int = 1 << 20) -> None:
        self.domain = request.domain
        self.range = request.range
        self.specs = list(request.specs)
        self.threshold = request.threshold
        self.combiner = request.combiner
        self.missing = request.missing
        self.memos = [ValuePairMemo(spec.similarity, cache_limit)
                      for spec in self.specs]

    def score_chunk(self, pairs: Sequence[Pair]) -> List[Triple]:
        """Return the correspondences of ``pairs`` surviving the threshold."""
        return score_pairs(pairs, self.domain.get, self.range.get,
                           self.specs, self.memos, self.combiner,
                           self.missing, self.threshold)
