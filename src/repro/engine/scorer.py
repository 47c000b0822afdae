"""Chunk scoring: the scalar reference path.

A :class:`ChunkScorer` turns a chunk of candidate ``(domain id,
range id)`` pairs into surviving ``(domain id, range id, score)``
triples.  It is deliberately self-contained — sources, similarity
functions, threshold and combiner are all captured at construction —
so the *same* object drives both serial execution (one scorer in the
parent process) and parallel execution (one inherited copy per forked
worker, see :mod:`repro.engine.pool`).

Scoring is deterministic and cache-transparent: repeated value pairs
are resolved from a per-attribute
:class:`~repro.engine.columns.ValuePairMemo`, and every path evaluates
the similarity function through
:meth:`SimilarityFunction.score_batch`, which is bit-identical to
per-pair ``similarity`` calls.  Worker-local memos therefore cannot
change results, only speed.  The packed columns
(:mod:`repro.engine.columns`) are checked against this path bit for
bit, and the serve index scores its unpacked buffer rows through the
very same :func:`score_pairs` loop.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.operators.functions import CombinationFunction
from repro.engine.columns import ValuePair, ValuePairMemo
from repro.engine.request import AttributeSpec, MatchRequest

Pair = Tuple[str, str]
Triple = Tuple[str, str, float]


def score_pairs(pairs: Iterable[Tuple[Hashable, Hashable]],
                get_a: Callable, get_b: Callable,
                specs: Sequence[AttributeSpec],
                memos: Sequence[ValuePairMemo],
                combiner: Optional[CombinationFunction],
                missing: str, threshold: float) -> list:
    """The correspondences of ``pairs`` surviving ``threshold``.

    ``get_a`` / ``get_b`` resolve each side's key to its instance (or
    ``None``, which drops the pair).  Per spec, only the chunk's
    distinct value pairs reach ``memos``; a missing value becomes a
    ``None`` slot.  With a ``combiner`` the slots are combined under its
    own missing-value policy; without one (single attribute) a missing
    value produces no correspondence under ``missing='skip'``, while
    ``'zero'`` scores the pair 0.0 — which only a threshold-0 run can
    observe (the ``score > 0`` filter drops it everywhere else).
    """
    records: List[Tuple[Hashable, Hashable, List[Optional[ValuePair]]]] = []
    wanted: List[dict] = [{} for _ in specs]
    for id_a, id_b in pairs:
        instance_a = get_a(id_a)
        instance_b = get_b(id_b)
        if instance_a is None or instance_b is None:
            continue
        keys: List[Optional[ValuePair]] = []
        for index, spec in enumerate(specs):
            value_a = instance_a.get(spec.attribute)
            value_b = instance_b.get(spec.range_attribute)
            if value_a is None or value_b is None:
                keys.append(None)
            else:
                key = (str(value_a), str(value_b))
                keys.append(key)
                wanted[index][key] = None
        records.append((id_a, id_b, keys))
    found = [memo.scores(keys) for memo, keys in zip(memos, wanted)]
    surface_missing = (combiner is None and missing == "zero"
                       and threshold <= 0.0)
    out = []
    append = out.append
    for id_a, id_b, keys in records:
        values = [None if key is None else found[index][key]
                  for index, key in enumerate(keys)]
        score = values[0] if combiner is None else combiner.combine(values)
        if score is None:
            if surface_missing:
                append((id_a, id_b, 0.0))
        elif score >= threshold and score > 0.0:
            append((id_a, id_b, score))
    return out


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
