"""The scalar scorer every kernel is checked against.

:func:`score_pairs` turns candidate pairs into surviving ``(key a,
key b, score)`` triples, one value pair at a time: value pairs
resolved from one :class:`~repro.engine.columns.ValuePairMemo` per
attribute, every score through :meth:`SimilarityFunction.score_batch`
(bit-identical to per-pair ``similarity`` calls), combined per pair.
It runs no request and binds no column; the engine's kernels and the
serve index must reproduce it bit for bit.

A :class:`ChunkScorer` wraps it for one batch match request (the
request's sources, similarity functions, threshold and combiner
captured at construction); :func:`index_scores` wraps it for a serve
index, over the index's live instances.

:func:`reference_ranking` is the serve index's candidate ranking the
same way: a dict of summed token weights, one record at a time, that
``IncrementalIndex.ranked_candidates`` must reproduce bit for bit
(:func:`index_ranking` reads a live index's records into it).
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.core.operators.functions import CombinationFunction
from repro.engine.columns import ValuePair, ValuePairMemo
from repro.engine.request import AttributeSpec, MatchRequest
from repro.serve.index import posting_tokens

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


def index_scores(index, records: Sequence, pairs: Iterable[Tuple[int, str]],
                 threshold: float) -> list:
    """What ``index.score_pairs(records, pairs, threshold=threshold)``
    must answer, as a set-equal list: ``(record index, reference id)``
    pairs scored against the index's live instances (ids that are not
    live drop out) with its specs, combiner and missing policy.

    The index's similarities are used as prepared — TF/IDF document
    frequencies frozen at its last compaction, as the index scores.
    """
    memos = [ValuePairMemo(spec.similarity) for spec in index.specs]
    return score_pairs(pairs, records.__getitem__, index.get, index.specs,
                       memos, index.combiner, index.missing, threshold)


def reference_ranking(live: Iterable[Tuple[int, object]], value: object,
                      max_candidates: int) -> List[Tuple[int, float]]:
    """The best ``max_candidates`` ``(slot, summed weight)`` of ``live``
    ``(slot, match value)`` records for a query ``value``.

    A record's weight adds, in sorted-token order starting from 0.0,
    the weight of every token it shares with ``value``: ``1 / df`` over
    ``live``.  Records summing to 0.0 are no candidates; ties rank by
    slot.
    """
    postings: Dict[str, List[int]] = {}
    for slot, match_value in live:
        for token in posting_tokens(match_value):
            postings.setdefault(token, []).append(slot)
    totals: Dict[int, float] = {}
    for token in posting_tokens(value):
        slots = postings.get(token)
        if not slots:
            continue
        weight = 1.0 / len(slots)
        for slot in slots:
            totals[slot] = totals.get(slot, 0.0) + weight
    ranked = sorted(((slot, total) for slot, total in totals.items()
                     if total != 0.0), key=lambda item: (-item[1], item[0]))
    return ranked[:max_candidates]


def index_ranking(index, value: object, max_candidates: int) \
        -> List[Tuple[int, float]]:
    """What ``index.ranked_candidates(value, max_candidates)`` must
    answer, over the index's live records."""
    attribute = index.specs[0].range_attribute
    live = [(index._id_slots[id], index.get(id).get(attribute))
            for id in index.ids()]
    return reference_ranking(live, value, max_candidates)
