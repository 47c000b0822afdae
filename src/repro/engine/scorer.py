"""Scalar scoring of keyed pairs: the reference loop.

:func:`score_pairs` turns candidate pairs into surviving ``(key a,
key b, score)`` triples, one value pair at a time.  It is
deterministic and cache-transparent: repeated value pairs are resolved
from a per-attribute :class:`~repro.engine.columns.ValuePairMemo`, and
every score goes through :meth:`SimilarityFunction.score_batch`, which
is bit-identical to per-pair ``similarity`` calls.  The serve index
scores its unpacked buffer rows with it, and the packed columns
(:mod:`repro.engine.columns`) are checked against it bit for bit.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.operators.functions import CombinationFunction
from repro.engine.columns import ValuePair, ValuePairMemo
from repro.engine.request import AttributeSpec


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
