"""The set-based ``evaluate``, kept as the oracle for the columnar one.

This is how :func:`repro.eval.metrics.evaluate` counted before it moved
onto the mappings' int64 pair keys: two Python sets of id-string
tuples per call — the gold mapping's rebuilt every time — filtered by
``restrict`` pair by pair and intersected.  Equality with it is field
by field on :class:`~repro.eval.metrics.MatchQuality`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.mapping import Mapping
from repro.eval.metrics import MatchQuality, evaluate_pairs

Pair = Tuple[str, str]


def evaluate(predicted: Mapping, gold: Mapping,
             *, restrict: Optional[Callable[[Pair], bool]] = None
             ) -> MatchQuality:
    predicted_pairs = predicted.pairs()
    gold_pairs = gold.pairs()
    if restrict is not None:
        predicted_pairs = {pair for pair in predicted_pairs if restrict(pair)}
        gold_pairs = {pair for pair in gold_pairs if restrict(pair)}
    return evaluate_pairs(predicted_pairs, gold_pairs)
