"""Precision / recall / F-measure against a perfect mapping.

Correspondences count as unordered facts: a predicted pair is a true
positive iff it appears in the gold mapping (similarities are ignored
— selection has already happened by the time a mapping is evaluated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

import numpy as np

from repro.core.mapping import Columns, Mapping

Pair = Tuple[str, str]


@dataclass(frozen=True)
class MatchQuality:
    """One evaluation outcome."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    predicted: int
    gold: int

    def as_row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.true_positives,
            "predicted": self.predicted,
            "gold": self.gold,
        }


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _quality(true_positives: int, predicted: int, gold: int) -> MatchQuality:
    """P/R/F from the three counts (0 where a denominator is)."""
    precision = true_positives / predicted if predicted else 0.0
    recall = true_positives / gold if gold else 0.0
    return MatchQuality(
        precision=precision, recall=recall,
        f1=f_measure(precision, recall),
        true_positives=true_positives, predicted=predicted, gold=gold,
    )


def evaluate_pairs(predicted: Set[Pair], gold: Set[Pair]) -> MatchQuality:
    """Evaluate explicit pair sets."""
    return _quality(len(predicted & gold), len(predicted), len(gold))


def precision_recall_f1(predicted: Set[Pair],
                        gold: Set[Pair]) -> Tuple[float, float, float]:
    """Plain set-based P/R/F over pair sets."""
    quality = evaluate_pairs(predicted, gold)
    return quality.precision, quality.recall, quality.f1


def _restricted(mapping: Mapping,
                restrict: Optional[Callable[[Pair], bool]]) -> Columns:
    """``mapping``'s table, cut to the rows whose pair ``restrict`` keeps."""
    columns = mapping.columns()
    if restrict is None:
        return columns
    return columns.take(np.fromiter(map(restrict, mapping.id_pairs()),
                                    dtype=np.bool_, count=len(mapping)))


def evaluate(predicted: Mapping, gold: Mapping,
             *, restrict: Optional[Callable[[Pair], bool]] = None
             ) -> MatchQuality:
    """Evaluate a predicted mapping against the perfect mapping.

    ``restrict`` optionally limits the evaluation universe — e.g. to
    conference publications only, for the per-group rows of Tables 4
    and 5.  The filter applies to both predicted and gold pairs.

    Counted on the two tables' int64 pair keys, the gold's read in the
    predicted mapping's id spaces (:meth:`Columns.isin`), so a gold
    standard declared under other source names still compares by id.
    """
    predicted_rows = _restricted(predicted, restrict)
    gold_rows = _restricted(gold, restrict)
    return _quality(int(np.count_nonzero(predicted_rows.isin(gold_rows))),
                    len(predicted_rows.sims), len(gold_rows.sims))
