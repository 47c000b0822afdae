"""Similarity combination functions shared by merge and compose.

§3.1 lists Avg / Min / Max / Weighted / PreferMap_i for the merge
operator, with a per-function choice of how to treat correspondences
missing from some input mappings: the default "ignores such missing
correspondences and only considers the available similarity values"
(useful for incomplete mappings), while the ``-0`` variants "assume a
similarity value of 0 for a missing correspondence in order to improve
precision" — Min-0 is exactly mapping intersection.

The compose operator re-uses the same functions to combine the two
path similarities ``s_i1`` and ``s_i2`` (§3.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Optional, Sequence, Tuple, TypeVar, cast

import numpy as np

Number = TypeVar("Number")  # a float, or a whole column of them


def ordered_sum(values: Iterable[Number]) -> Number:
    """``values`` added left to right from 0.0, one rounding per add.

    The one sum behind every averaged similarity, for floats and for
    whole columns alike.  Builtin ``sum`` compensates float sums from
    CPython 3.12 on and ``np.add.reduce`` adds pairwise; either would
    change last bits with the interpreter or the group size.
    """
    total: Any = 0.0
    for value in values:
        total = total + value
    return cast(Number, total)


class CombinationFunction(ABC):
    """Combines per-input similarity values into one similarity.

    ``values`` has one entry per input mapping; ``None`` marks a
    missing correspondence.  Returning ``None`` means the combined
    correspondence is dropped from the result (e.g. Min-0 for a pair
    absent from one input).
    """

    #: registry name
    name: str = "abstract"
    #: whether missing correspondences count as similarity 0
    missing_as_zero: bool = False

    @abstractmethod
    def combine(self, values: Sequence[Optional[float]]) -> Optional[float]:
        """Combine one value (or ``None``) per input mapping."""

    def _effective(self, values: Sequence[Optional[float]]) -> Optional[list[float]]:
        """Resolve missing values per the function's policy.

        Returns the list of values to aggregate, or ``None`` when the
        correspondence should be dropped (no values at all).
        """
        if self.missing_as_zero:
            return [0.0 if value is None else value for value in values]
        present = [value for value in values if value is not None]
        return present if present else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(missing_as_zero={self.missing_as_zero})"


class AvgFunction(CombinationFunction):
    """Average of the similarities (Avg / Avg-0)."""

    def __init__(self, missing_as_zero: bool = False) -> None:
        self.missing_as_zero = missing_as_zero
        self.name = "avg0" if missing_as_zero else "avg"

    def combine(self, values: Sequence[Optional[float]]) -> Optional[float]:
        effective = self._effective(values)
        if effective is None:
            return None
        return ordered_sum(effective) / len(effective)


class MinFunction(CombinationFunction):
    """Minimum similarity (Min / Min-0 = intersection semantics).

    With ``missing_as_zero`` a missing correspondence forces the
    minimum to 0; such zero correspondences are dropped, which
    "filter[s] away all correspondences which are not present in all
    input mappings" (§3.1, Fig. 4).
    """

    def __init__(self, missing_as_zero: bool = False) -> None:
        self.missing_as_zero = missing_as_zero
        self.name = "min0" if missing_as_zero else "min"

    def combine(self, values: Sequence[Optional[float]]) -> Optional[float]:
        if self.missing_as_zero and any(value is None for value in values):
            return None
        effective = self._effective(values)
        if effective is None:
            return None
        return min(effective)


class MaxFunction(CombinationFunction):
    """Maximum similarity; missing values can never win, so the
    missing-as-zero distinction is irrelevant here (union semantics)."""

    name = "max"

    def combine(self, values: Sequence[Optional[float]]) -> Optional[float]:
        present = [value for value in values if value is not None]
        return max(present) if present else None


class WeightedFunction(CombinationFunction):
    """Weighted average with one weight per input mapping.

    With the default missing-handling, weights of missing inputs are
    excluded and the remaining weights renormalized; with
    ``missing_as_zero`` missing inputs contribute 0 at full weight.
    """

    def __init__(self, weights: Sequence[float], missing_as_zero: bool = False) -> None:
        if not weights:
            raise ValueError("weights must be non-empty")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be non-negative")
        if sum(weights) <= 0:
            raise ValueError("at least one weight must be positive")
        self.weights = [float(weight) for weight in weights]
        self.missing_as_zero = missing_as_zero
        self.name = "weighted0" if missing_as_zero else "weighted"

    def combine(self, values: Sequence[Optional[float]]) -> Optional[float]:
        if len(values) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} values, got {len(values)}"
            )
        if self.missing_as_zero:
            total = ordered_sum(
                weight * (0.0 if value is None else value)
                for weight, value in zip(self.weights, values)
            )
            return total / ordered_sum(self.weights)
        pairs = [
            (weight, value)
            for weight, value in zip(self.weights, values)
            if value is not None
        ]
        if not pairs:
            return None
        weight_sum = ordered_sum(weight for weight, _ in pairs)
        if weight_sum <= 0:
            return None
        return ordered_sum(
            weight * value for weight, value in pairs) / weight_sum


def combine_columns(combiner: CombinationFunction, columns: Sequence[Any],
                    present: Sequence[Any]) -> Tuple[Any, Any]:
    """``combiner.combine`` over whole columns: ``(scores, valid)``.

    ``columns[i][row]`` is input ``i``'s similarity for a row and
    ``present[i][row]`` whether it has one (a ``None`` slot otherwise).
    ``valid`` is False where ``combine`` returns ``None``; ``scores``
    is 0.0 there.  Array implementations exist for the exact avg / min
    / max / weighted classes (covering their ``-0`` variants); any
    subclass is called row by row.  Either way the scores are
    bit-identical to the scalar calls: sums go through
    :func:`ordered_sum` with missing slots contributing an exact
    ``+0.0`` (which IEEE addition cannot observe on non-negative
    similarities), min/max perform no arithmetic, and divisions divide
    the same two float64 values.
    """
    count = len(columns[0])
    available = np.zeros(count, dtype=np.int64)
    for mask in present:
        available += mask
    some = available > 0
    if type(combiner) is AvgFunction:
        total = ordered_sum(np.where(mask, column, 0.0)
                            for column, mask in zip(columns, present))
        if combiner.missing_as_zero:
            return total / len(columns), np.ones(count, dtype=np.bool_)
        return np.where(some, total / np.maximum(available, 1), 0.0), some
    if type(combiner) is MinFunction:
        valid = available == len(columns) if combiner.missing_as_zero \
            else some
        low = np.minimum.reduce([np.where(mask, column, np.inf)
                                 for column, mask in zip(columns, present)])
        return np.where(valid, low, 0.0), valid
    if type(combiner) is MaxFunction:
        high = np.maximum.reduce([np.where(mask, column, -np.inf)
                                  for column, mask in zip(columns, present)])
        return np.where(some, high, 0.0), some
    if type(combiner) is WeightedFunction \
            and len(combiner.weights) == len(columns):
        total = ordered_sum(
            np.where(mask, weight * column, 0.0)
            for weight, column, mask in zip(combiner.weights, columns,
                                            present))
        if combiner.missing_as_zero:
            return (total / ordered_sum(combiner.weights),
                    np.ones(count, dtype=np.bool_))
        weight_sum = ordered_sum(
            np.where(mask, weight, 0.0)
            for weight, mask in zip(combiner.weights, present))
        valid = weight_sum > 0.0
        return np.where(valid, total / np.where(valid, weight_sum, 1.0),
                        0.0), valid
    # a custom subclass: row by row through the scalar API
    scores = np.zeros(count, dtype=np.float64)
    valid = np.zeros(count, dtype=np.bool_)
    cells = [[value if there else None
              for value, there in zip(column.tolist(), mask.tolist())]
             for column, mask in zip(columns, present)]
    for row, values in enumerate(zip(*cells)):
        score = combiner.combine(list(values))
        if score is not None:
            scores[row], valid[row] = score, True
    return scores, valid


_ALIASES = {
    "avg": ("avg", False),
    "average": ("avg", False),
    "avg0": ("avg", True),
    "avg-0": ("avg", True),
    "min": ("min", False),
    "minimum": ("min", False),
    "min0": ("min", True),
    "min-0": ("min", True),
    "intersect": ("min", True),
    "max": ("max", False),
    "maximum": ("max", False),
    "union": ("max", False),
}


def get_combination(spec: object, *,
                    weights: Optional[Sequence[float]] = None) -> CombinationFunction:
    """Resolve a combination-function specification.

    Accepts an existing :class:`CombinationFunction` (returned as-is),
    or a case-insensitive name: ``avg``/``average``, ``min``, ``max``
    and their ``-0`` variants, or ``weighted`` (requires ``weights``).
    """
    if isinstance(spec, CombinationFunction):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"cannot interpret combination function {spec!r}")
    key = spec.strip().lower()
    if key in ("weighted", "weighted0", "weighted-0"):
        if weights is None:
            raise ValueError("weighted combination requires weights")
        return WeightedFunction(weights, missing_as_zero=key != "weighted")
    resolved = _ALIASES.get(key)
    if resolved is None:
        known = sorted(set(_ALIASES) | {"weighted"})
        raise KeyError(f"unknown combination function {spec!r}; known: {known}")
    base, missing_as_zero = resolved
    if base == "avg":
        return AvgFunction(missing_as_zero)
    if base == "min":
        return MinFunction(missing_as_zero)
    return MaxFunction()
