"""Selection of correspondences (paper §3.3).

Selection is the second half of a mapping combiner: it "eliminate[s]
less likely correspondences from a same-mapping".  MOMA supports
Threshold, Best-n, Best-1+Delta and domain-specific object value
constraints; selections compose, so a combiner can e.g. threshold and
then enforce a year constraint.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.correspondence import Correspondence
from repro.core.mapping import Mapping
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource


class Selection(ABC):
    """A filter from mapping to mapping."""

    @abstractmethod
    def apply(self, mapping: Mapping) -> Mapping:
        """Return a new mapping containing the selected correspondences."""

    def __call__(self, mapping: Mapping) -> Mapping:
        return self.apply(mapping)


class ThresholdSelection(Selection):
    """Keep correspondences at or above a similarity threshold.

    ``strict=True`` switches to a strictly-greater comparison (the
    paper says "above a given similarity value"; inclusive is the
    common reading and our default, e.g. the 80 % threshold of §5.2).
    """

    def __init__(self, threshold: float, *, strict: bool = False) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
        self.threshold = threshold
        self.strict = strict

    def apply(self, mapping: Mapping) -> Mapping:
        sims = mapping.columns().sims
        return mapping.take(sims > self.threshold if self.strict
                            else sims >= self.threshold)

    def __repr__(self) -> str:
        op = ">" if self.strict else ">="
        return f"ThresholdSelection(sim {op} {self.threshold})"


class _PerInstanceSelection(Selection):
    """Keeps, per instance, the correspondences at or above a cut-off.

    ``side`` selects the grouping: ``"domain"`` cuts per domain
    instance, ``"range"`` per range instance, and ``"both"`` keeps a
    correspondence only if it survives both groupings (the strictest
    reading, useful for 1:1 same-mappings).
    """

    def __init__(self, side: str) -> None:
        if side not in ("domain", "range", "both"):
            raise ValueError(f"side must be domain|range|both, got {side!r}")
        self.side = side

    @abstractmethod
    def _cutoffs(self, sims: Any, group: Any, sizes: Any) -> Any:
        """Per group the smallest similarity kept; row ``i`` (similarity
        ``sims[i]``) is in group ``group[i]``, of ``sizes[group[i]]`` rows."""

    def _kept(self, codes: Any, sims: Any) -> Any:
        _, group, sizes = np.unique(codes, return_inverse=True,
                                    return_counts=True)
        return sims >= self._cutoffs(sims, group, sizes)[group]

    def apply(self, mapping: Mapping) -> Mapping:
        columns = mapping.columns()
        keep = np.ones(len(columns.sims), dtype=np.bool_)
        if self.side in ("domain", "both"):
            keep &= self._kept(columns.domain, columns.sims)
        if self.side in ("range", "both"):
            keep &= self._kept(columns.range, columns.sims)
        return mapping.take(keep)


class BestNSelection(_PerInstanceSelection):
    """Keep the n most similar correspondences per instance.

    Ties at the cut-off similarity are all kept, so Best-1 never drops
    one of two equally good candidates arbitrarily.
    """

    def __init__(self, n: int = 1, *, side: str = "domain") -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        super().__init__(side)
        self.n = n

    def _cutoffs(self, sims: Any, group: Any, sizes: Any) -> Any:
        # rows by group, best first: a group's n-th row is its cut-off
        ranked = sims[np.lexsort((-sims, group))]
        nth = np.cumsum(sizes) - sizes + self.n - 1
        return np.where(sizes > self.n,
                        ranked[np.minimum(nth, len(ranked) - 1)], -np.inf)

    def __repr__(self) -> str:
        return f"BestNSelection(n={self.n}, side={self.side!r})"


class Best1DeltaSelection(_PerInstanceSelection):
    """Best correspondence per instance plus near-ties within delta.

    "The correspondence with maximal similarity value is determined for
    all domain (range) instances plus all correspondences with a
    similarity differing at most by a tolerance value d", where d is
    absolute or relative (§3.3).
    """

    def __init__(self, delta: float, *, relative: bool = False,
                 side: str = "domain") -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta!r}")
        if relative and delta > 1:
            raise ValueError("relative delta must be within [0, 1]")
        super().__init__(side)
        self.delta = delta
        self.relative = relative

    def _cutoffs(self, sims: Any, group: Any, sizes: Any) -> Any:
        best = np.zeros(len(sizes), dtype=np.float64)
        np.maximum.at(best, group, sims)
        return best * (1.0 - self.delta) if self.relative \
            else best - self.delta

    def __repr__(self) -> str:
        kind = "relative" if self.relative else "absolute"
        return f"Best1DeltaSelection(delta={self.delta} {kind}, side={self.side!r})"


class ConstraintSelection(Selection):
    """Object value constraint over the matched instances (§3.3).

    The predicate receives the resolved domain and range
    :class:`ObjectInstance` objects.  Instances missing from the
    provided sources fail the constraint (``keep_unresolved=False``) or
    pass it (``True``), depending on whether the constraint is meant to
    be a hard filter or an opportunistic cleanup.
    """

    def __init__(self, domain_source: LogicalSource, range_source: LogicalSource,
                 predicate: Callable[[ObjectInstance, ObjectInstance], bool],
                 *, keep_unresolved: bool = False) -> None:
        self.domain_source = domain_source
        self.range_source = range_source
        self.predicate = predicate
        self.keep_unresolved = keep_unresolved

    def apply(self, mapping: Mapping) -> Mapping:
        def keep(corr: Correspondence) -> bool:
            instance_a = self.domain_source.get(corr.domain)
            instance_b = self.range_source.get(corr.range)
            if instance_a is None or instance_b is None:
                return self.keep_unresolved
            return bool(self.predicate(instance_a, instance_b))

        return mapping.filter(keep)


class MaxAttributeDifference(ConstraintSelection):
    """Numeric attribute difference constraint, e.g. |Δyear| <= 1.

    The paper's running example: "the publication year of matching
    publications should not differ by more than one year".  Pairs with
    unparsable or missing values are kept by default (absence of the
    optional year in Google Scholar must not destroy recall).
    """

    def __init__(self, domain_source: LogicalSource, range_source: LogicalSource,
                 attribute: str, max_difference: float,
                 *, keep_missing: bool = True) -> None:
        if max_difference < 0:
            raise ValueError("max_difference must be non-negative")
        self.attribute = attribute
        self.max_difference = max_difference
        self.keep_missing = keep_missing

        def predicate(instance_a: ObjectInstance, instance_b: ObjectInstance) -> bool:
            value_a = _as_float(instance_a.get(attribute))
            value_b = _as_float(instance_b.get(attribute))
            if value_a is None or value_b is None:
                return keep_missing
            return abs(value_a - value_b) <= max_difference

        super().__init__(domain_source, range_source, predicate,
                         keep_unresolved=keep_missing)


class NotIdentity(Selection):
    """Drop trivial self-correspondences (``[domain.id]<>[range.id]``)."""

    def apply(self, mapping: Mapping) -> Mapping:
        return mapping.without_identity()


class CompositeSelection(Selection):
    """Apply a sequence of selections left to right."""

    def __init__(self, selections: Sequence[Selection]) -> None:
        self.selections = list(selections)

    def apply(self, mapping: Mapping) -> Mapping:
        for selection in self.selections:
            mapping = selection.apply(mapping)
        return mapping


def _as_float(value: object) -> Optional[float]:
    try:
        return float(str(value).strip())
    except (TypeError, ValueError):
        return None


def select(mapping: Mapping, *selections: Selection) -> Mapping:
    """Apply ``selections`` to ``mapping`` in order (convenience)."""
    for selection in selections:
        mapping = selection.apply(mapping)
    return mapping
