"""The dict-walking operators, kept as the oracle for the array kernels.

These are the loops ``repro.core.operators`` ran before the mapping
core went columnar: one Python step per compose path, per merged pair,
per correspondence of an instance.  They only touch a mapping's public
dict API (``by_domain`` / ``by_range`` / ``get`` / ``add``), add path
sums left to right, and insert results with ``Mapping.add`` — so
``list(reference)`` *defines* the similarity bits and the iteration
order the kernels must reproduce.

Merge differs from the historical loop in one documented way: the old
body walked a ``set`` of pairs, so its output order followed
``PYTHONHASHSEED``.  The oracle fixes the order the kernels promise —
pairs by first occurrence over the inputs in input order, then
``Mapping.add`` regroups them by domain.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import Mapping, MappingKind
from repro.core.operators.functions import get_combination


class _PathStats:
    """Running aggregates over the compose paths of one output pair."""

    __slots__ = ("total", "minimum", "maximum", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.minimum = 1.0
        self.maximum = 0.0
        self.count = 0

    def update(self, value: float) -> None:
        self.total += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value


def compose(map1: Mapping, map2: Mapping, f="min", g: str = "avg", *,
            kind: Optional[MappingKind] = None,
            name: Optional[str] = None) -> Mapping:
    """``compose`` one path at a time; ``g`` is a normalized aggregate
    (``avg`` / ``min`` / ``max`` / ``sum`` / ``relative`` /
    ``relative_left`` / ``relative_right``)."""
    combiner = get_combination(f)
    if kind is None:
        both_same = (map1.kind == MappingKind.SAME
                     and map2.kind == MappingKind.SAME)
        kind = MappingKind.SAME if both_same else MappingKind.ASSOCIATION

    stats: Dict[Tuple[str, str], _PathStats] = {}
    map2_by_domain = map2.by_domain
    for a, row1 in map1.by_domain.items():
        for c, sim1 in row1.items():
            row2 = map2_by_domain.get(c)
            if not row2:
                continue
            for b, sim2 in row2.items():
                path_sim = combiner.combine((sim1, sim2))
                if path_sim is None:
                    continue
                key = (a, b)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = _PathStats()
                entry.update(path_sim)

    result = Mapping(map1.domain, map2.range, kind=kind, name=name)
    for (a, b), entry in stats.items():
        if g == "avg":
            similarity = entry.total / entry.count
        elif g == "min":
            similarity = entry.minimum
        elif g == "max":
            similarity = entry.maximum
        elif g == "sum":
            similarity = min(1.0, entry.total)
        elif g == "relative_left":
            similarity = entry.total / map1.out_degree(a)
        elif g == "relative_right":
            similarity = entry.total / map2.in_degree(b)
        else:  # relative
            denominator = map1.out_degree(a) + map2.in_degree(b)
            similarity = 2.0 * entry.total / denominator
        if similarity > 1.0:
            similarity = 1.0
        if similarity > 0.0:
            result.add(a, b, similarity)
    return result


def merge(mappings: Sequence[Mapping], function="avg", *,
          weights: Optional[Sequence[float]] = None,
          name: Optional[str] = None) -> Mapping:
    """``merge`` one pair at a time (combination functions only)."""
    combiner = get_combination(function, weights=weights)
    result = Mapping(mappings[0].domain, mappings[0].range,
                     kind=MappingKind.SAME, name=name)
    all_pairs: Dict[Tuple[str, str], None] = {}
    for mapping in mappings:
        for domain_id, row in mapping.by_domain.items():
            for range_id in row:
                all_pairs[(domain_id, range_id)] = None
    for domain_id, range_id in all_pairs:
        values = [mapping.get(domain_id, range_id) for mapping in mappings]
        combined = combiner.combine(values)
        if combined is not None and combined > 0.0:
            result.add(domain_id, range_id, combined)
    return result


def merge_prefer(mappings: Sequence[Mapping], preferred_index: int,
                 name: Optional[str] = None) -> Mapping:
    """PreferMap one row at a time."""
    preferred = mappings[preferred_index]
    result = Mapping(preferred.domain, preferred.range,
                     kind=MappingKind.SAME, name=name)
    for domain_id, range_id, similarity in preferred:
        result.add(domain_id, range_id, similarity)
    covered = preferred.domain_ids()
    for index, mapping in enumerate(mappings):
        if index == preferred_index:
            continue
        for domain_id, row in mapping.by_domain.items():
            if domain_id in covered:
                continue
            for range_id, similarity in row.items():
                result.add(domain_id, range_id, similarity, on_conflict="max")
    return result


def _filter(mapping: Mapping, keep) -> Mapping:
    result = Mapping(mapping.domain, mapping.range, kind=mapping.kind)
    for correspondence in mapping:
        if keep(correspondence):
            result.add(*correspondence)
    return result


def _select_sides(mapping: Mapping, side: str, survivors) -> Mapping:
    domain_ok = range_ok = None
    if side in ("domain", "both"):
        domain_ok = survivors(mapping.by_domain)
    if side in ("range", "both"):
        range_ok = {(domain, range_)
                    for range_, domain in survivors(mapping.by_range)}

    def keep(corr) -> bool:
        pair = (corr.domain, corr.range)
        if domain_ok is not None and pair not in domain_ok:
            return False
        return range_ok is None or pair in range_ok

    return _filter(mapping, keep)


def threshold(mapping: Mapping, threshold: float, *,
              strict: bool = False) -> Mapping:
    if strict:
        return _filter(mapping, lambda c: c.similarity > threshold)
    return _filter(mapping, lambda c: c.similarity >= threshold)


def best_n(mapping: Mapping, n: int, side: str) -> Mapping:
    def survivors(grouped):
        kept = set()
        for key, row in grouped.items():
            if len(row) <= n:
                kept.update((key, other) for other in row)
                continue
            cutoff = sorted(row.values(), reverse=True)[n - 1]
            kept.update((key, other) for other, sim in row.items()
                        if sim >= cutoff)
        return kept

    return _select_sides(mapping, side, survivors)


def best1_delta(mapping: Mapping, delta: float, relative: bool,
                side: str) -> Mapping:
    def survivors(grouped):
        kept = set()
        for key, row in grouped.items():
            best = max(row.values())
            cutoff = best * (1.0 - delta) if relative else best - delta
            kept.update((key, other) for other, sim in row.items()
                        if sim >= cutoff)
        return kept

    return _select_sides(mapping, side, survivors)


def inverse(mapping: Mapping) -> Mapping:
    inverted = Mapping(mapping.range, mapping.domain, kind=mapping.kind)
    for domain_id, range_id, similarity in mapping:
        inverted.add(range_id, domain_id, similarity)
    return inverted


def without_identity(mapping: Mapping) -> Mapping:
    return _filter(mapping, lambda corr: corr.domain != corr.range)


def restrict(mapping: Mapping, ids, side: str) -> Mapping:
    """``restrict_domain`` / ``restrict_range`` in the mapping's own order."""
    wanted = set(ids)
    position = 0 if side == "domain" else 1
    return _filter(mapping, lambda corr: corr[position] in wanted)


def distinct_keys(keys):
    """``repro.core.mapping.distinct_keys`` as it was: ``np.unique``'s
    stable sort, then the groups ranked by their first rows."""
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def first_rows(coded):
    """The first row of every code, ascending by code — what
    ``repro.engine.columns.value_codes`` asked ``np.unique`` for."""
    return np.unique(coded, return_index=True)[1]
