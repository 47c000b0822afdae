"""Sorted-neighborhood blocking (Hernandez & Stolfo's Merge/Purge).

Instances of both sources are sorted by a key derived from the
blocking attribute and a fixed-size window slides over the merged
order; pairs inside a window become candidates.  Good when errors
preserve prefixes (names); complements token blocking.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.blocking.pair_generator import (
    IterableShard,
    Pair,
    PairGenerator,
    PairShard,
    is_self_match,
    partition_spans,
)
from repro.model.source import LogicalSource
from repro.sim.tokenize import normalize

#: the protocol names the second parameter ``range``, which shadows the
#: builtin inside the methods — keep a module-level alias
_range = range


def default_sort_key(value: object) -> Optional[str]:
    """Normalize the value for ordering; ``None`` values sort nowhere."""
    if value is None:
        return None
    text = normalize(str(value))
    return text if text else None


class SortedNeighborhood(PairGenerator):
    """Sliding-window candidate generation over a lexicographic sort."""

    def __init__(self, window: int = 5,
                 key: Callable[[object], Optional[str]] = default_sort_key) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.key = key

    def _entries(self, domain: LogicalSource, range: LogicalSource,
                 domain_attribute: str,
                 range_attribute: str) -> List[Tuple[str, int, str]]:
        """The merged sort order the windows slide over."""
        # Tag each record with its side so cross-source pairs can be
        # oriented; for self-matching both sides coincide.
        is_self = is_self_match(domain, range)
        entries: List[Tuple[str, int, str]] = []
        for instance in domain:
            sort_key = self.key(instance.get(domain_attribute))
            if sort_key is not None:
                entries.append((sort_key, 0, instance.id))
        if not is_self:
            for instance in range:
                sort_key = self.key(instance.get(range_attribute))
                if sort_key is not None:
                    entries.append((sort_key, 1, instance.id))
        entries.sort()
        return entries

    def _window_pairs(self, entries: List[Tuple[str, int, str]],
                      start: int, end: int,
                      is_self: bool) -> Iterator[Pair]:
        """Window pairs anchored at positions ``[start, end)``.

        The window of the last anchors reaches past ``end`` into the
        following segment, so segment streams overlap-free partition
        the anchor positions while still producing every cross-segment
        pair.  Deduplication is local to the call: global for the one
        segment of the serial stream, segment-wide otherwise.
        """
        emitted: Set[Pair] = set()
        for i in _range(start, end):
            _, side_a, id_a = entries[i]
            upper = min(i + self.window, len(entries))
            for j in _range(i + 1, upper):
                _, side_b, id_b = entries[j]
                if is_self:
                    if id_a == id_b:
                        continue
                    pair = (id_a, id_b) if id_a < id_b else (id_b, id_a)
                elif side_a == 0 and side_b == 1:
                    pair = (id_a, id_b)
                elif side_a == 1 and side_b == 0:
                    pair = (id_b, id_a)
                else:
                    continue
                if pair not in emitted:
                    emitted.add(pair)
                    yield pair

    def shards(self, domain: LogicalSource, range: LogicalSource, *,
               n_shards: int, domain_attribute: str,
               range_attribute: str) -> List[PairShard]:
        """Window segments: contiguous anchor ranges of the sort order.

        Each shard anchors windows at its own positions; windows near
        a segment boundary read (but do not anchor in) the next
        segment, so no pair is lost at the seams.  A pair can repeat
        across shards when the same ids meet in two windows anchored
        in different segments; consumers resolve that idempotently.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        is_self = is_self_match(domain, range)
        entries = self._entries(domain, range,
                                domain_attribute, range_attribute)
        if not entries:
            return []
        spans = partition_spans([1] * len(entries), n_shards)
        # cost estimate: each anchor pairs with at most window - 1
        # followers; windows are count-balanced, so this upper bound
        # weighs segments fairly for the engine's shard rebalancing
        return [
            IterableShard(lambda s=start, e=end: self._window_pairs(
                entries, s, e, is_self),
                cost=(end - start) * (self.window - 1))
            for start, end in spans
        ]
