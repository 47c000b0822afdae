"""The mapping cache (paper §2.2, Figure 3).

"MOMA also maintains a mapping cache for storing intermediate
same-mappings derived during a match workflow."  A bounded LRU keyed
by the name a step publishes its result under; entries are whole
Mapping objects, so a step's output is free to every later workflow
run over the same cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.mapping import Mapping


class MappingCache:
    """Bounded LRU cache of intermediate mappings."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Mapping]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[Mapping]:
        """Return the cached mapping or ``None``; refreshes recency."""
        mapping = self._entries.get(key)
        if mapping is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return mapping

    def put(self, key: str, mapping: Mapping) -> None:
        """Insert ``mapping``; evicts the least recently used entry."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = mapping
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss counters and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "max_entries": self.max_entries,
        }

    def __repr__(self) -> str:
        return (
            f"MappingCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
