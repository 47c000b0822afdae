"""Object instances: the atoms of logical data sources.

"Each object instance is identified by an id value and may have
additional attribute values" (paper §2.1).  Instances are immutable;
updates produce new instances, which keeps sources safe to share
between workflows and caches.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterator, Mapping, Optional


class ObjectInstance:
    """An identified record with a read-only attribute dictionary."""

    __slots__ = ("id", "_attributes")

    def __init__(self, id: str, attributes: Optional[Mapping[str, Any]] = None) -> None:
        if not isinstance(id, str) or not id:
            raise ValueError(f"instance id must be a non-empty string, got {id!r}")
        self.id = id
        self._attributes: Mapping[str, Any] = MappingProxyType(
            dict(attributes) if attributes else {}
        )

    @property
    def attributes(self) -> Mapping[str, Any]:
        """Read-only view of the attribute dictionary."""
        return self._attributes

    def get(self, attribute: str, default: Any = None) -> Any:
        """Return the value of ``attribute`` or ``default`` when absent."""
        return self._attributes.get(attribute, default)

    def __getitem__(self, attribute: str) -> Any:
        return self._attributes[attribute]

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._attributes

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def with_attributes(self, **updates: Any) -> "ObjectInstance":
        """Return a copy with ``updates`` merged into the attributes."""
        merged: Dict[str, Any] = dict(self._attributes)
        merged.update(updates)
        return ObjectInstance(self.id, merged)

    def __reduce__(self):
        # the mappingproxy view defeats default pickling; rebuild from
        # a plain dict so instances can cross process boundaries
        return (ObjectInstance, (self.id, dict(self._attributes)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectInstance):
            return NotImplemented
        return self.id == other.id and dict(self._attributes) == dict(other._attributes)

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{key}={value!r}" for key, value in list(self._attributes.items())[:3]
        )
        return f"ObjectInstance({self.id!r}, {{{preview}}})"
