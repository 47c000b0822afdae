"""Physical and logical data sources.

A physical data source (PDS) models an external system such as DBLP or
Google Scholar, including its *accessibility*: DBLP "can be completely
downloaded" while web sources "cannot be downloaded.  They can both be
accessed by queries" (paper §5.1).  A logical data source (LDS)
"belongs to one physical data source and consists of object instances
of a particular semantic object type" (paper §2.1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    TypeVar,
)

from repro.model.entity import ObjectInstance

T = TypeVar("T")
#: the one ``_derived`` key no caller can pass: the partner table
_PARTNERS = object()


@dataclass(frozen=True)
class ObjectType:
    """A semantic object type such as Publication, Author or Venue."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("object type name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass
class PhysicalSource:
    """A physical data source with its access characteristics."""

    name: str
    description: str = ""
    #: True when the full extension can be materialized (DBLP); False for
    #: query-only web sources (ACM DL, Google Scholar).
    downloadable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("physical source name must be non-empty")

    def __str__(self) -> str:
        return self.name


class LogicalSource:
    """A set of object instances of one type within one physical source.

    Named ``"<PDS>.<ObjectType>"`` (e.g. ``"DBLP.Publication"``), which
    is also how the script language refers to it.  Instance ids are
    unique within the LDS.
    """

    def __init__(self, physical: PhysicalSource, object_type: ObjectType) -> None:
        self.physical = physical
        self.object_type = object_type
        self._instances: Dict[str, ObjectInstance] = {}
        #: bumped by every ``add``: how a partner source's memo sees
        #: that this one changed
        self.version = 0
        #: lookups :meth:`derived` answered from the memo / by building
        self.derived_hits = 0
        self.derived_builds = 0
        self._derived: Dict[Hashable, Any] = {}

    @property
    def name(self) -> str:
        """Qualified name ``"<physical>.<object type>"``."""
        return f"{self.physical.name}.{self.object_type.name}"

    def add(self, instance: ObjectInstance) -> None:
        """Add ``instance``; duplicate ids are rejected."""
        if instance.id in self._instances:
            raise ValueError(
                f"duplicate instance id {instance.id!r} in {self.name}"
            )
        self._instances[instance.id] = instance
        self.version += 1
        if self._derived:
            self._derived.clear()

    def add_record(self, id: str, **attributes: Any) -> ObjectInstance:
        """Convenience: build and add an instance from keyword attributes."""
        instance = ObjectInstance(id, attributes)
        self.add(instance)
        return instance

    def derived(self, key: Hashable, build: Callable[[], T], *,
                partner: Optional["LogicalSource"] = None) -> T:
        """``build()``, computed once for this source's current contents.

        The memo for everything that is a pure function of the
        instances and expensive to recompute (blocking posting lists,
        packed kernel columns): the first lookup of ``key`` stores
        ``build()``, later ones return the stored object.  It lives
        and dies with the source *object*: :meth:`add` drops it, a
        pickled copy and a :meth:`subset` start empty, and nothing is
        keyed on :attr:`name` (two subsets share one).

        ``partner`` scopes an entry to a second source as well — the
        value also depends on *its* contents.  The partner is held
        weakly and compared by identity and :attr:`version`, so the
        entry goes when the partner is collected or grows, and a new
        object at a recycled address can never hit it.

        Values are shared between callers: treat them as read-only.
        Not synchronized — concurrent first lookups may both build.
        """
        memo = self._derived
        if partner is not None and partner is not self:
            # partner source -> (its version, entries), weakly keyed
            partners = memo.get(_PARTNERS)
            if partners is None:
                partners = memo[_PARTNERS] = weakref.WeakKeyDictionary()
            scoped = partners.get(partner)
            if scoped is None or scoped[0] != partner.version:
                scoped = partners[partner] = (partner.version, {})
            memo = scoped[1]
        try:
            value: T = memo[key]
        except KeyError:
            value = memo[key] = build()
            self.derived_builds += 1
        else:
            self.derived_hits += 1
        return value

    def __getstate__(self) -> Dict[str, Any]:
        # derived state is rebuilt where it is needed, never shipped
        state = dict(self.__dict__)
        state["_derived"] = {}
        return state

    def get(self, id: str) -> Optional[ObjectInstance]:
        """Return the instance with ``id`` or ``None``."""
        return self._instances.get(id)

    def require(self, id: str) -> ObjectInstance:
        """Return the instance with ``id`` or raise ``KeyError``."""
        instance = self._instances.get(id)
        if instance is None:
            raise KeyError(f"no instance {id!r} in {self.name}")
        return instance

    def __contains__(self, id: str) -> bool:
        return id in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[ObjectInstance]:
        return iter(self._instances.values())

    def ids(self) -> List[str]:
        """Return the list of instance ids (insertion order)."""
        return list(self._instances)

    def instances(self) -> List[ObjectInstance]:
        """Return the list of instances (insertion order)."""
        return list(self._instances.values())

    def attribute_column(self, attribute: str) -> List[Any]:
        """Every instance's ``attribute`` value in :meth:`ids` order,
        ``None`` where it has none.

        Kept (:meth:`derived`): the one value list of this attribute
        that blocking, similarity preparation and column packing all
        read, so it is shared and must not be mutated.
        """
        return self.derived(("values", attribute), lambda: [
            instance.get(attribute) for instance in self._instances.values()])

    def attribute_values(self, attribute: str) -> List[Any]:
        """All non-``None`` values of ``attribute`` across instances."""
        values = (instance.get(attribute)
                  for instance in self._instances.values())
        return [value for value in values if value is not None]

    def select(self, predicate: Callable[[ObjectInstance], bool]) -> List[ObjectInstance]:
        """Return the instances satisfying ``predicate``."""
        return [inst for inst in self._instances.values() if predicate(inst)]

    def subset(self, ids: Iterable[str]) -> "LogicalSource":
        """Return a new LDS restricted to ``ids`` (missing ids skipped).

        Object matching "needs to be performed on the results of such
        queries" (paper §2.1) — the inputs need not be entire LDS, and
        this is the mechanism that produces partial inputs.
        """
        view = LogicalSource(self.physical, self.object_type)
        for id in ids:
            instance = self._instances.get(id)
            if instance is not None:
                view._instances[instance.id] = instance
        return view

    def __repr__(self) -> str:
        return f"LogicalSource({self.name!r}, {len(self)} instances)"
