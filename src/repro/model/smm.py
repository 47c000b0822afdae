"""The source-mapping model (paper §2.1, Figure 2).

"PDS, LDS and mappings are represented in a so-called source-mapping
model (SMM)."  The SMM registers physical sources, object types,
logical sources, *mapping types* (semantic relationship descriptions
such as "publications of author" with their cardinality) and actual
mapping instances.  It also answers the structural queries the match
strategies of §4 need: which same-mappings exist between two sources,
and which compose paths connect them (including via a hub, Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.mapping import Mapping, MappingKind
from repro.model.source import LogicalSource, ObjectType, PhysicalSource

#: allowed semantic cardinalities of association mappings (Fig. 10)
CARDINALITIES = ("1:1", "1:n", "n:1", "n:m")


@dataclass(frozen=True)
class MappingType:
    """A semantic mapping type, e.g. ``publications of venue``.

    ``inverse`` names the opposite direction (VenuePub <-> PubVenue);
    the neighborhood matcher requires a pair of inverse association
    types around a same-mapping.
    """

    name: str
    domain_type: str
    range_type: str
    cardinality: str = "n:m"
    inverse: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cardinality not in CARDINALITIES:
            raise ValueError(
                f"cardinality must be one of {CARDINALITIES}, "
                f"got {self.cardinality!r}"
            )

    @property
    def kind(self) -> MappingKind:
        """Same-mapping types connect equal object types 1:1."""
        if self.domain_type == self.range_type and self.cardinality == "1:1":
            return MappingKind.SAME
        return MappingKind.ASSOCIATION


class SourceMappingModel:
    """Registry of sources and mappings plus structural queries."""

    def __init__(self) -> None:
        self._physical: Dict[str, PhysicalSource] = {}
        self._types: Dict[str, ObjectType] = {}
        self._sources: Dict[str, LogicalSource] = {}
        self._mapping_types: Dict[str, MappingType] = {}
        #: mapping name -> (mapping, mapping type name or None)
        self._mappings: Dict[str, Tuple[Mapping, Optional[str]]] = {}

    # -- registration ----------------------------------------------------

    def add_physical_source(self, source: PhysicalSource) -> PhysicalSource:
        if source.name in self._physical:
            raise ValueError(f"physical source {source.name!r} already exists")
        self._physical[source.name] = source
        return source

    def add_object_type(self, object_type: ObjectType) -> ObjectType:
        existing = self._types.get(object_type.name)
        if existing is not None:
            return existing
        self._types[object_type.name] = object_type
        return object_type

    def add_source(self, source: LogicalSource) -> LogicalSource:
        """Register a logical source (its PDS and type are auto-added)."""
        if source.name in self._sources:
            raise ValueError(f"logical source {source.name!r} already exists")
        if source.physical.name not in self._physical:
            self._physical[source.physical.name] = source.physical
        self.add_object_type(source.object_type)
        self._sources[source.name] = source
        return source

    def create_source(self, physical_name: str, type_name: str,
                      *, downloadable: bool = True) -> LogicalSource:
        """Convenience: create and register an LDS by names."""
        physical = self._physical.get(physical_name)
        if physical is None:
            physical = self.add_physical_source(
                PhysicalSource(physical_name, downloadable=downloadable)
            )
        object_type = self.add_object_type(ObjectType(type_name))
        return self.add_source(LogicalSource(physical, object_type))

    def add_mapping_type(self, mapping_type: MappingType) -> MappingType:
        if mapping_type.name in self._mapping_types:
            raise ValueError(f"mapping type {mapping_type.name!r} already exists")
        self._mapping_types[mapping_type.name] = mapping_type
        return mapping_type

    def register_mapping(self, name: str, mapping: Mapping,
                         mapping_type: Optional[str] = None,
                         *, replace: bool = False) -> None:
        """Register a mapping instance under ``name``.

        Domain and range LDS must exist; an optional ``mapping_type``
        ties the instance to its semantic type and checks object-type
        compatibility.
        """
        if name in self._mappings and not replace:
            raise ValueError(f"mapping {name!r} already registered")
        for endpoint in (mapping.domain, mapping.range):
            if endpoint not in self._sources:
                raise ValueError(f"unknown logical source {endpoint!r}")
        if mapping_type is not None:
            declared = self._mapping_types.get(mapping_type)
            if declared is None:
                raise ValueError(f"unknown mapping type {mapping_type!r}")
            domain_type = self._sources[mapping.domain].object_type.name
            range_type = self._sources[mapping.range].object_type.name
            if (declared.domain_type, declared.range_type) != (domain_type, range_type):
                raise ValueError(
                    f"mapping type {mapping_type!r} relates "
                    f"{declared.domain_type}->{declared.range_type}, but the "
                    f"mapping connects {domain_type}->{range_type}"
                )
        self._mappings[name] = (mapping, mapping_type)

    # -- lookup -----------------------------------------------------------

    def get_physical_source(self, name: str) -> Optional[PhysicalSource]:
        return self._physical.get(name)

    def get_source(self, name: str) -> Optional[LogicalSource]:
        return self._sources.get(name)

    def require_source(self, name: str) -> LogicalSource:
        source = self._sources.get(name)
        if source is None:
            raise KeyError(f"unknown logical source {name!r}")
        return source

    def get_mapping_type(self, name: str) -> Optional[MappingType]:
        return self._mapping_types.get(name)

    def find_mapping(self, name: str) -> Optional[Mapping]:
        entry = self._mappings.get(name)
        return entry[0] if entry else None

    def mapping_names(self) -> List[str]:
        return sorted(self._mappings)

    def source_names(self) -> List[str]:
        return sorted(self._sources)

    def sources_of_type(self, type_name: str) -> List[LogicalSource]:
        """All logical sources carrying the given object type."""
        return [
            source for source in self._sources.values()
            if source.object_type.name == type_name
        ]

    def mappings_between(self, domain: str, range: str,
                         kind: Optional[MappingKind] = None) -> List[Mapping]:
        """Registered mappings from ``domain`` to ``range``."""
        found = []
        for mapping, _ in self._mappings.values():
            if mapping.domain == domain and mapping.range == range:
                if kind is None or mapping.kind == kind:
                    found.append(mapping)
        return found

    # -- structural queries ------------------------------------------------

    def same_mapping_graph(self) -> Dict[str, Dict[str, str]]:
        """Registered same-mappings between LDS as an adjacency dict.

        ``graph[lds]`` maps each neighbour to the name of the mapping
        leading there, in registration order; every registered LDS is
        a key.  A later mapping between the same pair renames the edge
        but keeps its place.
        """
        graph: Dict[str, Dict[str, str]] = {name: {} for name in self._sources}
        for name, (mapping, _) in self._mappings.items():
            if mapping.kind == MappingKind.SAME and not mapping.is_self_mapping():
                graph[mapping.domain][mapping.range] = name
                # same-mappings are semantically symmetric; the inverse
                # is always derivable
                graph[mapping.range][mapping.domain] = f"{name}~inv"
        return graph

    def find_compose_paths(self, source: str, target: str,
                           max_length: int = 2) -> List[List[str]]:
        """Same-mapping name paths from ``source`` to ``target``.

        Each path is a list of mapping names (``~inv`` suffix marks
        that the registered mapping must be inverted).  Used to
        enumerate the §4.1.2 compose alternatives, e.g. DBLP->GS->ACM.
        Paths visit no LDS twice and have at most ``max_length`` steps;
        shorter paths come first, equal lengths in depth-first order
        over the neighbours.  ``source == target`` is the empty path.
        """
        graph = self.same_mapping_graph()
        if source not in graph or target not in graph or max_length < 0:
            return []
        if source == target:
            return [[]]
        paths: List[List[str]] = []

        def extend(node: str, visited: List[str], names: List[str]) -> None:
            if len(names) >= max_length:
                return
            for neighbour, name in graph[node].items():
                if neighbour == target:
                    paths.append(names + [name])
                elif neighbour not in visited:
                    extend(neighbour, visited + [neighbour], names + [name])

        extend(source, [source], [])
        paths.sort(key=len)
        return paths

    def resolve_path(self, names: Iterable[str]) -> List[Mapping]:
        """Materialize a mapping-name path (handling ``~inv`` markers)."""
        resolved = []
        for name in names:
            if name.endswith("~inv"):
                mapping = self.find_mapping(name[:-4])
                if mapping is None:
                    raise KeyError(f"unknown mapping {name[:-4]!r}")
                resolved.append(mapping.inverse())
            else:
                mapping = self.find_mapping(name)
                if mapping is None:
                    raise KeyError(f"unknown mapping {name!r}")
                resolved.append(mapping)
        return resolved

    def __repr__(self) -> str:
        return (
            f"SourceMappingModel({len(self._physical)} PDS, "
            f"{len(self._sources)} LDS, {len(self._mappings)} mappings)"
        )
