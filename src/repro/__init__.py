"""repro — a reproduction of MOMA (Thor & Rahm, CIDR 2007).

MOMA is a flexible framework for *mapping-based object matching*: match
results are instance mappings combined with merge / compose operators,
refined by selections, orchestrated as match workflows and re-used via
a mapping repository.  See ``docs/architecture.md`` for the system inventory
and ``docs/benchmarks.md`` for the paper-table benchmarks.

Quickstart::

    from repro import AttributeMatcher, ThresholdSelection, merge

    title = AttributeMatcher("title", similarity="trigram", threshold=0.5)
    year = AttributeMatcher("year", similarity="exact", threshold=1.0)
    mapping = merge([title.match(dblp, acm), year.match(dblp, acm)], "avg")
    mapping = ThresholdSelection(0.8).apply(mapping)
"""

from repro.core import (
    AttributeMatcher,
    AttributePair,
    Best1DeltaSelection,
    BestNSelection,
    CompositeSelection,
    ConstraintSelection,
    Correspondence,
    GridSearchTuner,
    Mapping,
    MappingKind,
    MatchContext,
    Matcher,
    MatcherLibrary,
    MatchWorkflow,
    MaxAttributeDifference,
    MultiAttributeMatcher,
    NeighborhoodMatcher,
    NotIdentity,
    Selection,
    ThresholdSelection,
    compose,
    default_library,
    difference,
    hub_compose,
    intersection,
    mapping_union,
    merge,
    neighborhood_match,
    select,
    symmetrize,
    transitive_closure,
    tune_threshold,
)
from repro.model import (
    LogicalSource,
    MappingCache,
    MappingRepository,
    MappingType,
    ObjectInstance,
    ObjectType,
    PhysicalSource,
    SourceMappingModel,
)
from repro.engine import (
    BatchMatchEngine,
    EngineConfig,
    configure_default_engine,
    get_default_engine,
    set_default_engine,
)
from repro.sim import SimilarityFunction, get_similarity

__version__ = "1.1.0"

__all__ = [
    "AttributeMatcher",
    "AttributePair",
    "BatchMatchEngine",
    "EngineConfig",
    "Best1DeltaSelection",
    "BestNSelection",
    "CompositeSelection",
    "ConstraintSelection",
    "Correspondence",
    "GridSearchTuner",
    "LogicalSource",
    "Mapping",
    "MappingCache",
    "MappingKind",
    "MappingRepository",
    "MappingType",
    "MatchContext",
    "MatchWorkflow",
    "Matcher",
    "MatcherLibrary",
    "MaxAttributeDifference",
    "MultiAttributeMatcher",
    "NeighborhoodMatcher",
    "NotIdentity",
    "ObjectInstance",
    "ObjectType",
    "PhysicalSource",
    "Selection",
    "SimilarityFunction",
    "SourceMappingModel",
    "ThresholdSelection",
    "compose",
    "configure_default_engine",
    "default_library",
    "difference",
    "get_default_engine",
    "get_similarity",
    "set_default_engine",
    "hub_compose",
    "intersection",
    "mapping_union",
    "merge",
    "neighborhood_match",
    "select",
    "symmetrize",
    "transitive_closure",
    "tune_threshold",
]
