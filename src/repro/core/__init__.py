"""MOMA's core: instance mappings, operators, matchers and workflows.

This package carries the paper's primary contribution.  The mapping
data structure and the operator algebra are imported eagerly; the
matcher / workflow / tuning layers are exposed lazily because they
depend on the :mod:`repro.model` substrate, which itself stores
:class:`~repro.core.mapping.Mapping` objects.
"""

from repro.core.correspondence import Correspondence, validate_similarity
from repro.core.mapping import Mapping, MappingKind
from repro.core.operators import (
    Best1DeltaSelection,
    BestNSelection,
    CompositeSelection,
    ConstraintSelection,
    MaxAttributeDifference,
    NotIdentity,
    Selection,
    ThresholdSelection,
    compose,
    difference,
    get_combination,
    hub_compose,
    intersection,
    mapping_union,
    merge,
    select,
    symmetrize,
    transitive_closure,
)

__all__ = [
    "AttributeMatcher",
    "AttributePair",
    "Best1DeltaSelection",
    "BestNSelection",
    "CompositeSelection",
    "ConstraintSelection",
    "Correspondence",
    "DecisionTree",
    "DecisionTreeMatcherTuner",
    "FeatureSpec",
    "GridSearchTuner",
    "Mapping",
    "MappingKind",
    "MatchContext",
    "MatchWorkflow",
    "Matcher",
    "MatcherLibrary",
    "MaxAttributeDifference",
    "MultiAttributeMatcher",
    "NeighborhoodMatcher",
    "NotIdentity",
    "Selection",
    "ThresholdSelection",
    "TuningResult",
    "compose",
    "default_library",
    "difference",
    "get_combination",
    "hub_compose",
    "intersection",
    "mapping_union",
    "merge",
    "neighborhood_match",
    "select",
    "symmetrize",
    "transitive_closure",
    "tune_merge_weights",
    "tune_threshold",
    "validate_similarity",
]

_LAZY = {
    "AttributeMatcher": ("repro.core.matchers.attribute", "AttributeMatcher"),
    "AttributePair": ("repro.core.matchers.multi_attribute", "AttributePair"),
    "MultiAttributeMatcher": (
        "repro.core.matchers.multi_attribute", "MultiAttributeMatcher"),
    "Matcher": ("repro.core.matchers.base", "Matcher"),
    "MatcherLibrary": ("repro.core.matchers.library", "MatcherLibrary"),
    "default_library": ("repro.core.matchers.library", "default_library"),
    "NeighborhoodMatcher": (
        "repro.core.matchers.neighborhood", "NeighborhoodMatcher"),
    "neighborhood_match": (
        "repro.core.matchers.neighborhood", "neighborhood_match"),
    "MatchContext": ("repro.core.workflow", "MatchContext"),
    "MatchWorkflow": ("repro.core.workflow", "MatchWorkflow"),
    "DecisionTree": ("repro.core.tuning", "DecisionTree"),
    "DecisionTreeMatcherTuner": (
        "repro.core.tuning", "DecisionTreeMatcherTuner"),
    "FeatureSpec": ("repro.core.tuning", "FeatureSpec"),
    "GridSearchTuner": ("repro.core.tuning", "GridSearchTuner"),
    "TuningResult": ("repro.core.tuning", "TuningResult"),
    "tune_merge_weights": ("repro.core.tuning", "tune_merge_weights"),
    "tune_threshold": ("repro.core.tuning", "tune_threshold"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
