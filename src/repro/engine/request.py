"""The engine's unit of work: a batch match request.

Matchers translate their configuration into a :class:`MatchRequest` —
which attributes to compare, with which similarity functions, over
which candidate pairs — and hand it to a
:class:`~repro.engine.engine.BatchMatchEngine` for execution.  Keeping
the request declarative is what lets one engine serve both the
single-attribute and the multi-attribute matcher, serially or across a
worker pool, without the matchers knowing how chunks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.blocking.pair_generator import is_self_match
from repro.core.mapping import Candidates
from repro.core.operators.functions import CombinationFunction
from repro.model.source import LogicalSource
from repro.sim.base import SimilarityFunction

Pair = Tuple[str, str]


@dataclass
class AttributeSpec:
    """One attribute comparison executed by the engine."""

    attribute: str
    range_attribute: str
    similarity: SimilarityFunction

    def __post_init__(self) -> None:
        if not self.attribute or not self.range_attribute:
            raise ValueError("attribute names must be non-empty")


@dataclass
class MatchRequest:
    """Everything the engine needs to produce one same-mapping.

    ``combiner`` distinguishes the two matcher semantics: ``None``
    means single-attribute matching (exactly one spec; pairs with a
    missing value produce no correspondence), while a
    :class:`CombinationFunction` means multi-attribute matching
    (missing values become ``None`` slots resolved by the combiner's
    missing-value policy).

    ``missing`` is the single-attribute missing-value policy (mirroring
    :class:`~repro.core.matchers.attribute.AttributeMatcher`):
    ``"skip"`` produces no correspondence for a pair with a missing
    value, while ``"zero"`` scores such pairs 0.0 — observable only in
    ``threshold == 0`` diagnostics, since positive thresholds filter
    zero scores either way.  Multi-attribute requests ignore it: there
    a missing value becomes a ``None`` slot resolved by the combiner's
    own missing-value policy.

    Candidate pairs come from, in priority order: explicit
    ``candidates`` — an iterable of id pairs, or a
    :class:`~repro.core.mapping.Mapping`
    whose rows are scored in its row order (similarities ignored, ids
    unknown to either source dropped) — the ``blocking`` strategy, or
    the full cross product of the two sources.

    Whatever its specs and its candidate source, the request is scored
    by one kernel (:func:`repro.engine.vectorized.request_kernel`: one
    column per spec — q-gram bitmaps, sparse TF/IDF or the scalar
    fallback — plus, for multi-attribute requests, a vectorized
    combiner).  Running whole shards inside the workers additionally
    requires explicit pairs or a ``blocking`` object with an
    authoritative ``shards`` protocol.
    """

    domain: LogicalSource
    range: LogicalSource
    specs: List[AttributeSpec] = field(default_factory=list)
    threshold: float = 0.0
    combiner: Optional[CombinationFunction] = None
    candidates: Optional[Candidates] = None
    blocking: Optional[object] = None
    missing: str = "skip"
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("match request needs at least one attribute spec")
        if self.combiner is None and len(self.specs) != 1:
            raise ValueError(
                "multiple attribute specs require a combination function"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {self.threshold!r}"
            )
        if self.missing not in ("skip", "zero"):
            raise ValueError(
                f"missing must be 'skip' or 'zero', got {self.missing!r}"
            )

    @property
    def is_self(self) -> bool:
        """True for self-matching (duplicate detection in one source)."""
        return is_self_match(self.domain, self.range)
