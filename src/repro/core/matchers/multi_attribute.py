"""The multi-attribute matcher (paper §2.2).

"A multi-attribute matcher is also supported which directly evaluates
and combines the similarity for multiple attribute pairs, e.g., for
publication title and publication year."  Combination uses the same
function family as the merge operator, applied per candidate pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.mapping import Candidates, Mapping
from repro.core.matchers.base import Matcher, MatcherError
from repro.core.operators.functions import CombinationFunction, get_combination
from repro.engine import AttributeSpec, MatchRequest, get_default_engine
from repro.model.source import LogicalSource
from repro.sim.base import SimilarityFunction
from repro.sim.registry import get_similarity


@dataclass
class AttributePair:
    """One attribute comparison within a multi-attribute matcher."""

    attribute: str
    range_attribute: Optional[str] = None
    similarity: Union[str, SimilarityFunction] = "trigram"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.attribute:
            raise MatcherError("attribute name must be non-empty")
        if self.range_attribute is None:
            self.range_attribute = self.attribute
        if isinstance(self.similarity, str):
            self.similarity = get_similarity(self.similarity)
        if self.weight < 0:
            raise MatcherError("weight must be non-negative")


class MultiAttributeMatcher(Matcher):
    """Evaluate several attribute pairs and combine per candidate.

    ``combine`` accepts the merge-function names (``avg``, ``min``,
    ``max``, ``weighted`` — weights come from the pairs) or a
    :class:`CombinationFunction`.  A missing attribute value yields a
    missing slot handled by the combination function's policy, so e.g.
    ``avg`` tolerates Google Scholar's optional year while ``min0``
    requires every attribute to agree.

    Execution rides the same engine route as the single-attribute
    matcher: the engine composes one column per attribute pair —
    packed where the similarity packs — and a column-wise combiner
    (:func:`repro.engine.vectorized.request_kernel`) — bit-identical
    results, and eligible for sharded/balanced execution like any
    other request.
    """

    def __init__(self, pairs: Sequence[AttributePair],
                 combine: Union[str, CombinationFunction] = "weighted",
                 threshold: float = 0.0,
                 *,
                 blocking: Optional[object] = None,
                 engine: Optional[object] = None,
                 name: Optional[str] = None) -> None:
        if not pairs:
            raise MatcherError("multi-attribute matcher needs at least one pair")
        if not 0.0 <= threshold <= 1.0:
            raise MatcherError(f"threshold must be in [0, 1], got {threshold!r}")
        self.pairs = list(pairs)
        weights = [pair.weight for pair in self.pairs]
        self.combiner = get_combination(combine, weights=weights)
        self.threshold = threshold
        self.blocking = blocking
        self.engine = engine
        attrs = "+".join(pair.attribute for pair in self.pairs)
        self.name = name or f"multiattr[{attrs}@{threshold:g}]"

    def match(self, domain: LogicalSource, range: LogicalSource, *,
              candidates: Optional[Candidates] = None) -> Mapping:
        request = MatchRequest(
            domain=domain,
            range=range,
            specs=[AttributeSpec(pair.attribute, pair.range_attribute,
                                 pair.similarity)
                   for pair in self.pairs],
            threshold=self.threshold,
            combiner=self.combiner,
            candidates=candidates,
            blocking=self.blocking,
            name=self.name,
        )
        engine = self.engine if self.engine is not None else get_default_engine()
        return engine.execute(request)
