"""The generic attribute matcher (paper §2.2).

"We use a generic attribute matcher that is provided with a pair of
attributes to be matched, a similarity function to be evaluated (e.g.
n-gram, TF/IDF or affix) and a similarity threshold to be exceeded by
result correspondences."
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.mapping import Candidates, Mapping
from repro.core.matchers.base import Matcher, MatcherError
from repro.engine import AttributeSpec, MatchRequest, get_default_engine
from repro.model.source import LogicalSource
from repro.sim.base import SimilarityFunction
from repro.sim.registry import get_similarity


class AttributeMatcher(Matcher):
    """Score one attribute pair with a pluggable similarity function.

    Parameters
    ----------
    attribute:
        Attribute name on the domain source.
    range_attribute:
        Attribute name on the range source; defaults to ``attribute``.
    similarity:
        A :class:`SimilarityFunction` or a registry name such as
        ``"trigram"`` or ``"tfidf"``.
    threshold:
        Minimum similarity for a correspondence to enter the result
        mapping.  0.0 keeps everything with positive similarity.
    blocking:
        Optional blocking strategy (``repro.blocking``) used to derive
        candidate pairs when none are passed to :meth:`match`.
    missing:
        ``"skip"`` (default) produces no correspondence for pairs with
        a missing value; ``"zero"`` scores them 0 (only observable with
        ``threshold == 0`` diagnostics).  The policy travels on the
        :class:`MatchRequest`, so every execution mode — serial,
        parallel, sharded — applies it identically.
    engine:
        Optional :class:`~repro.engine.BatchMatchEngine` executing the
        candidate scoring; defaults to the process-wide default engine
        (serial unless configured otherwise, e.g. via the CLI's
        ``--workers`` flag or a workflow step's engine override).
    """

    def __init__(self, attribute: str,
                 range_attribute: Optional[str] = None,
                 similarity: Union[str, SimilarityFunction] = "trigram",
                 threshold: float = 0.0,
                 *,
                 blocking: Optional[object] = None,
                 missing: str = "skip",
                 engine: Optional[object] = None,
                 name: Optional[str] = None) -> None:
        if not attribute:
            raise MatcherError("attribute name must be non-empty")
        if not 0.0 <= threshold <= 1.0:
            raise MatcherError(f"threshold must be in [0, 1], got {threshold!r}")
        if missing not in ("skip", "zero"):
            raise MatcherError(f"missing must be skip|zero, got {missing!r}")
        self.attribute = attribute
        self.range_attribute = range_attribute if range_attribute else attribute
        self.similarity = (
            get_similarity(similarity) if isinstance(similarity, str) else similarity
        )
        self.threshold = threshold
        self.blocking = blocking
        self.missing = missing
        self.engine = engine
        self.name = name or (
            f"attr[{self.attribute}~{self.similarity.name}@{self.threshold:g}]"
        )

    def match(self, domain: LogicalSource, range: LogicalSource, *,
              candidates: Optional[Candidates] = None) -> Mapping:
        request = MatchRequest(
            domain=domain,
            range=range,
            specs=[AttributeSpec(self.attribute, self.range_attribute,
                                 self.similarity)],
            threshold=self.threshold,
            candidates=candidates,
            blocking=self.blocking,
            missing=self.missing,
            name=self.name,
        )
        engine = self.engine if self.engine is not None else get_default_engine()
        return engine.execute(request)
