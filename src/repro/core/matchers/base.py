"""The matcher interface.

A matcher takes two logical data sources (possibly the same one, for
duplicate detection) and produces a same-mapping.  Candidate pairs can
be injected from a blocking strategy; otherwise matchers fall back to
the full cross product, which is fine for the query-sized inputs of
online matching but should be blocked for paper-scale offline runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.core.mapping import Candidates, Mapping
from repro.model.source import LogicalSource


class MatcherError(RuntimeError):
    """Raised when a matcher cannot run (bad config, missing attributes)."""


def confine(mapping: Mapping,
            candidates: Optional[Candidates]) -> Mapping:
    """``mapping``'s rows among ``candidates``: how a matcher that
    derives its result from mappings, not from pairs, honours them."""
    if candidates is None:
        return mapping
    if isinstance(candidates, Mapping):
        return mapping.take(mapping.columns().isin(candidates.columns()))
    allowed = set(candidates)
    return mapping.filter(lambda c: (c.domain, c.range) in allowed)


class Matcher(ABC):
    """Produces a same-mapping between two logical data sources."""

    #: human-readable matcher name used in workflow traces
    name: str = "matcher"

    @abstractmethod
    def match(self, domain: LogicalSource, range: LogicalSource, *,
              candidates: Optional[Candidates] = None) -> Mapping:
        """Match ``domain`` against ``range``.

        ``candidates`` optionally restricts scoring to the given
        (domain id, range id) pairs — an iterable of them, typically
        produced by a blocking strategy from :mod:`repro.blocking`, or
        a :class:`Mapping`, typically an earlier matcher's result.
        """

    def __call__(self, domain: LogicalSource, range: LogicalSource, *,
                 candidates: Optional[Candidates] = None) -> Mapping:
        return self.match(domain, range, candidates=candidates)
