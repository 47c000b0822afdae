"""The matcher interface.

A matcher takes two logical data sources (possibly the same one, for
duplicate detection) and produces a same-mapping.  Candidate pairs can
be injected from a blocking strategy; otherwise matchers fall back to
the full cross product, which is fine for the query-sized inputs of
online matching but should be blocked for paper-scale offline runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional, Tuple

from repro.core.mapping import Mapping
from repro.model.source import LogicalSource


class MatcherError(RuntimeError):
    """Raised when a matcher cannot run (bad config, missing attributes)."""


class Matcher(ABC):
    """Produces a same-mapping between two logical data sources."""

    #: human-readable matcher name used in workflow traces
    name: str = "matcher"

    @abstractmethod
    def match(self, domain: LogicalSource, range: LogicalSource, *,
              candidates: Optional[Iterable[Tuple[str, str]]] = None) -> Mapping:
        """Match ``domain`` against ``range``.

        ``candidates`` optionally restricts scoring to the given
        (domain id, range id) pairs, typically produced by a blocking
        strategy from :mod:`repro.blocking`.
        """

    def __call__(self, domain: LogicalSource, range: LogicalSource, *,
                 candidates: Optional[Iterable[Tuple[str, str]]] = None) -> Mapping:
        return self.match(domain, range, candidates=candidates)
