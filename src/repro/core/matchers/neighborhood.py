"""The neighborhood matcher (paper §4.2, Figures 9-11).

The paper's iFuice script::

    PROCEDURE nhMatch ( $Asso1, $Same, $Asso2)
       $Temp   = compose ( $Asso1 , $Same , Min, Average )
       $Result = compose ( $Temp , $Asso2 , Min, Relative )
       RETURN $Result
    END

Inputs are two association mappings of inverse semantic type (e.g.
VenuePub and PubVenue) and a same-mapping over the associated objects.
The second composition uses Relative "to prefer correspondences
reached via multiple compose paths".  For incomplete right-hand
associations (Google Scholar's truncated author lists) the paper
switches to RelativeLeft (§5.4.3) — exposed here via ``g2``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.mapping import Candidates, Mapping, MappingKind
from repro.core.matchers.base import Matcher, MatcherError, confine
from repro.core.operators.compose import compose
from repro.model.source import LogicalSource


def neighborhood_match(asso1: Mapping, same: Mapping, asso2: Mapping,
                       *, f: str = "min", g1: str = "avg",
                       g2: str = "relative",
                       name: Optional[str] = None) -> Mapping:
    """Derive a same-mapping from associations plus a known same-mapping.

    ``asso1: X_A -> Y_A`` leads from the objects to be matched into
    their neighborhood, ``same: Y_A -> Y_B`` crosses sources, and
    ``asso2: Y_B -> X_B`` leads back out.  The result is a fuzzy
    same-mapping ``X_A -> X_B``.
    """
    if asso1.range != same.domain:
        raise MatcherError(
            f"asso1.range ({asso1.range!r}) must feed same.domain "
            f"({same.domain!r})"
        )
    if same.range != asso2.domain:
        raise MatcherError(
            f"same.range ({same.range!r}) must feed asso2.domain "
            f"({asso2.domain!r})"
        )
    temp = compose(asso1, same, f, g1, kind=MappingKind.ASSOCIATION)
    return compose(temp, asso2, f, g2, kind=MappingKind.SAME, name=name)


class NeighborhoodMatcher(Matcher):
    """Matcher facade over :func:`neighborhood_match`.

    Because the neighborhood matcher consumes mappings rather than the
    instances themselves, the mappings are bound at construction time;
    :meth:`match` validates that they connect the requested sources and
    optionally restricts the result to the sources' instance sets.
    """

    def __init__(self, asso1: Mapping, same: Mapping, asso2: Mapping,
                 *, f: str = "min", g1: str = "avg", g2: str = "relative",
                 name: Optional[str] = None) -> None:
        self.asso1 = asso1
        self.same = same
        self.asso2 = asso2
        self.f = f
        self.g1 = g1
        self.g2 = g2
        self.name = name or "neighborhood"

    def match(self, domain: LogicalSource, range: LogicalSource, *,
              candidates: Optional[Candidates] = None) -> Mapping:
        if self.asso1.domain != domain.name:
            raise MatcherError(
                f"asso1 starts at {self.asso1.domain!r}, not {domain.name!r}"
            )
        if self.asso2.range != range.name:
            raise MatcherError(
                f"asso2 ends at {self.asso2.range!r}, not {range.name!r}"
            )
        return confine(neighborhood_match(
            self.asso1, self.same, self.asso2,
            f=self.f, g1=self.g1, g2=self.g2, name=self.name,
        ), candidates)
