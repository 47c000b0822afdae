"""Mapping diagnostics: structure and agreement analysis.

Match quality metrics (precision/recall/F) need a gold standard;
these diagnostics do not.  They answer the questions an engineer asks
*before* trusting a mapping: does it look 1:1 like a same-mapping
should (Definition 2 expects one counterpart per real-world entity)?
How are similarities distributed — is there a clean threshold valley?
And when two matchers disagree, where exactly?
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.mapping import Mapping


@dataclass(frozen=True)
class CardinalityProfile:
    """Degree structure of a mapping."""

    correspondences: int
    domain_objects: int
    range_objects: int
    #: domain objects with exactly one correspondence
    unique_domain: int
    #: range objects with exactly one correspondence
    unique_range: int
    max_out_degree: int
    max_in_degree: int

    @property
    def one_to_one_ratio(self) -> float:
        """Fraction of correspondences that are 1:1 on both sides."""
        if self.correspondences == 0:
            return 1.0
        return self._one_to_one / self.correspondences

    # populated by the factory below; dataclass(frozen) needs the slot
    _one_to_one: int = 0


def cardinality_profile(mapping: Mapping) -> CardinalityProfile:
    """Profile the degree structure of ``mapping``.

    A same-mapping between clean sources should be dominated by 1:1
    correspondences; a high share of 1:n rows signals duplicates in the
    range source (exactly the Google Scholar situation of §2.1).
    """
    one_to_one = sum(
        1 for domain_id, range_id, _ in mapping
        if mapping.out_degree(domain_id) == 1
        and mapping.in_degree(range_id) == 1
    )
    out_degrees = [mapping.out_degree(d) for d in mapping.domain_ids()]
    in_degrees = [mapping.in_degree(r) for r in mapping.range_ids()]
    return CardinalityProfile(
        correspondences=len(mapping),
        domain_objects=len(out_degrees),
        range_objects=len(in_degrees),
        unique_domain=sum(1 for degree in out_degrees if degree == 1),
        unique_range=sum(1 for degree in in_degrees if degree == 1),
        max_out_degree=max(out_degrees, default=0),
        max_in_degree=max(in_degrees, default=0),
        _one_to_one=one_to_one,
    )


def similarity_histogram(mapping: Mapping, *, bins: int = 10
                         ) -> List[Tuple[float, float, int]]:
    """Histogram of correspondence similarities.

    Returns ``[(low, high, count), ...]`` over equal-width bins of
    [0, 1]; the final bin is inclusive on both ends.  A bimodal
    histogram (mass near 1 and mass near the floor) indicates a clean
    threshold exists; a flat one warns that threshold selection will be
    fragile — worth checking before trusting Table-2-style thresholds.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts = [0] * bins
    for _, _, similarity in mapping:
        index = min(int(similarity * bins), bins - 1)
        counts[index] += 1
    width = 1.0 / bins
    return [(round(i * width, 10), round((i + 1) * width, 10), count)
            for i, count in enumerate(counts)]


@dataclass
class AgreementReport:
    """Where two mappings over the same sources agree and differ."""

    both: int
    only_left: int
    only_right: int
    #: pairs present in both but with |Δsim| above the tolerance
    similarity_conflicts: int
    examples_only_left: List[Tuple[str, str]] = field(default_factory=list)
    examples_only_right: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def jaccard(self) -> float:
        """Pair-set Jaccard agreement of the two mappings."""
        union = self.both + self.only_left + self.only_right
        return self.both / union if union else 1.0


def agreement(left: Mapping, right: Mapping, *,
              similarity_tolerance: float = 0.1,
              max_examples: int = 5) -> AgreementReport:
    """Compare two mappings between the same source pair.

    This is the diagnostic behind §4.1.1's merge rationale: merging
    helps exactly when the matchers' disagreement (``only_left`` /
    ``only_right``) is substantial but complementary.
    """
    if left.domain != right.domain or left.range != right.range:
        raise ValueError("agreement requires mappings between the same "
                         "sources")
    left_rows, right_rows = left.columns(), right.columns()
    in_right = left_rows.isin(right_rows)
    in_left = right_rows.isin(left_rows)
    # the shared rows of both sides, aligned by sorting their pair keys
    left_order = np.argsort(left_rows.pair_keys()[in_right])
    right_order = np.argsort(right_rows.keys_in(left_rows)[in_left])
    deltas = np.abs(left_rows.sims[in_right][left_order]
                    - right_rows.sims[in_left][right_order])
    both = int(np.count_nonzero(in_right))
    return AgreementReport(
        both=both,
        only_left=len(left) - both,
        only_right=len(right) - both,
        similarity_conflicts=int(
            np.count_nonzero(deltas > similarity_tolerance)),
        examples_only_left=heapq.nsmallest(
            max_examples, left.take(~in_right).id_pairs()),
        examples_only_right=heapq.nsmallest(
            max_examples, right.take(~in_left).id_pairs()),
    )


def describe(mapping: Mapping) -> Dict[str, object]:
    """One-call structural summary (repr-friendly dict)."""
    profile = cardinality_profile(mapping)
    sims = [similarity for _, _, similarity in mapping]
    return {
        "domain": mapping.domain,
        "range": mapping.range,
        "kind": mapping.kind.value,
        "correspondences": profile.correspondences,
        "domain_objects": profile.domain_objects,
        "range_objects": profile.range_objects,
        "one_to_one_ratio": round(profile.one_to_one_ratio, 4),
        "max_out_degree": profile.max_out_degree,
        "max_in_degree": profile.max_in_degree,
        "min_similarity": min(sims) if sims else None,
        "mean_similarity": (sum(sims) / len(sims)) if sims else None,
        "max_similarity": max(sims) if sims else None,
    }
