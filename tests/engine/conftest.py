"""The scalar reference every engine equivalence suite compares against.

The engine scores every request through a kernel
(:func:`repro.engine.vectorized.request_kernel`); what a kernel must
reproduce, bit for bit, is :class:`reference_scorer.ChunkScorer` —
per-pair ``score_batch`` over id pairs — loaded the way the matchers
always loaded a pair stream.  That is this module's one helper.  It
shares no code with the engine's plan / slice / load steps: it reads
the request's pair source itself and loads id triples.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from reference_scorer import ChunkScorer

from repro.blocking import FullCross, dedup_self_pairs
from repro.core.mapping import Mapping
from repro.engine import MatchRequest, vectorized


def _scalar_reference(request: MatchRequest) -> Mapping:
    """``request``'s mapping, scored pair by pair."""
    pairs = request.candidates
    if pairs is None:
        blocking = (request.blocking if request.blocking is not None
                    else FullCross())
        spec = request.specs[0]
        pairs = blocking.candidates(request.domain, request.range,
                                    domain_attribute=spec.attribute,
                                    range_attribute=spec.range_attribute)
    vectorized.prepare_similarities(request)
    if request.is_self:
        pairs = dedup_self_pairs(pairs)
    triples = ChunkScorer(request).score_chunk(list(pairs))
    if request.is_self:
        triples = [row for a, b, score in triples
                   for row in ((a, b, score), (b, a, score))]
    return Mapping.from_correspondences(
        request.domain.name, request.range.name, triples,
        name=request.name)


@pytest.fixture(scope="session")
def scalar_reference():
    """``scalar_reference(request)`` → the reference :class:`Mapping`."""
    return _scalar_reference


@pytest.fixture(scope="session")
def scalar_engine():
    """The reference behind the ``execute(request)`` face matchers
    take as ``engine=``: what a matcher's own request scores to."""
    return SimpleNamespace(execute=_scalar_reference)
