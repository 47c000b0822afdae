"""Parallel batch match engine.

Replaces the matchers' one-pair-at-a-time scoring loops with one batch
execution model: a request's candidates — an explicit list, a blocking
strategy or the cross product — are planned as shards, cut into
row-array slices, scored by the request's one kernel over the column
layer (below), and — when ``workers > 1`` — fanned out across a
process pool (:mod:`repro.engine.pool`) whose partial results load
into a single mapping deterministically.  ``workers=1`` is a
zero-overhead serial fallback producing byte-identical mappings.

Typical use::

    from repro.engine import BatchMatchEngine, EngineConfig

    engine = BatchMatchEngine(EngineConfig(workers=4, chunk_size=4096))
    matcher = AttributeMatcher("title", similarity="trigram",
                               threshold=0.5, engine=engine)
    mapping = matcher.match(dblp, acm)

or process-wide via :func:`configure_default_engine` (what the CLI's
``--workers`` / ``--chunk-size`` flags call).

With ``workers > 1`` a blocked request is sharded
(:mod:`repro.engine.shards`): the blocking strategy is partitioned
into ``4 * workers`` shards, each worker generates and scores its
shards' pairs locally, and the parent only loads the survivors — same
results, no parent-side generation bottleneck.

One scoring core backs every request (:mod:`repro.engine.columns`): a
*column* packs one attribute's reference side —
q-gram bitmaps, sparse CSR TF/IDF, or the memoized ``score_batch``
fallback, chosen by :func:`~repro.engine.columns.build_column` — and
``bind(query_values)`` turns it into a kernel that scores row pairs
bit-identically to the scalar similarity.  The engine builds and binds
once per source pair — packed columns are kept by the sources
(:meth:`repro.model.source.LogicalSource.derived`), scalar ones built
per request — and composes them
(:func:`repro.engine.vectorized.request_kernel`; multi-attribute
requests compose their bound columns with a vectorized combiner); the
serve tier's index keeps the same column objects across requests,
scores its append buffer on scalar columns built per page, and binds
per page of queries.  The scalar loop both are checked against lives
in the tests.  See ``docs/engine.md``.
"""

from repro.engine.engine import (
    BatchMatchEngine,
    EngineConfig,
    configure_default_engine,
    get_default_engine,
    set_default_engine,
)
from repro.engine.request import AttributeSpec, MatchRequest
from repro.engine.shards import iter_chunks

__all__ = [
    "AttributeSpec",
    "BatchMatchEngine",
    "EngineConfig",
    "MatchRequest",
    "configure_default_engine",
    "get_default_engine",
    "iter_chunks",
    "set_default_engine",
]
