"""What ``benchmarks/moma_bench`` takes from the engine, pinned.

The harness directory is read-only to ordinary PRs, so a rename it
depends on surfaces only when the benchmark gate runs it.  This suite
fails in tier-1 instead: every name, keyword and attribute below is
one ``benchmarks/moma_bench/batch.py`` reads (``_install_core_wrappers``,
``_blocking_layer``, ``_sharded_engine``, ``run_workflows``).  If a
test here has to change, the harness has to change with it — which
takes a ``benchmark``-labelled PR.
"""

from __future__ import annotations

import inspect

from repro import AttributeMatcher
from repro.blocking import TokenBlocking
from repro.blocking.pair_generator import PairShard
from repro.engine import (
    BatchMatchEngine,
    EngineConfig,
    configure_default_engine,
    get_default_engine,
    set_default_engine,
)


def test_sharded_engine_construction():
    engine = BatchMatchEngine(EngineConfig(workers=2, shard_blocking=True,
                                           profile=True))
    assert (engine.config.workers, engine.config.shard_blocking,
            engine.config.profile) == (2, True, True)


def test_default_engine_switches():
    try:
        engine = configure_default_engine(profile=True)
        assert get_default_engine() is engine
        assert engine.config == EngineConfig(profile=True)
    finally:
        set_default_engine(None)
    assert get_default_engine().config == EngineConfig()


def test_execute_is_a_wrappable_method_reporting_its_profile(dataset):
    """The harness's tracer replaces ``BatchMatchEngine.__dict__
    ["execute"]`` with a wrapper and reads ``(engine, request)`` from
    the positional arguments and the profile off the engine."""
    original = BatchMatchEngine.__dict__["execute"]
    assert list(inspect.signature(original).parameters) == ["self", "request"]
    seen = []

    def traced(*args, **kwargs):
        result = original(*args, **kwargs)
        engine, request = args[0], args[1]
        summary = engine.profile_summary()
        seen.append((request, summary,
                     list(engine.last_profile["shard_seconds"])))
        return result

    dblp, acm = dataset.dblp.publications, dataset.acm.publications
    BatchMatchEngine.execute = traced
    try:
        for config in (dict(workers=2, shard_blocking=True), dict()):
            mapping = AttributeMatcher(
                "title", similarity="trigram", threshold=0.4,
                blocking=TokenBlocking(max_df=0.5),
                engine=BatchMatchEngine(EngineConfig(profile=True, **config)),
            ).match(dblp, acm)
            assert len(mapping) > 0
    finally:
        BatchMatchEngine.execute = original
    (request, sharded, shard_seconds), (_, parent_cut, no_shards) = seen
    for summary in (sharded, parent_cut):
        assert summary["prepare_seconds"] >= 0.0
        assert summary["score_seconds"] > 0.0
    # shard durations exist exactly when pool tasks were whole shards
    assert len(shard_seconds) > 1 and no_shards == []
    # the request fields the span attributes and the layers read
    assert len(request.specs) == 1
    assert request.specs[0].similarity.name == "trigram"
    assert (request.specs[0].attribute,
            request.specs[0].range_attribute) == ("title", "title")
    assert request.domain is dblp and request.range is acm
    assert request.domain.name != request.range.name
    assert request.is_self is False
    # ...and the two blocking calls the blocking layer times
    attributes = dict(domain_attribute="title", range_attribute="title")
    pairs = list(request.blocking.candidates(request.domain, request.range,
                                             **attributes))
    shards = request.blocking.shards(request.domain, request.range,
                                     n_shards=8, **attributes)
    assert pairs and shards
    assert all(isinstance(shard, PairShard) for shard in shards)
