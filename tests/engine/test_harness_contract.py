"""What ``benchmarks/moma_bench`` takes from the program, pinned.

The harness directory is read-only to ordinary PRs, so a rename it
depends on surfaces only when the benchmark gate runs it.  This suite
fails in tier-1 instead: every name, keyword and attribute below is
one ``benchmarks/moma_bench/batch.py`` (``_install_core_wrappers``,
``_blocking_layer``, ``_sim_layer``, ``_sharded_engine``,
``run_workflows``, ``_runners``, ``_named_mappings``) or
``benchmarks/moma_bench/layers.py`` (``index_read_layer``,
``cluster_layer``) reads.  If a test here has
to change, the harness has to change with it — which takes a
``benchmark``-labelled PR.
"""

from __future__ import annotations

import inspect

import pytest

from repro import AttributeMatcher
from repro.blocking import KeyBlocking, TokenBlocking
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


@pytest.mark.parametrize("blocking, attribute", [
    (TokenBlocking(max_df=0.5), "title"),
    (KeyBlocking(key=lambda value: None if value is None else str(value)),
     "year"),
], ids=["TokenBlocking", "KeyBlocking"])
def test_the_two_blocking_calls_the_blocking_layer_times(dataset, blocking,
                                                         attribute):
    dblp, acm = dataset.dblp.publications, dataset.acm.publications
    attributes = dict(domain_attribute=attribute, range_attribute=attribute)
    pairs = list(blocking.candidates(dblp, acm, **attributes))
    shards = blocking.shards(dblp, acm, n_shards=8, **attributes)
    assert pairs and 1 <= len(shards) <= 8
    assert all(isinstance(shard, PairShard) for shard in shards)
    # what the similarity sample is drawn from
    id_a, id_b = pairs[0]
    assert dblp.require(id_a).id == id_a and acm.require(id_b).id == id_b


@pytest.mark.parametrize("name", ["trigram", "tfidf"])
def test_similarity_layer_calls(name):
    from repro.sim import get_similarity

    sample = [("adaptive query processing", "adaptive query optimization"),
              ("schema matching", "schema matching survey"), ("x", "y")]
    similarity = get_similarity(name)
    assert similarity.name == name
    # ``_sim_layer`` times both calls: ``prepare`` takes the flat value
    # list (repeats included) and returns nothing, ``score_batch`` one
    # float per pair, in order — the pairwise ``similarity``
    assert similarity.prepare(
        [value for pair in sample for value in pair]) is None
    scores = similarity.score_batch(sample)
    assert type(scores) is list and len(scores) == len(sample)
    assert all(type(score) is float and 0.0 <= score <= 1.0
               for score in scores)
    assert scores[0] > 0.0 and scores[2] == 0.0
    assert scores == [similarity.similarity(a, b) for a, b in sample]


def test_index_read_layer_calls(dataset):
    from repro.serve import IncrementalIndex

    reference = dataset.acm.publications
    records = [instance for instance in dataset.dblp.publications][:6]
    answers = []
    for mode in ("auto", "never", "always"):
        index = IncrementalIndex(reference, pruning=mode)
        answers.append(index.match_records(records, threshold=0.5,
                                           max_candidates=20))
        pruning = index.stats()["pruning"]
        assert set(pruning) >= {"queries", "pruned_queries",
                                "postings_touched", "postings_skipped"}
        assert pruning["queries"] == len(records)
    assert answers[0] == answers[1] == answers[2]
    title = str(records[0].get("title"))
    assert index.ranked_candidates(title, 20)
    ids = index.candidate_ids(title, 20)
    assert index.score_pairs(records[:1], [(0, id) for id in ids],
                             threshold=0.5) is not None


def test_cluster_layer_calls(dataset, tmp_path):
    from repro.serve import ClusterIndex
    from repro.serve.index import resolve_specs

    build = inspect.signature(ClusterIndex.build).parameters
    assert {"specs", "shards", "processes", "data_dir"} <= set(build)
    assert build["processes"].default is True

    reference = dataset.acm.publications
    records = [instance for instance in dataset.dblp.publications][:4]
    specs = resolve_specs("title", "trigram", None)
    data_dir = str(tmp_path / "cluster")
    cluster = ClusterIndex.build(reference, specs=specs, shards=2,
                                 processes=False, data_dir=data_dir)
    try:
        answer = cluster.match_records(records, threshold=0.5,
                                       max_candidates=20)
        cluster.checkpoint()
    finally:
        cluster.close()
    # the harness restores with the default (process) topology; one
    # restore here keeps that spelling alive without a second pool
    restore = inspect.signature(ClusterIndex.restore).parameters
    assert list(restore)[0] == "data_dir"
    restored = ClusterIndex.restore(data_dir, processes=False)
    try:
        assert restored.match_records(records, threshold=0.5,
                                      max_candidates=20) == answer
    finally:
        restored.close()


def _f1_values(node):
    """``batch.py::_f1_values``: every ``f1`` in a runner's data tree."""
    if not isinstance(node, dict):
        return []
    if "f1" in node:
        return [node["f1"]]
    return [f1 for child in node.values() for f1 in _f1_values(child)]


def test_workflow_pass_calls(dataset):
    """``run_workflows``: a ``Workbench`` per dataset, every runner
    handed that workbench, the cache's hit ratio after the pass, the
    source bundles for the record count, and ``_named_mappings``'
    eight accessor calls with exactly these arguments."""
    from repro.core.mapping import Mapping
    from repro.eval import experiments
    from repro.eval.experiments import Workbench

    workbench = Workbench(dataset)
    for bundle in (workbench.dataset.dblp, workbench.dataset.acm,
                   workbench.dataset.gs):
        assert len(bundle.publications) > 0 and len(bundle.authors) > 0
    runners = [(f"table{n}", getattr(experiments, f"run_table{n}"))
               for n in range(2, 11)]
    runners.append(("self_mapping", experiments.run_self_mapping_extension))
    f1s = {name: _f1_values(runner(workbench).data)
           for name, runner in runners}
    # tables 9 and 10 report no P / R / F row; every other runner does
    assert [name for name, values in f1s.items() if not values] == \
        ["table9", "table10"]
    assert all(type(f1) is float for values in f1s.values() for f1 in values)
    cache = workbench.cache.stats()
    assert cache["hits"] + cache["misses"] > 0
    assert 0.0 < cache["hits"] / (cache["hits"] + cache["misses"]) < 1.0
    named = [
        workbench.fuzzy_title("DBLP", "ACM"),
        workbench.fuzzy_title("DBLP", "GS"),
        workbench.fuzzy_title("ACM", "GS"),
        workbench.fuzzy_pub_authors("DBLP", "ACM"),
        workbench.fuzzy_author_names("DBLP", "ACM"),
        workbench.venue_same(),
        workbench.gs_author_same("DBLP"),
        workbench.gs_author_same("ACM"),
    ]
    for mapping in named:
        assert isinstance(mapping, Mapping) and mapping.to_rows()


def test_table_runs_call_operators_through_patchable_globals(dataset):
    """``Tracer.wrap_function`` replaces ``merge`` / ``compose`` /
    ``neighborhood_match`` in the globals of every loaded ``repro``
    module that holds them; a table run has to call them through such
    a global (an operator captured in a table at import time reads
    ``core.compose_s == 0``)."""
    import sys

    from repro.core.matchers.neighborhood import neighborhood_match
    from repro.core.operators.compose import compose
    from repro.core.operators.merge import merge
    from repro.eval.experiments import Workbench, run_table3, run_table4

    seen, undo = [], []

    def wrap(function, name):
        def traced(*args, **kwargs):
            seen.append(name)
            return function(*args, **kwargs)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, traced)
                    undo.append((module, attribute, function))

    try:
        wrap(merge, "core.merge")
        wrap(compose, "core.compose")
        wrap(neighborhood_match, "core.neighborhood")
        workbench = Workbench(dataset)
        # table 3: three compose and three merge steps, no neighborhood
        run_table3(workbench)
        assert seen.count("core.compose") == 3
        assert seen.count("core.merge") == 3
        run_table4(workbench)
        assert seen.count("core.neighborhood") == 1
        # the neighborhood's own two compositions are seen as well
        assert seen.count("core.compose") == 5
    finally:
        for module, attribute, function in undo:
            setattr(module, attribute, function)
