"""Tests for the shard planner's one rule.

The planner (:meth:`repro.engine.BatchMatchEngine._plan`, the first
step of ``execute``) shards a request when there are workers and its
candidates can shard — an authoritative blocking's ``4 * workers``
shards, an explicit list's ``chunk_size`` runs — and scores anything
else as one shard, inline; there is no switch for it
(``shard_blocking`` is accepted and ignored).  Every decision only
moves work between processes, so the load-bearing property is
unchanged results; the rule itself is pinned through the plan and the
pools a run builds, and the config surface through the field set of
:class:`EngineConfig`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import AttributeMatcher
from repro.blocking import KeyBlocking, TokenBlocking
from repro.engine import BatchMatchEngine, EngineConfig, pool
from repro.engine.request import AttributeSpec, MatchRequest
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.ngram import TrigramSimilarity

SERIAL = BatchMatchEngine(EngineConfig(workers=1, chunk_size=64))
SHARDED = BatchMatchEngine(EngineConfig(workers=4))


def _skewed_source(name: str, count: int, hot: bool = True):
    """A source whose first-token key is dominated by one hot key
    (``hot=False``: ten evenly sized keys)."""
    words = ["adaptive", "stream", "schema", "query", "index",
             "cache", "graph", "join", "view", "cube"]
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for i in range(count):
        first = ("popular" if hot and i % 2 == 0
                 else words[i % len(words)])
        tail = " ".join(words[(i * 7 + j) % len(words)]
                        for j in range(1, 5))
        source.add_record(f"{name.lower()}{i}",
                          title=f"{first} {tail} {i % 97}q")
    return source


def _request(domain, range_, blocking=None, threshold=0.7, **candidates):
    return MatchRequest(
        domain=domain, range=range_,
        specs=[AttributeSpec("title", "title", TrigramSimilarity())],
        threshold=threshold, blocking=blocking, **candidates)


def _plan_costs(engine, request):
    shards, sharded = engine._plan(request)
    assert sharded  # every pool task is one of these shards
    return [shard.cost() for shard in shards]


def _counting_pools(monkeypatch) -> list:
    """The ``max_workers`` of every pool a run builds (one entry per
    pool; none for a run that forks nothing)."""
    built = []

    class Counted(pool.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", Counted)
    return built


def _title_request(dataset, **candidates) -> MatchRequest:
    return _request(dataset.dblp.publications, dataset.acm.publications,
                    threshold=0.4, **candidates)


class TestPlanRule:
    def test_shard_blocking_is_ignored(self, dataset):
        """At two workers a blocked request takes the sharded path
        whatever ``shard_blocking`` says: the same path, shard count
        and rows."""
        seen = []
        for shard_blocking in (False, True):
            engine = BatchMatchEngine(EngineConfig(
                workers=2, chunk_size=64, shard_blocking=shard_blocking,
                profile=True))
            rows = engine.execute(_title_request(
                dataset, blocking=TokenBlocking(max_df=0.5))).to_rows()
            summary = engine.profile_summary()
            seen.append((summary["path"], summary["shards"], rows))
        assert seen[0] == seen[1]
        path, shards, rows = seen[0]
        assert path == "sharded" and shards > 1 and rows

    def test_candidates_that_cannot_shard_fork_nothing(self, dataset,
                                                       monkeypatch):
        """A candidate mapping and a foreign blocking's stream are one
        shard, scored inline, however many workers there are."""

        class Foreign:
            def candidates(self, domain, range, *, domain_attribute,
                           range_attribute):
                for id_a in domain.ids():
                    for id_b in range.ids()[:20]:
                        yield id_a, id_b

        mapping = SERIAL.execute(_title_request(
            dataset, blocking=TokenBlocking(max_df=0.5)))
        assert len(mapping) > 64
        engine = BatchMatchEngine(EngineConfig(workers=4, chunk_size=16,
                                               profile=True))
        built = _counting_pools(monkeypatch)
        for candidates in (dict(candidates=mapping),
                           dict(blocking=Foreign())):
            rows = engine.execute(_title_request(dataset, **candidates))
            assert engine.profile_summary()["shards"] == 0
            assert engine.profile_summary()["chunks"] > 1
            assert rows.to_rows() == SERIAL.execute(
                _title_request(dataset, **candidates)).to_rows()
        assert built == []

    def test_one_worker_is_one_shard_inline(self, dataset):
        shards, sharded = SERIAL._plan(_title_request(
            dataset, blocking=TokenBlocking(max_df=0.5)))
        assert len(shards) == 1 and not sharded


class TestConfigSurface:
    def test_config_has_exactly_four_fields(self):
        assert {f.name for f in dataclasses.fields(EngineConfig)} \
            == {"workers", "chunk_size", "shard_blocking", "profile"}

    def test_engine_takes_only_a_config(self):
        with pytest.raises(TypeError):
            BatchMatchEngine(workers=3)
        with pytest.raises(TypeError):
            BatchMatchEngine(EngineConfig(), chunk_size=17)

    def test_configure_default_engine_builds_the_config(self):
        from repro.engine import (
            configure_default_engine,
            get_default_engine,
            set_default_engine,
        )
        try:
            engine = configure_default_engine(workers=2,
                                              shard_blocking=True)
            assert engine.config == EngineConfig(workers=2,
                                                 shard_blocking=True)
            assert get_default_engine() is engine
            assert configure_default_engine().config == EngineConfig()
            with pytest.raises(TypeError):
                configure_default_engine(balance_shards=True)
        finally:
            set_default_engine(None)


class TestAutoExecution:
    @pytest.mark.parametrize("blocking", [None, KeyBlocking(),
                                          TokenBlocking(max_df=0.8)],
                             ids=["cross", "key", "token"])
    def test_auto_matches_serial_results(self, dataset, blocking):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="trigram",
                                  threshold=0.4, blocking=blocking,
                                  engine=SERIAL)
        sharded = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.4, blocking=blocking,
                                   engine=SHARDED)
        rows = serial.match(dblp, acm).to_rows()
        assert rows == sharded.match(dblp, acm).to_rows()
        assert rows

    def test_auto_rebalances_the_skewed_plan(self):
        """A dominant-key workload — one shard holding most pairs —
        scores like the serial engine on the pool."""
        domain = _skewed_source("SKL", 700)
        range_ = _skewed_source("SKR", 660)
        blocking = KeyBlocking()
        assert SHARDED.execute(_request(domain, range_, blocking)).to_rows() \
            == SERIAL.execute(_request(domain, range_, blocking)).to_rows()

    def test_auto_leaves_flat_plans_naive(self):
        """The planned shard list is the strategy's own ``4 *
        workers`` shards."""
        domain = _skewed_source("FLL", 700, hot=False)
        range_ = _skewed_source("FLR", 660, hot=False)
        blocking = KeyBlocking()
        naive = [shard.cost() for shard in blocking.shards(
            domain, range_, n_shards=16,
            domain_attribute="title", range_attribute="title")]
        assert max(naive) < sum(naive) / 4  # under a worker's share
        assert _plan_costs(SHARDED, _request(domain, range_, blocking)) \
            == naive
        assert SHARDED.execute(_request(domain, range_, blocking)).to_rows() \
            == SERIAL.execute(_request(domain, range_, blocking)).to_rows()

    def test_consecutive_runs_build_the_same_plan(self):
        """Nothing carries over between runs: the plan is a function
        of the request and ``workers`` alone."""
        domain = _skewed_source("ADP", 120)
        engine = BatchMatchEngine(EngineConfig(workers=2))

        def run():
            rows = engine.execute(
                _request(domain, domain, TokenBlocking(), 0.5)).to_rows()
            return rows, _plan_costs(
                engine, _request(domain, domain, TokenBlocking(), 0.5))

        first_rows, first_plan = run()
        second_rows, second_plan = run()
        assert first_plan == second_plan
        assert first_rows == second_rows == SERIAL.execute(
            _request(domain, domain, TokenBlocking(), 0.5)).to_rows()


class TestCliRemovedFlags:
    @pytest.mark.parametrize("flags", [["--auto"], ["--balance-shards"],
                                       ["--n-shards", "3"],
                                       ["--shard-blocking"]],
                             ids=["auto", "balance-shards", "n-shards",
                                  "shard-blocking"])
    def test_removed_flag_is_a_usage_error(self, flags, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([*flags, "stats"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
