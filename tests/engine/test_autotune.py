"""Tests for the shard planner's cost model.

The planner (:meth:`repro.engine.BatchMatchEngine._plan`, the first
step of ``execute``) always
asks :func:`~repro.engine.shards.autotune_plan` whether the naive
shard list is skewed enough to rebalance — there is no switch for it.
Every decision it makes only moves work between shards, so the
load-bearing property is unchanged results; the decision logic itself
is pinned through the pure ``autotune_plan`` kernel, and the config
surface through the field set of :class:`EngineConfig`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import AttributeMatcher
from repro.blocking import KeyBlocking, TokenBlocking
from repro.engine import BatchMatchEngine, EngineConfig
from repro.engine.request import AttributeSpec, MatchRequest
from repro.engine.shards import AUTO_SKEW_FACTOR, autotune_plan
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.ngram import TrigramSimilarity

SERIAL = BatchMatchEngine(EngineConfig(workers=1, chunk_size=64))
SHARDED = BatchMatchEngine(EngineConfig(workers=4, shard_blocking=True))
SHARDED_INLINE = BatchMatchEngine(EngineConfig(workers=1,
                                               shard_blocking=True))


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


def _request(domain, range_, blocking, threshold=0.7):
    return MatchRequest(
        domain=domain, range=range_,
        specs=[AttributeSpec("title", "title", TrigramSimilarity())],
        threshold=threshold, blocking=blocking)


def _plan_costs(engine, request):
    shards, sharded = engine._plan(request)
    assert sharded  # every pool task is one of these shards
    return [shard.cost() for shard in shards]


class TestAutotunePlan:
    def test_dominant_shard_triggers_balancing(self):
        balance, _ = autotune_plan([525_000, 105_000], workers=4)
        assert balance

    def test_flat_distribution_stays_naive(self):
        balance, _ = autotune_plan([100] * 16, workers=4)
        assert not balance

    def test_single_oversized_shard_is_worst_skew(self):
        balance, _ = autotune_plan([1_000_000], workers=4)
        assert balance

    def test_serial_run_never_balances(self):
        # with one worker there is no makespan to cut
        balance, _ = autotune_plan([1_000_000, 10], workers=1)
        assert not balance

    def test_unknown_costs_disable_balancing(self):
        balance, bins = autotune_plan([None, None, None], workers=4)
        assert not balance
        assert bins == 16

    def test_unknown_costs_assumed_average(self):
        # unknowns fill in at the known mean, so a shard dominating
        # the known costs still reads as skew
        balance, _ = autotune_plan([1_000_000, 10, 10, None], workers=4)
        assert balance
        # ...while a lone known cost among unknowns reads as flat
        balance, _ = autotune_plan([1_000_000, None, None, None],
                                   workers=4)
        assert not balance

    def test_bin_count_scales_with_total_cost(self):
        _, small = autotune_plan([1_000] * 8, workers=4)
        _, large = autotune_plan([10_000_000] * 8, workers=4)
        assert small == 16          # floor: 4 per worker
        assert large == 64          # ceiling: 16 per worker

    def test_threshold_boundary(self):
        # exactly at the factor: max * workers == factor * total
        total = 1000
        hot = int(AUTO_SKEW_FACTOR * total / 4)
        balance, _ = autotune_plan([hot, total - hot], workers=4)
        assert balance


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

    def test_auto_inline_matches_serial_results(self, dataset):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        serial = AttributeMatcher("title", similarity="levenshtein",
                                  threshold=0.3, engine=SERIAL)
        inline = AttributeMatcher("title", similarity="levenshtein",
                                  threshold=0.3, engine=SHARDED_INLINE)
        assert serial.match(dblp, acm).to_rows() \
            == inline.match(dblp, acm).to_rows()

    def test_auto_rebalances_the_skewed_plan(self):
        """On a dominant-key workload ``shard_blocking=True`` alone
        must yield a rebalanced plan: no bin beyond 2x the mean, and
        the same mapping as the serial engine."""
        domain = _skewed_source("SKL", 700)
        range_ = _skewed_source("SKR", 660)
        blocking = KeyBlocking()
        naive = [shard.cost() for shard in blocking.shards(
            domain, range_, n_shards=16,
            domain_attribute="title", range_attribute="title")]
        assert max(naive) > 2 * sum(naive) / 4  # twice a worker's share
        planned = _plan_costs(SHARDED, _request(domain, range_, blocking))
        assert sum(planned) == sum(naive)
        assert max(planned) <= 2 * sum(planned) / len(planned)
        assert SHARDED.execute(_request(domain, range_, blocking)).to_rows() \
            == SERIAL.execute(_request(domain, range_, blocking)).to_rows()

    def test_auto_leaves_flat_plans_naive(self):
        """An unskewed plan must not pay the splitting pass: the
        planned shard list is the naive shard list."""
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
        engine = BatchMatchEngine(EngineConfig(workers=2,
                                               shard_blocking=True))

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
                                       ["--n-shards", "3"]],
                             ids=["auto", "balance-shards", "n-shards"])
    def test_removed_flag_is_a_usage_error(self, flags, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([*flags, "stats"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
