"""Engine profiling observes without steering.

``EngineConfig(profile=True)`` reads the timings every pool task
records anyway, so a profiled run must produce the byte-identical
mapping of an unprofiled one on every execution path — slices cut
inline and whole shards in the workers — while filling ``engine.last_profile`` with per-stage
wall-clock timings.
"""

from __future__ import annotations

import pytest

from repro.blocking import TokenBlocking
from repro.core.operators.functions import get_combination
from repro.engine import (
    AttributeSpec,
    BatchMatchEngine,
    EngineConfig,
    MatchRequest,
)
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.edit import LevenshteinSimilarity
from repro.sim.ngram import TrigramSimilarity

# each pair shares one rare, long token ("zebraNNN"), so TokenBlocking
# (min_token_length=3, max_df=0.1) blocks exactly the intended pairs
TITLES_A = [f"streaming theta join zebra{i:03d}" for i in range(40)]
TITLES_B = [f"streaming theta join zebra{i:03d} revised"
            for i in range(0, 80, 2)] \
    + ["entity fusion in warehouses", "graph cardinality estimation"]


def _source(name, titles):
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for index, title in enumerate(titles):
        source.add_record(f"{name.lower()}{index}", title=title)
    return source


def _request(**kwargs):
    return MatchRequest(
        domain=_source("A", TITLES_A), range=_source("B", TITLES_B),
        specs=[AttributeSpec("title", "title", TrigramSimilarity())],
        threshold=0.3, **kwargs)


CONFIGS = {
    "serial": dict(workers=1, chunk_size=64),
    # inline too, in slices that cut across the serial engine's
    "sliced": dict(workers=1, chunk_size=7),
    "sharded": dict(workers=2, chunk_size=64),
}


def _run(profile, blocking=None, **config):
    engine = BatchMatchEngine(EngineConfig(profile=profile, **config))
    kwargs = {"blocking": blocking} if blocking is not None else {}
    mapping = engine.execute(_request(**kwargs))
    return engine, mapping


class TestBitIdentity:
    @pytest.mark.parametrize("path", sorted(CONFIGS))
    def test_profiled_run_matches_unprofiled(self, path):
        config = CONFIGS[path]
        blocking = TokenBlocking() if path == "sharded" else None
        _, plain = _run(False, blocking=blocking, **config)
        engine, profiled = _run(True, blocking=blocking, **config)
        assert profiled.to_rows() == plain.to_rows()
        assert profiled.to_rows()
        assert engine.last_profile is not None

    def test_indexed_path_matches_unprofiled(self):
        # TokenBlocking + single trigram spec takes the indexed fast
        # path on a serial engine
        _, plain = _run(False, blocking=TokenBlocking(),
                        workers=1, chunk_size=64)
        engine, profiled = _run(True, blocking=TokenBlocking(),
                                workers=1, chunk_size=64)
        assert profiled.to_rows() == plain.to_rows()
        assert engine.last_profile["path"] == "indexed"


class TestProfileRecords:
    def test_off_by_default(self):
        engine, _ = _run(False, workers=1, chunk_size=64)
        assert engine.last_profile is None
        assert engine.profile_summary() is None

    def test_serial_profile_fields(self):
        engine, _ = _run(True, workers=1, chunk_size=64)
        profile = engine.last_profile
        assert profile["path"] == "indexed"
        assert profile["chunks"] >= 1
        assert len(profile["chunk_seconds"]) == profile["chunks"]
        assert all(seconds >= 0.0 for seconds in profile["chunk_seconds"])
        assert profile["prepare_seconds"] >= 0.0
        assert profile["shard_seconds"] == []

    def test_sharded_profile_records_shard_durations(self):
        engine, _ = _run(True, blocking=TokenBlocking(), workers=2,
                         chunk_size=64)
        profile = engine.last_profile
        assert profile["path"] == "sharded"
        assert profile["shard_seconds"]
        assert all(seconds >= 0.0 for seconds in profile["shard_seconds"])

    def test_summary_aggregates_last_run(self):
        engine, _ = _run(True, workers=1, chunk_size=64)
        summary = engine.profile_summary()
        assert summary["path"] == engine.last_profile["path"]
        assert summary["chunks"] == engine.last_profile["chunks"]
        assert summary["score_seconds"] == pytest.approx(
            sum(engine.last_profile["chunk_seconds"])
            + sum(engine.last_profile["shard_seconds"]))
        assert summary["chunk_p99_seconds"] >= summary["chunk_p50_seconds"]
        assert summary["shards"] == len(engine.last_profile["shard_seconds"])

    @pytest.mark.parametrize("blocking", [None, TokenBlocking()],
                             ids=["cross", "token"])
    def test_the_named_parts_account_for_execute(self, blocking):
        """plan + prepare + score + load are timed inside ``execute``,
        one after another; what they leave of its wall time is the
        stream (cutting slices, the pool's bookkeeping)."""
        import time

        engine = BatchMatchEngine(EngineConfig(profile=True, chunk_size=64))
        request = _request(**({} if blocking is None
                              else {"blocking": blocking}))
        begun = time.perf_counter()
        engine.execute(request)
        wall = time.perf_counter() - begun
        summary = engine.profile_summary()
        parts = [summary[name] for name in (
            "plan_seconds", "prepare_seconds", "score_seconds",
            "load_seconds")]
        assert all(seconds >= 0.0 for seconds in parts)
        assert sum(parts) <= wall
        assert summary["candidate_rows"] == \
            sum(engine.last_profile["chunk_items"]) > 0
        if blocking is None:
            assert summary["candidate_rows"] == len(TITLES_A) * len(TITLES_B)

    @pytest.mark.parametrize("path", sorted(CONFIGS))
    def test_candidate_and_duplicate_rows_on_every_path(self, path):
        """``candidate_rows`` counts the rows scored on every path (a
        whole shard's come back with its survivors) and
        ``duplicate_rows`` the repeats of overlapping blocks dropped
        before: 12 x 12 pairs, each in the blocks of 7 shared tokens."""
        words = "adaptive query processing over streaming sensor data"
        engine = BatchMatchEngine(EngineConfig(profile=True,
                                               **CONFIGS[path]))
        engine.execute(MatchRequest(
            domain=_source("L", [f"{words} part{i}" for i in range(12)]),
            range=_source("R", [f"{words} vol{i}" for i in range(12)]),
            specs=[AttributeSpec("title", "title", TrigramSimilarity())],
            threshold=0.3, blocking=TokenBlocking(max_df=1.0)))
        summary = engine.profile_summary()
        assert summary["path"] == ("sharded" if path == "sharded"
                                   else "indexed")
        assert summary["candidate_rows"] == 12 * 12
        assert summary["duplicate_rows"] == 6 * 12 * 12

    @pytest.mark.parametrize("path", sorted(CONFIGS))
    def test_kernel_calls_on_every_path(self, path):
        """``kernel_calls`` counts the slices scored, whoever cut them:
        the parent's chunks, or the calls each shard task returns."""
        engine = BatchMatchEngine(EngineConfig(profile=True,
                                               **CONFIGS[path]))
        request = _request(blocking=TokenBlocking(max_df=1.0))
        engine.execute(request)
        summary = engine.profile_summary()
        planner = BatchMatchEngine(EngineConfig(**CONFIGS[path]))
        shards, _ = planner._plan(request)
        runner = planner._prepare(request, shards)
        slices = [item for shard in shards for item in runner.slices(shard)]
        assert summary["kernel_calls"] == len(slices) > 1
        assert summary["candidate_rows"] == sum(
            len(rows_a) for rows_a, _ in slices)
        if path != "sharded":
            assert summary["kernel_calls"] == summary["chunks"]

    def test_disjoint_blocks_report_no_duplicate_rows(self):
        """The cross product's row tiles never overlap."""
        engine, _ = _run(True, workers=1, chunk_size=64)
        summary = engine.profile_summary()
        assert summary["duplicate_rows"] == 0
        assert summary["candidate_rows"] == len(TITLES_A) * len(TITLES_B)

    @pytest.mark.parametrize("path", ["serial", "sharded"])
    def test_warm_run_shows_as_warm(self, path):
        """Same sources, new engine, new similarity, new blocking
        object: the second run finds the posting lists and the packed
        column on the sources and says so."""
        domain, range_ = _source("A", TITLES_A), _source("B", TITLES_B)

        def run():
            engine = BatchMatchEngine(EngineConfig(profile=True,
                                                   **CONFIGS[path]))
            mapping = engine.execute(MatchRequest(
                domain=domain, range=range_, threshold=0.3,
                specs=[AttributeSpec("title", "title", TrigramSimilarity())],
                blocking=TokenBlocking()))
            return mapping.to_rows(), engine.profile_summary()

        cold_rows, cold = run()
        warm_rows, warm = run()
        assert warm_rows == cold_rows
        assert (cold["kernel_cached"], cold["index_cached"]) == (False, False)
        assert (warm["kernel_cached"], warm["index_cached"]) == (True, True)
        assert warm["merged_rows"] == cold["merged_rows"] == len(cold_rows)
        assert warm["survivor_rows"] >= warm["merged_rows"]
        range_.add_record("b-late", title="streaming theta join zebra000 late")
        _, grown = run()
        assert (grown["kernel_cached"], grown["index_cached"]) == (False, False)

    @pytest.mark.parametrize("make_specs", [
        # one object behind two specs: prepared together, kept by nobody
        lambda shared: [AttributeSpec("title", "title", shared),
                             AttributeSpec("title", "title", shared)],
        # the packed half is kept, the scalar half re-prepared and
        # re-wrapped every run
        lambda shared: [
            AttributeSpec("title", "title", TrigramSimilarity()),
            AttributeSpec("title", "title", LevenshteinSimilarity())],
        lambda shared: [
            AttributeSpec("title", "title", LevenshteinSimilarity())],
    ], ids=["shared-similarity", "packed-and-scalar", "scalar-only"])
    def test_kernel_cached_means_every_column_was_found(self, make_specs):
        """``kernel_cached`` is "every spec's bound column came out of
        the sources' memo" — not "nothing was built": a request with
        any un-kept column is never warm, on any run."""
        domain, range_ = _source("A", TITLES_A), _source("B", TITLES_B)
        engine = BatchMatchEngine(EngineConfig(profile=True, chunk_size=64))
        rows = []
        for _ in range(3):
            specs = make_specs(TrigramSimilarity())
            mapping = engine.execute(MatchRequest(
                domain=domain, range=range_, specs=specs, threshold=0.3,
                blocking=TokenBlocking(),
                combiner=get_combination("avg") if len(specs) > 1 else None))
            summary = engine.profile_summary()
            assert summary["path"] == "indexed"
            assert summary["kernel_cached"] is False
            rows.append(mapping.to_rows())
        assert rows[0] and rows[0] == rows[1] == rows[2]
        # the blocking index is another matter: kept from run one on
        assert summary["index_cached"] is True

    def test_index_cached_needs_an_index(self):
        # cross product: no blocking index is ever looked up, so "no
        # index was built" must not read as "the index was cached"
        engine, _ = _run(True, workers=1, chunk_size=64)
        assert engine.profile_summary()["index_cached"] is False
        assert "memo_counts" not in engine.last_profile

    def test_the_bridges_lookups_are_the_prepare_steps_own(self):
        """The sources' row<->code bridges are two more ``derived``
        lookups per request, made where the kernel's are: hits on a
        warm run, they must not read as "the blocking index was
        cached", nor their cold builds as "a column was built"."""
        domain, range_ = _source("A", TITLES_A), _source("B", TITLES_B)
        engine = BatchMatchEngine(EngineConfig(profile=True, chunk_size=64))

        def run(**kwargs):
            before = [(s.derived_hits, s.derived_builds)
                      for s in (domain, range_)]
            mapping = engine.execute(MatchRequest(
                domain=domain, range=range_, threshold=0.3,
                specs=[AttributeSpec("title", "title", TrigramSimilarity())],
                **kwargs))
            after = [(s.derived_hits, s.derived_builds)
                     for s in (domain, range_)]
            return mapping, engine.profile_summary(), [
                (hits - h, builds - b)
                for (hits, builds), (h, b) in zip(after, before)]

        cold, summary, counts = run()
        assert (summary["kernel_cached"], summary["index_cached"]) \
            == (False, False)
        # domain: value list (built for the corpus, found again for
        # packing) + value codes + gram arrays + bound column + bridge;
        # range: the same minus the column, which the domain side keeps
        assert counts == [(1, 5), (1, 4)]
        _, summary, counts = run()
        # column + bridge; bridge — the kept column carries its value
        # codes, so a warm request looks none up
        assert counts == [(2, 0), (1, 0)]
        assert (summary["path"], summary["kernel_cached"],
                summary["index_cached"]) == ("indexed", True, False)
        _, summary, counts = run(candidates=cold)
        assert counts == [(2, 0), (1, 0)]
        assert (summary["path"], summary["kernel_cached"],
                summary["index_cached"]) == ("rows", True, False)
        _, summary, _ = run(blocking=TokenBlocking())
        assert (summary["kernel_cached"], summary["index_cached"]) \
            == (True, False)
        _, summary, _ = run(blocking=TokenBlocking())
        assert (summary["kernel_cached"], summary["index_cached"]) \
            == (True, True)

    def test_a_scalar_columns_code_lookups_are_the_prepare_steps_own(self):
        """A scalar column is rebuilt every run and finds both sides'
        value lists and value codes on the sources: more hits inside
        ``_prepare``, which must not read as a cached kernel or a
        cached index."""
        domain, range_ = _source("A", TITLES_A), _source("B", TITLES_B)
        engine = BatchMatchEngine(EngineConfig(profile=True, chunk_size=64))
        for counts in ([(1, 3), (1, 3)], [(4, 0), (4, 0)]):
            before = [(s.derived_hits, s.derived_builds)
                      for s in (domain, range_)]
            engine.execute(MatchRequest(
                domain=domain, range=range_, threshold=0.3,
                specs=[AttributeSpec("title", "title",
                                     LevenshteinSimilarity())]))
            # value list (for the corpus, then for packing) + value
            # codes + bridge on either side
            assert [(s.derived_hits - hits, s.derived_builds - builds)
                    for s, (hits, builds)
                    in zip((domain, range_), before)] == counts
            summary = engine.profile_summary()
            assert (summary["kernel_cached"], summary["index_cached"]) \
                == (False, False)

    @pytest.mark.parametrize("path", sorted(CONFIGS))
    def test_columns_are_listed_in_evaluation_order(self, path):
        """Kind, distinct counts and table use per spec, known in the
        parent before any worker forks."""
        domain, range_ = _source("A", TITLES_A), _source("B", TITLES_B)
        engine = BatchMatchEngine(EngineConfig(profile=True,
                                               **CONFIGS[path]))
        engine.execute(MatchRequest(
            domain=domain, range=range_, threshold=0.3,
            specs=[AttributeSpec("title", "title", TrigramSimilarity()),
                   AttributeSpec("venue", "venue",
                                 LevenshteinSimilarity())],
            combiner=get_combination("avg"), blocking=TokenBlocking()))
        # no record has a venue: a 0 x 0 grid, tabulated and
        # evaluated before the 40 x 42 titles, which outnumber the
        # blocked rows
        expected = [{"kind": "ScalarColumn", "distinct": [0, 0],
                     "table": True},
                    {"kind": "NGramColumn", "distinct": [40, 42],
                     "table": False}]
        assert engine.last_profile["columns"] == expected
        assert engine.profile_summary()["columns"] == expected

    def test_each_run_resets_the_profile(self):
        engine = BatchMatchEngine(EngineConfig(profile=True, workers=1,
                                               chunk_size=64))
        engine.execute(_request())
        first = engine.last_profile
        engine.execute(_request())
        assert engine.last_profile is not first
