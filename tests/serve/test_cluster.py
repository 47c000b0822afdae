"""Partitioned serving tier: scatter-gather equivalence + snapshot/restore.

The contract under test is *bit-identity*: a cluster of N shards must
return exactly the results of the single in-heap
:class:`~repro.serve.index.IncrementalIndex` — same ids, same float
scores, same order — on a frozen reference and across arbitrary
mutation interleavings (shards compact on their own schedules, so
this exercises the compaction-independent ordering contract).
"""

import json
import os
import random
import signal
import struct
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import ClusterIndex, IncrementalIndex, SnapshotUnavailable
from repro.serve.cluster import _fork_available
from repro.sim.ngram import TrigramSimilarity
from repro.sim.registry import get_similarity
from repro.sim.tfidf import TfIdfCosineSimilarity

WORDS = ["adaptive", "stream", "schema", "query", "index", "cache",
         "graph", "join", "view", "cube", "match", "entity", "fusion",
         "warehouse", "cleaning", "lineage"]


def _title(rng):
    return " ".join(rng.choice(WORDS) for _ in range(4))


def _reference(n=40, seed=11):
    rng = random.Random(seed)
    source = LogicalSource(PhysicalSource("DBLP"), ObjectType("Publication"))
    for i in range(n):
        source.add_record(f"p{i}", title=f"{_title(rng)} {i}")
    return source


def _queries(rng, count=6):
    return [ObjectInstance(f"q{i}", {"title": _title(rng)})
            for i in range(count)]


SPECS = [AttributeSpec("title", "title", TrigramSimilarity())]


def _single(reference, **kwargs):
    return IncrementalIndex(reference, specs=SPECS, **kwargs)


def _cluster(reference, shards, **kwargs):
    kwargs.setdefault("processes", False)
    return ClusterIndex.build(reference, specs=SPECS, shards=shards,
                              **kwargs)


def _add_parent_keys(shard_dir) -> None:
    """Rewrite a shard's latest base in the layout that stored each
    TF/IDF column's sorted ``row * max(1, V) + token`` keys beside its
    arrays, as the lookup by binary search needed them."""
    base = max(shard_dir.glob("base-*"), key=lambda path: int(path.name[5:]))
    meta = json.loads((base / "meta.json").read_text())
    for position, column in enumerate(meta["columns"]):
        if column["meta"]["kind"] != "tfidf":
            continue
        files = {spec["name"]: spec["file"] for spec in column["arrays"]}
        indices, lengths = (np.fromfile(base / files[name], dtype=np.int64)
                            for name in ("indices", "lengths"))
        rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys = np.sort(rows * max(1, len(column["meta"]["vocabulary"]))
                       + indices)
        keys.tofile(base / f"col{position}.keys.bin")
        column["arrays"].insert(3, {"name": "keys",
                                    "file": f"col{position}.keys.bin",
                                    "dtype": "int64",
                                    "shape": [len(keys)]})
    (base / "meta.json").write_text(json.dumps(meta))


def _assert_matches_equal(single, cluster, records, *,
                          threshold=0.2, max_candidates=50):
    expected = single.match_records(records, threshold=threshold,
                                    max_candidates=max_candidates)
    actual = cluster.match_records(records, threshold=threshold,
                                   max_candidates=max_candidates)
    assert actual == expected  # bit-identical: ids, floats, order


class TestFrozenReferenceEquivalence:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_pruned_matches_single_index(self, shards):
        reference = _reference()
        single = _single(_reference())
        cluster = _cluster(reference, shards)
        try:
            assert cluster.ids() == single.ids()
            assert len(cluster) == len(single)
            _assert_matches_equal(single, cluster,
                                  _queries(random.Random(3)))
        finally:
            cluster.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_exhaustive_matches_single_index(self, shards):
        single = _single(_reference())
        cluster = _cluster(_reference(), shards)
        try:
            _assert_matches_equal(single, cluster,
                                  _queries(random.Random(4)),
                                  max_candidates=None)
        finally:
            cluster.close()

    def test_more_shards_than_records(self):
        single = _single(_reference(3))
        cluster = _cluster(_reference(3), 5)
        try:
            assert cluster.ids() == single.ids()
            _assert_matches_equal(single, cluster,
                                  _queries(random.Random(5)))
        finally:
            cluster.close()


class TestMutationInterleavings:
    def test_random_interleaving_stays_bit_identical(self):
        """~200 random add/update/delete steps; every few steps the
        cluster must answer exactly like the single index (small
        ``compact_min`` keeps shard compactions firing at different
        times than the single index's)."""
        rng = random.Random(2024)
        single = _single(_reference(), compact_min=8)
        cluster = _cluster(_reference(), 3, compact_min=8)
        next_id = 1000
        try:
            for step in range(200):
                op = rng.random()
                live = single.ids()
                if op < 0.45 or not live:
                    instance = ObjectInstance(
                        f"n{next_id}", {"title": _title(rng)})
                    next_id += 1
                    single.add(instance)
                    cluster.add(instance)
                elif op < 0.75:
                    instance = ObjectInstance(
                        rng.choice(live), {"title": _title(rng)})
                    single.update(instance)
                    cluster.update(instance)
                else:
                    id = rng.choice(live)
                    assert single.delete(id) == cluster.delete(id)
                if step % 4 == 0:
                    assert cluster.ids() == single.ids()
                    _assert_matches_equal(single, cluster,
                                          _queries(rng, 3))
            assert len(cluster) == len(single)
            stats = cluster.stats()
            assert stats["records"] == len(single)
            assert stats["shards"] == 3
        finally:
            cluster.close()

    def test_router_mutation_errors_match_single_index(self):
        single = _single(_reference(8))
        cluster = _cluster(_reference(8), 2)
        try:
            duplicate = ObjectInstance("p1", {"title": "dup"})
            with pytest.raises(ValueError):
                single.add(duplicate)
            with pytest.raises(ValueError):
                cluster.add(duplicate)
            ghost = ObjectInstance("ghost", {"title": "x"})
            with pytest.raises(KeyError):
                single.update(ghost)
            with pytest.raises(KeyError):
                cluster.update(ghost)
            assert cluster.delete("ghost") is False
            assert "p1" in cluster and "ghost" not in cluster
            assert cluster.get("p1").attributes["title"] \
                == single.get("p1").attributes["title"]
        finally:
            cluster.close()


@pytest.mark.skipif(not _fork_available(),
                    reason="fork start method unavailable")
class TestProcessShards:
    def test_worker_processes_match_single_index(self):
        rng = random.Random(7)
        single = _single(_reference(), compact_min=8)
        cluster = ClusterIndex.build(_reference(), specs=SPECS, shards=2,
                                     processes=True, compact_min=8)
        try:
            _assert_matches_equal(single, cluster, _queries(rng))
            for i in range(12):
                instance = ObjectInstance(f"w{i}", {"title": _title(rng)})
                single.add(instance)
                cluster.add(instance)
            single.delete("p5")
            cluster.delete("p5")
            assert cluster.ids() == single.ids()
            _assert_matches_equal(single, cluster, _queries(rng))
        finally:
            cluster.close()

    @pytest.mark.parametrize("mode", ["build", "restore"])
    def test_tfidf_in_process_shards_answer_like_worker_processes(
            self, tmp_path, mode):
        """Each shard prepares its own similarity: in-process shards
        handed the same spec objects must not score with the last
        slice's document frequencies."""
        def build(processes, data_dir):
            specs = [AttributeSpec("title", "title", TfIdfCosineSimilarity())]
            cluster = ClusterIndex.build(_reference(), specs=specs, shards=2,
                                         processes=processes,
                                         data_dir=str(data_dir))
            if mode == "build":
                return cluster
            cluster.close()
            return ClusterIndex.restore(str(data_dir), processes=processes)

        queries = _queries(random.Random(17), count=12)
        answers = []
        for processes in (False, True):
            cluster = build(processes, tmp_path / str(processes))
            try:
                answers.append([
                    [(id, struct.pack("<d", score)) for id, score in answer]
                    for answer in cluster.match_records(queries,
                                                        threshold=0.1)])
                if not processes:
                    similarities = [shard.backend.index.specs[0].similarity
                                    for shard in cluster._shards]
            finally:
                cluster.close()
        assert answers[0] == answers[1]
        assert any(answers[0])
        assert similarities[0] is not similarities[1]

    def test_workers_exit_when_the_router_is_killed(self):
        """A router that dies without sending ``shutdown`` (SIGKILL)
        must not leave its workers behind: each sees EOF on its
        channel once no inherited router-side socket keeps it open."""
        router = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent("""
                import sys, time
                from repro.engine.request import AttributeSpec
                from repro.model.source import (LogicalSource, ObjectType,
                                                PhysicalSource)
                from repro.serve import ClusterIndex
                from repro.sim.ngram import TrigramSimilarity

                source = LogicalSource(PhysicalSource("DBLP"),
                                       ObjectType("Publication"))
                for i in range(8):
                    source.add_record(f"p{i}", title=f"stream schema {i}")
                cluster = ClusterIndex.build(
                    source, shards=2, processes=True,
                    specs=[AttributeSpec("title", "title",
                                         TrigramSimilarity())])
                print(*(shard.process.pid for shard in cluster._shards),
                      flush=True)
                time.sleep(60)
            """)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        workers = []
        try:
            workers = [int(pid) for pid in router.stdout.readline().split()]
            assert len(workers) == 2
            router.kill()
            router.wait(timeout=5)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                    _alive(pid) for pid in workers):
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            router.kill()
            router.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestSnapshotRestore:
    def _mutate(self, index, rng, rounds=30):
        for i in range(rounds):
            index.add(ObjectInstance(f"s{i}", {"title": _title(rng)}))
        index.update(ObjectInstance("s3", {"title": "renamed row"}))
        index.delete("s7")

    def test_checkpoint_close_restore_round_trip(self, tmp_path):
        rng = random.Random(42)
        cluster = _cluster(_reference(), 2, data_dir=str(tmp_path),
                           compact_min=8)
        self._mutate(cluster, rng)
        manifest = cluster.checkpoint()
        assert manifest["seq"] == cluster._seq
        queries = _queries(random.Random(9))
        before = {
            "ids": cluster.ids(),
            "stats": cluster.stats(),
            "matches": cluster.match_records(queries, threshold=0.2),
        }
        cluster.close()

        restored = ClusterIndex.restore(str(tmp_path), processes=False)
        try:
            assert restored.ids() == before["ids"]
            assert restored.stats() == before["stats"]
            assert restored.match_records(queries, threshold=0.2) \
                == before["matches"]
        finally:
            restored.close()

    def test_post_checkpoint_mutations_are_not_in_the_image(self, tmp_path):
        cluster = _cluster(_reference(12), 2, data_dir=str(tmp_path))
        cluster.checkpoint()
        cluster.add(ObjectInstance("lost", {"title": "after the image"}))
        cluster.close()
        restored = ClusterIndex.restore(str(tmp_path), processes=False)
        try:
            assert "lost" not in restored
            assert len(restored) == 12
        finally:
            restored.close()

    def test_restored_cluster_keeps_bit_identity(self, tmp_path):
        """Mutations *after* a restore still track the single index —
        the restart replays the exact state trajectory (same gseqs,
        same compaction points), not just the same record set."""
        rng = random.Random(13)
        single = _single(_reference(), compact_min=8)
        cluster = _cluster(_reference(), 2, data_dir=str(tmp_path),
                           compact_min=8)
        for i in range(20):
            instance = ObjectInstance(f"r{i}", {"title": _title(rng)})
            single.add(instance)
            cluster.add(instance)
        cluster.checkpoint()
        cluster.close()

        restored = ClusterIndex.restore(str(tmp_path), processes=False)
        try:
            for i in range(20, 32):
                instance = ObjectInstance(f"r{i}", {"title": _title(rng)})
                single.add(instance)
                restored.add(instance)
            single.delete("r4")
            restored.delete("r4")
            assert restored.ids() == single.ids()
            _assert_matches_equal(single, restored, _queries(rng))
        finally:
            restored.close()

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_restore_into_worker_processes(self, tmp_path):
        rng = random.Random(21)
        cluster = ClusterIndex.build(_reference(), specs=SPECS, shards=2,
                                     processes=True,
                                     data_dir=str(tmp_path))
        self._mutate(cluster, rng, rounds=10)
        cluster.checkpoint()
        queries = _queries(random.Random(22))
        before = cluster.match_records(queries, threshold=0.2)
        cluster.close()
        restored = ClusterIndex.restore(str(tmp_path), processes=True)
        try:
            assert restored.match_records(queries, threshold=0.2) == before
        finally:
            restored.close()

    @pytest.mark.parametrize("layout", ["current", "with-keys"])
    def test_tfidf_base_restores_bitwise(self, tmp_path, layout):
        """A TF/IDF spec snapshots and restores to identical answers —
        also from a base in the layout written before partner weights
        were read by direct address, which stores each TF/IDF column's
        ``keys`` (``col<i>.keys.bin``): a restore ignores them and
        rebuilds the bit rows from the CSR arrays."""
        specs = [AttributeSpec("title", "title", TfIdfCosineSimilarity())]
        cluster = ClusterIndex.build(_reference(), specs=specs, shards=2,
                                     processes=False, data_dir=str(tmp_path))
        queries = _queries(random.Random(9))
        before = cluster.match_records(queries, threshold=0.1)
        cluster.checkpoint()
        cluster.close()
        if layout == "with-keys":
            for shard in range(2):
                _add_parent_keys(tmp_path / f"shard-{shard:02d}")
        restored = ClusterIndex.restore(str(tmp_path), processes=False)
        try:
            after = restored.match_records(queries, threshold=0.1)
        finally:
            restored.close()
        assert [[(id, struct.pack("<d", score)) for id, score in answer]
                for answer in after] \
            == [[(id, struct.pack("<d", score)) for id, score in answer]
                for answer in before]
        assert any(before)

    def test_base_of_unpacked_specs_in_the_older_layout_restores(
            self, tmp_path):
        """Snapshots used to write ``{"kind": "none"}`` for every column
        of an index none of whose specs packed; such a base restores
        onto scalar columns and answers like a fresh index."""
        specs = [AttributeSpec("title", "title", get_similarity("editdistance"))]
        rng = random.Random(31)
        single = IncrementalIndex(_reference(), specs=specs)
        cluster = ClusterIndex.build(_reference(), specs=specs, shards=2,
                                     processes=False, data_dir=str(tmp_path))
        self._mutate(single, random.Random(5), rounds=6)
        self._mutate(cluster, random.Random(5), rounds=6)
        cluster.checkpoint()
        cluster.close()
        for shard in range(2):
            base = max((tmp_path / f"shard-{shard:02d}").glob("base-*"),
                       key=lambda path: int(path.name[5:]))
            meta = json.loads((base / "meta.json").read_text())
            assert [column["meta"] for column in meta["columns"]] \
                == [{"kind": "scalar"}]
            meta["columns"][0]["meta"] = {"kind": "none"}
            (base / "meta.json").write_text(json.dumps(meta))
        restored = ClusterIndex.restore(str(tmp_path), processes=False)
        try:
            assert restored.ids() == single.ids()
            _assert_matches_equal(single, restored, _queries(rng, count=8))
        finally:
            restored.close()

    def test_checkpoint_without_data_dir_raises(self):
        cluster = _cluster(_reference(6), 2)
        try:
            with pytest.raises(SnapshotUnavailable):
                cluster.checkpoint()
        finally:
            cluster.close()

    def test_restore_requires_a_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ClusterIndex.restore(str(tmp_path / "nowhere"))
