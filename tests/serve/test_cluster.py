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
import threading

import numpy as np
import pytest

from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.obs import MetricsRegistry
from repro.serve import ClusterIndex, IncrementalIndex, SnapshotUnavailable
from repro.serve import partition as partition_layout
from repro.serve.index import posting_tokens
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
    return ClusterIndex.build(reference, specs=SPECS, shards=shards,
                              **kwargs)


def _bits(answers):
    """Answers with every score as its float's bytes."""
    return [[(id, struct.pack("<d", score)) for id, score in answer]
            for answer in answers]


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


class TestDocumentFrequencies:
    def test_weight_maps_follow_the_live_records(self):
        """The router reads document frequencies off the shards'
        postings: after mixed add / update / delete / compact steps its
        weight map for a value is ``1 / df`` over the live records, and
        answers stay the single index's."""
        rng = random.Random(77)
        single = _single(_reference(), compact_min=4)
        cluster = _cluster(_reference(), 3, compact_min=4)
        next_id = 0
        try:
            for step in range(120):
                op = rng.random()
                live = single.ids()
                if op < 0.45 or not live:
                    instance = ObjectInstance(f"n{next_id}",
                                              {"title": _title(rng)})
                    next_id += 1
                    single.add(instance)
                    cluster.add(instance)
                elif op < 0.7:
                    instance = ObjectInstance(rng.choice(live),
                                              {"title": _title(rng)})
                    single.update(instance)
                    cluster.update(instance)
                else:
                    id = rng.choice(live)
                    assert single.delete(id) == cluster.delete(id)
                if step % 40 == 39:
                    single.compact()
                    cluster.compact()
                if step % 10 == 0:
                    df = {}
                    for instance in single.instances():
                        for token in posting_tokens(instance.get("title")):
                            df[token] = df.get(token, 0) + 1
                    for value in WORDS + [_title(rng) + " unseen"]:
                        expected = {token: 1.0 / df[token]
                                    for token in posting_tokens(value)
                                    if token in df}
                        assert cluster._weight_map(value) == (expected or None)
                    assert cluster.stats()["tokens"] == len(df)
                    _assert_matches_equal(single, cluster, _queries(rng, 3))
        finally:
            cluster.close()


class TestInProcessShards:
    @pytest.mark.parametrize("mode", ["build", "restore"])
    def test_tfidf_shards_score_with_their_own_slice(self, tmp_path, mode):
        """Each shard prepares its own similarity: no two shards share
        one, and every TF/IDF shard answers exactly like a single index
        built over its own slice of the reference."""
        def specs():
            return [AttributeSpec("title", "title", TfIdfCosineSimilarity())]

        cluster = ClusterIndex.build(_reference(), specs=specs(), shards=2,
                                     data_dir=str(tmp_path))
        if mode == "restore":
            cluster.close()
            cluster = ClusterIndex.restore(str(tmp_path))
        queries = _queries(random.Random(17), count=12)
        instances = list(_reference())
        try:
            similarities = [shard.index.specs[0].similarity
                            for shard in cluster._shards]
            assert similarities[0] is not similarities[1]
            spans = partition_layout.initial_partition(len(instances), 2)
            for shard, (start, end) in zip(cluster._shards, spans):
                part = LogicalSource(PhysicalSource("DBLP"),
                                     ObjectType("Publication"))
                for instance in instances[start:end]:
                    part.add(instance)
                alone = IncrementalIndex(part, specs=specs())
                expected = alone.match_records(queries, threshold=0.1,
                                               max_candidates=None)
                assert _bits(shard.index.match_records(
                    queries, threshold=0.1, max_candidates=None)) \
                    == _bits(expected)
                assert any(expected)
        finally:
            cluster.close()

    @pytest.mark.parametrize("mode", ["build", "restore"])
    def test_processes_keyword_must_be_a_bool(self, tmp_path, mode):
        cluster = _cluster(_reference(8), 2, data_dir=str(tmp_path))
        cluster.checkpoint()
        cluster.close()
        with pytest.raises(ValueError, match="processes must be a bool"):
            if mode == "build":
                _cluster(_reference(8), 2, processes="yes")
            else:
                ClusterIndex.restore(str(tmp_path), processes=1)

    def test_processes_keyword_selects_nothing(self, tmp_path):
        """``processes=True`` and ``processes=False`` build and restore
        the same in-process cluster, answering bit for bit alike."""
        queries = _queries(random.Random(19))
        answers = []
        for processes in (True, False):
            data_dir = str(tmp_path / f"data-{processes}")
            cluster = _cluster(_reference(), 2, processes=processes,
                               data_dir=data_dir)
            try:
                answers.append(_bits(cluster.match_records(
                    queries, threshold=0.2)))
                cluster.checkpoint()
            finally:
                cluster.close()
            restored = ClusterIndex.restore(data_dir, processes=processes)
            try:
                answers.append(_bits(restored.match_records(
                    queries, threshold=0.2)))
            finally:
                restored.close()
        assert any(answers[0])
        assert answers[1:] == answers[:1] * 3

    def test_round_histogram_observes_each_shard_call(self):
        """One ``repro_cluster_round_seconds`` observation per shard
        call: every shard in the candidates round, only the shards
        holding a surviving pair in the score round."""
        registry = MetricsRegistry()
        cluster = _cluster(_reference(), 2)
        cluster.set_metrics(registry)
        try:
            query = ObjectInstance("q", {"title": "stream schema 3"})
            cluster.match_records([query], threshold=0.2, max_candidates=1)

            def count(round_name, shard):
                return registry.histogram(
                    "repro_cluster_round_seconds",
                    labels={"round": round_name, "shard": shard}).count

            assert [count("candidates", shard) for shard in (0, 1)] \
                == [1, 1]
            assert sorted(count("score", shard) for shard in (0, 1)) \
                == [0, 1]
        finally:
            cluster.close()

    def test_served_cluster_is_one_process(self, tmp_path):
        """``repro serve --shards 2 --data-dir D`` runs its shards in
        the router's process: once it prints ``serving``, its session
        holds exactly one live process."""
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "--scale", "tiny", "serve",
             "--port", "0", "--shards", "2",
             "--data-dir", str(tmp_path / "data")],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        # a server that never prints its banner is killed, which ends
        # the read loop below
        watchdog = threading.Timer(60.0, os.killpg,
                                   (server.pid, signal.SIGKILL))
        watchdog.start()
        try:
            banner = ""
            for line in server.stdout:
                if line.startswith("serving "):
                    banner = line
                    break
            assert "2 in-process shard(s)" in banner
            assert _session_members(server.pid) == [server.pid]
        finally:
            watchdog.cancel()
            os.killpg(server.pid, signal.SIGKILL)
            server.wait(timeout=5)
            server.stdout.close()


def _session_members(session: int) -> list:
    """Live (not zombie) processes of ``session``, by pid."""
    members = []
    for entry in sorted(os.listdir("/proc")):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


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

        restored = ClusterIndex.restore(str(tmp_path))
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
        restored = ClusterIndex.restore(str(tmp_path))
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

        restored = ClusterIndex.restore(str(tmp_path))
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

    @pytest.mark.parametrize("layout", ["current", "with-keys"])
    def test_tfidf_base_restores_bitwise(self, tmp_path, layout):
        """A TF/IDF spec snapshots and restores to identical answers —
        also from a base in the layout written before partner weights
        were read by direct address, which stores each TF/IDF column's
        ``keys`` (``col<i>.keys.bin``): a restore ignores them and
        rebuilds the bit rows from the CSR arrays."""
        specs = [AttributeSpec("title", "title", TfIdfCosineSimilarity())]
        cluster = ClusterIndex.build(_reference(), specs=specs, shards=2,
                                     data_dir=str(tmp_path))
        queries = _queries(random.Random(9))
        before = cluster.match_records(queries, threshold=0.1)
        cluster.checkpoint()
        cluster.close()
        if layout == "with-keys":
            for shard in range(2):
                _add_parent_keys(tmp_path / f"shard-{shard:02d}")
        restored = ClusterIndex.restore(str(tmp_path))
        try:
            after = restored.match_records(queries, threshold=0.1)
        finally:
            restored.close()
        assert _bits(after) == _bits(before)
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
                                     data_dir=str(tmp_path))
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
        restored = ClusterIndex.restore(str(tmp_path))
        try:
            assert restored.ids() == single.ids()
            _assert_matches_equal(single, restored, _queries(rng, count=8))
        finally:
            restored.close()

    def test_data_dir_with_one_wal_log_restores(self, tmp_path):
        """Data dirs written before WALs were named by their base hold
        one ``wal.log`` beside each shard's single base; they restore,
        answer unchanged and checkpoint on into the current layout."""
        cluster = _cluster(_reference(), 2, data_dir=str(tmp_path),
                           compact_min=8)
        self._mutate(cluster, random.Random(23), rounds=12)
        manifest = cluster.checkpoint()
        queries = _queries(random.Random(24))
        before = _bits(cluster.match_records(queries, threshold=0.2))
        ids = cluster.ids()
        cluster.close()
        for shard, entry in enumerate(manifest["shards"]):
            shard_dir = tmp_path / f"shard-{shard:02d}"
            # repro: allow-durability -- stages a closed test data dir in the older layout
            os.replace(shard_dir / f"wal-{entry['base']}.log",
                       shard_dir / "wal.log")
        restored = ClusterIndex.restore(str(tmp_path))
        try:
            assert restored.ids() == ids
            assert _bits(restored.match_records(queries, threshold=0.2)) \
                == before
            restored.add(ObjectInstance("late", {"title": "view cube"}))
            restored.checkpoint()
            after = _bits(restored.match_records(queries, threshold=0.2))
        finally:
            restored.close()
        again = ClusterIndex.restore(str(tmp_path))
        try:
            assert "late" in again
            assert _bits(again.match_records(queries, threshold=0.2)) \
                == after
        finally:
            again.close()

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


class TestInterruptedCheckpoint:
    """A checkpoint that fails before its manifest lands must leave the
    last acknowledged snapshot restorable, bit for bit."""

    QUERIES = _queries(random.Random(41), count=8)

    def _image(self, cluster):
        ranked = []
        for shard in cluster._shards:
            for query in self.QUERIES:
                weights = cluster._weight_map(query.get("title"))
                ranked.append([
                    (slot, struct.pack("<d", weight)) for slot, weight
                    in shard.index.ranked_candidates(
                        query.get("title"), 10, weights=weights)])
        return {"ids": cluster.ids(),
                "answers": _bits(cluster.match_records(self.QUERIES,
                                                       threshold=0.2)),
                "ranked": ranked}

    @pytest.mark.parametrize("fault", ["manifest", "shard-0", "shard-1"])
    def test_restore_yields_the_last_acknowledged_snapshot(
            self, tmp_path, monkeypatch, fault):
        rng = random.Random(5)
        cluster = _cluster(_reference(), 2, data_dir=str(tmp_path),
                           compact_min=4)
        cluster.checkpoint()
        acknowledged = self._image(cluster)
        compactions = [shard.index.compactions for shard in cluster._shards]
        for i in range(17):
            cluster.add(ObjectInstance(f"a{i}", {"title": _title(rng)}))
        for id in rng.sample(cluster.ids(), 10):
            cluster.delete(id)
        # every shard compacted, so every checkpoint writes a new base
        assert all(shard.index.compactions > before for shard, before
                   in zip(cluster._shards, compactions))

        def crash(*args, **kwargs):
            raise OSError("injected crash")

        if fault == "manifest":
            monkeypatch.setattr(partition_layout, "write_manifest", crash)
        else:
            shard = cluster._shards[int(fault[-1])]

            def checkpoint_then_crash():
                shard_checkpoint()
                crash()

            shard_checkpoint = shard.checkpoint
            monkeypatch.setattr(shard, "checkpoint", checkpoint_then_crash)
        with pytest.raises(OSError, match="injected crash"):
            cluster.checkpoint()
        cluster.close()
        monkeypatch.undo()

        restored = ClusterIndex.restore(str(tmp_path))
        try:
            assert self._image(restored) == acknowledged
            restored.checkpoint()
        finally:
            restored.close()
        # the next manifest prunes every base and WAL it does not name
        for shard in range(2):
            names = sorted(path.name for path
                           in (tmp_path / f"shard-{shard:02d}").iterdir())
            assert len(names) == 2
            base = [name for name in names if name.startswith("base-")][0]
            assert names == [base, f"wal-{base[5:]}.log"]
