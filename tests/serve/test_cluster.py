"""The durable serving index: one partition behind a data dir.

The contract under test is *bit-identity*: :class:`ClusterIndex` must
return exactly the results of a single in-heap
:class:`~repro.serve.index.IncrementalIndex` over the same live
records in the same insertion order — same ids, same float scores,
same order — fresh, across arbitrary mutation interleavings, and
after checkpoint → restore, TF/IDF included.  Also here: data dirs
written when the index could be split across shards, interrupted
checkpoints and torn WALs.
"""

import json
import os
import random
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import ClusterIndex, IncrementalIndex, SnapshotUnavailable
from repro.serve import partition as partition_layout
from repro.sim.ngram import TrigramSimilarity
from repro.sim.registry import get_similarity
from repro.sim.tfidf import TfIdfCosineSimilarity

WORDS = ["adaptive", "stream", "schema", "query", "index", "cache",
         "graph", "join", "view", "cube", "match", "entity", "fusion",
         "warehouse", "cleaning", "lineage"]

#: data dirs written by the ClusterIndex of commit a4d1e80, one with one
#: shard and one with two, plus that commit's answers on them
FIXTURES = Path(__file__).parent / "fixtures"


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


def _tfidf():
    return [AttributeSpec("title", "title", TfIdfCosineSimilarity())]


def _single(reference, specs=SPECS, **kwargs):
    return IncrementalIndex(reference, specs=specs, **kwargs)


def _cluster(reference, shards=1, specs=SPECS, **kwargs):
    return ClusterIndex.build(reference, specs=specs, shards=shards,
                              **kwargs)


def _bits(answers):
    """Answers with every score as its float's bytes."""
    return [[(id, struct.pack("<d", score)) for id, score in answer]
            for answer in answers]


def _add_parent_keys(shard_dir) -> None:
    """Rewrite a partition's latest base in the layout that stored each
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
    assert _bits(actual) == _bits(expected)  # ids, float bits, order


def _partition_files(data_dir):
    """``data_dir``'s entries, and those of its one partition dir."""
    return (sorted(path.name for path in Path(data_dir).iterdir()),
            sorted(path.name for path in (Path(data_dir) / "shard-00")
                   .iterdir()))


class TestFrozenReferenceEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3])
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

    @pytest.mark.parametrize("shards", [1, 2, 3])
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

    @pytest.mark.parametrize("mode", ["build", "restore"])
    def test_tfidf_matches_single_index(self, tmp_path, mode):
        """TF/IDF over a data dir scores with the whole reference's
        document frequencies: bit for bit the single index's."""
        cluster = _cluster(_reference(), 2, specs=_tfidf(),
                           data_dir=str(tmp_path))
        if mode == "restore":
            cluster.close()
            cluster = ClusterIndex.restore(str(tmp_path))
        single = _single(_reference(), specs=_tfidf())
        queries = _queries(random.Random(17), count=12)
        try:
            for max_candidates in (50, None):
                _assert_matches_equal(single, cluster, queries,
                                      threshold=0.1,
                                      max_candidates=max_candidates)
            assert any(single.match_records(queries, threshold=0.1))
        finally:
            cluster.close()


class TestMutationInterleavings:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_random_interleaving_stays_bit_identical(self, tmp_path,
                                                     shards):
        """~200 random add/update/delete steps; every few steps the
        durable index must answer exactly like the single index (small
        ``compact_min`` keeps compactions firing), and so must its
        restore from the checkpoint taken at the end."""
        rng = random.Random(2024)
        single = _single(_reference(), compact_min=8)
        cluster = _cluster(_reference(), shards, compact_min=8,
                           data_dir=str(tmp_path))
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
            assert cluster.stats() == single.stats()
            assert cluster.compactions > 0
            cluster.checkpoint()
        finally:
            cluster.close()
        restored = ClusterIndex.restore(str(tmp_path))
        try:
            assert restored.ids() == single.ids()
            queries = _queries(rng, 6)
            _assert_matches_equal(single, restored, queries)
            _assert_matches_equal(single, restored, queries,
                                  max_candidates=None)
        finally:
            restored.close()

    def test_mutation_errors_match_single_index(self):
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

    def test_rejected_mutations_are_not_logged(self, tmp_path):
        cluster = _cluster(_reference(8), data_dir=str(tmp_path))
        try:
            with pytest.raises(ValueError):
                cluster.add(ObjectInstance("p1", {"title": "dup"}))
            with pytest.raises(KeyError):
                cluster.update(ObjectInstance("ghost", {"title": "x"}))
            cluster.delete("ghost")
            manifest = cluster.checkpoint()
        finally:
            cluster.close()
        assert manifest["shards"][0]["wal_entries"] == 0


class TestTopologyKeywords:
    """``shards=`` and ``processes=`` are validated and select
    nothing."""

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

    def test_shards_keyword_must_be_positive(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            _cluster(_reference(8), 0)

    def test_processes_keyword_selects_nothing(self, tmp_path):
        """``processes=True`` and ``processes=False`` build and restore
        the same index, answering bit for bit alike."""
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

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_every_data_dir_is_one_partition(self, tmp_path, shards):
        cluster = _cluster(_reference(12), shards, data_dir=str(tmp_path))
        manifest = cluster.checkpoint()
        cluster.close()
        assert manifest == {"shards": [{"base": 0, "wal_entries": 0}],
                            "source": "DBLP.Publication"}
        assert _partition_files(tmp_path) == (
            ["manifest.json", "shard-00", "specs.pkl"],
            ["base-0", "wal-0.log"])
        records = (tmp_path / "shard-00" / "base-0" / "records.jsonl")
        assert all(set(json.loads(line)) == {"id", "attributes"}
                   for line in records.read_text().splitlines())


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
        assert [entry["base"] for entry in manifest["shards"]] \
            == [cluster.base_id]
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
        the restart replays the exact state trajectory (same slots,
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
        cluster = _cluster(_reference(), 2, specs=_tfidf(),
                           data_dir=str(tmp_path))
        queries = _queries(random.Random(9))
        before = cluster.match_records(queries, threshold=0.1)
        cluster.checkpoint()
        cluster.close()
        if layout == "with-keys":
            _add_parent_keys(tmp_path / "shard-00")
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
        base = max((tmp_path / "shard-00").glob("base-*"),
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
        one ``wal.log`` beside the partition's single base; they
        restore, answer unchanged and checkpoint on into the current
        layout."""
        cluster = _cluster(_reference(), 2, data_dir=str(tmp_path),
                           compact_min=8)
        self._mutate(cluster, random.Random(23), rounds=12)
        manifest = cluster.checkpoint()
        queries = _queries(random.Random(24))
        before = _bits(cluster.match_records(queries, threshold=0.2))
        ids = cluster.ids()
        cluster.close()
        (entry,) = manifest["shards"]
        shard_dir = tmp_path / "shard-00"
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

    @pytest.mark.parametrize("specs", [SPECS, _tfidf()],
                             ids=["trigram", "tfidf"])
    def test_emptied_base_restores_and_accepts_an_add(self, tmp_path,
                                                      specs):
        """Every record deleted, compacted and checkpointed: the base's
        column arrays are empty files, which restore as empty arrays;
        the restored index then takes an add and answers like a single
        index over that one record."""
        cluster = _cluster(_reference(6), specs=specs,
                           data_dir=str(tmp_path))
        for id in cluster.ids():
            cluster.delete(id)
        cluster.compact()
        cluster.checkpoint()
        cluster.close()
        restored = ClusterIndex.restore(str(tmp_path))
        added = ObjectInstance("n0", {"title": "adaptive stream schema"})
        try:
            assert len(restored) == 0
            restored.add(added)
            single = _single(LogicalSource(PhysicalSource("DBLP"),
                                           ObjectType("Publication")),
                             specs=specs)
            single.add(added)
            queries = [ObjectInstance("q", {"title": "adaptive stream"})]
            _assert_matches_equal(single, restored, queries, threshold=0.1)
            assert any(single.match_records(queries, threshold=0.1))
        finally:
            restored.close()

    def test_tfidf_column_without_entries_restores_bitwise(self, tmp_path):
        """A base whose TF/IDF column holds no entry (every title is
        ``None``) restores, and answers bit for bit as before."""
        source = LogicalSource(PhysicalSource("DBLP"),
                               ObjectType("Publication"))
        for i in range(4):
            source.add_record(f"p{i}", title=None)
        cluster = _cluster(source, specs=_tfidf(), missing="zero",
                           data_dir=str(tmp_path))
        queries = [ObjectInstance("q", {"title": "schema"})]
        before = cluster.match_records(queries, threshold=0.0,
                                       max_candidates=None)
        cluster.close()
        restored = ClusterIndex.restore(str(tmp_path))
        try:
            assert _bits(restored.match_records(
                queries, threshold=0.0, max_candidates=None)) \
                == _bits(before)
        finally:
            restored.close()
        assert len(before[0]) == 4

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


class TestDataDirsOfEarlierShardCounts:
    """Data dirs written when the index could be split across shards
    (``FIXTURES``): a one-shard dir restores as it is; a two-shard dir
    is merged into one partition on restore.  Both answer exactly what
    the writing commit answered on them."""

    @staticmethod
    def _copy(tmp_path, name):
        data_dir = tmp_path / name
        shutil.copytree(FIXTURES / name, data_dir)
        expected = json.loads((FIXTURES / f"{name}.json").read_text())
        return str(data_dir), expected

    @staticmethod
    def _assert_answers(index, expected):
        records = [ObjectInstance(query["id"], {"title": query["title"]})
                   for query in expected["queries"]]
        assert index.ids() == expected["ids"]
        for k, answers in expected["answers"].items():
            got = index.match_records(
                records, threshold=0.2,
                max_candidates=None if k == "None" else int(k))
            assert [[[id, score.hex()] for id, score in answer]
                    for answer in got] == answers
        assert any(expected["answers"]["50"])

    @pytest.mark.parametrize("name", ["1-shard", "2-shard"])
    def test_restores_with_the_writers_answers(self, tmp_path, name):
        data_dir, expected = self._copy(tmp_path, name)
        restored = ClusterIndex.restore(data_dir)
        try:
            self._assert_answers(restored, expected)
            restored.checkpoint()
        finally:
            restored.close()
        manifest = partition_layout.read_manifest(data_dir)
        base = manifest["shards"][0]["base"]
        assert len(manifest["shards"]) == 1
        assert _partition_files(data_dir) == (
            ["manifest.json", "shard-00", "specs.pkl"],
            [f"base-{base}", f"wal-{base}.log"])
        again = ClusterIndex.restore(data_dir)
        try:
            self._assert_answers(again, expected)
        finally:
            again.close()

    def test_one_shard_dir_restores_memmapped(self, tmp_path):
        data_dir, _ = self._copy(tmp_path, "1-shard")
        restored = ClusterIndex.restore(data_dir)
        try:
            arrays = restored.export_columns()[0][1]
            assert all(isinstance(array, np.memmap)
                       for array in arrays.values())
        finally:
            restored.close()

    def test_merge_interrupted_before_its_manifest(self, tmp_path,
                                                   monkeypatch):
        """A crash before the merged manifest lands leaves the two-shard
        dir restorable; the next restore merges it."""
        data_dir, expected = self._copy(tmp_path, "2-shard")

        def crash(*args, **kwargs):
            raise OSError("injected crash")

        monkeypatch.setattr(partition_layout, "write_manifest", crash)
        with pytest.raises(OSError, match="injected crash"):
            ClusterIndex.restore(data_dir)
        monkeypatch.undo()
        assert len(partition_layout.read_manifest(data_dir)["shards"]) == 2
        restored = ClusterIndex.restore(data_dir)
        try:
            self._assert_answers(restored, expected)
        finally:
            restored.close()
        assert _partition_files(data_dir)[0] == [
            "manifest.json", "shard-00", "specs.pkl"]


class TestInterruptedCheckpoint:
    """A checkpoint that fails before its manifest lands must leave the
    last acknowledged snapshot restorable, bit for bit."""

    QUERIES = _queries(random.Random(41), count=8)

    def _image(self, index):
        ranked = [[(slot, struct.pack("<d", weight)) for slot, weight
                   in index.ranked_candidates(query.get("title"), 10)]
                  for query in self.QUERIES]
        return {"ids": index.ids(),
                "answers": _bits(index.match_records(self.QUERIES,
                                                     threshold=0.2)),
                "ranked": ranked}

    @pytest.mark.parametrize("fault", ["manifest", "partition"])
    def test_restore_yields_the_last_acknowledged_snapshot(
            self, tmp_path, monkeypatch, fault):
        rng = random.Random(5)
        cluster = _cluster(_reference(), 2, data_dir=str(tmp_path),
                           compact_min=4)
        cluster.checkpoint()
        acknowledged = self._image(cluster)
        compactions = cluster.compactions
        for i in range(17):
            cluster.add(ObjectInstance(f"a{i}", {"title": _title(rng)}))
        for id in rng.sample(cluster.ids(), 10):
            cluster.delete(id)
        # the index compacted, so the checkpoint writes a new base
        assert cluster.compactions > compactions

        def crash(*args, **kwargs):
            raise OSError("injected crash")

        if fault == "manifest":
            monkeypatch.setattr(partition_layout, "write_manifest", crash)
        else:
            write_base = cluster.write_base

            def write_base_then_crash():
                write_base()
                crash()

            monkeypatch.setattr(cluster, "write_base", write_base_then_crash)
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
        names = _partition_files(tmp_path)[1]
        assert len(names) == 2
        base = [name for name in names if name.startswith("base-")][0]
        assert names == [base, f"wal-{base[5:]}.log"]


class TestTornWal:
    """The WAL of one partition under truncation and bit flips: frames
    past the manifest's count are not part of the image, whatever is
    left of them; a damaged acknowledged frame fails the restore."""

    ACKNOWLEDGED = 4

    @pytest.fixture
    def image(self, tmp_path):
        """``(data dir, WAL path, WAL bytes, frame ends, image)``: a
        checkpoint covering four WAL frames, then three more mutations
        appended and synced past it."""
        rng = random.Random(61)
        cluster = _cluster(_reference(12), data_dir=str(tmp_path),
                           compact_min=1000)
        for i in range(self.ACKNOWLEDGED - 1):
            cluster.add(ObjectInstance(f"a{i}", {"title": _title(rng)}))
        cluster.update(ObjectInstance("p2", {"title": _title(rng)}))
        manifest = cluster.checkpoint()
        assert manifest["shards"][0]["wal_entries"] == self.ACKNOWLEDGED
        image = (cluster.ids(), _bits(cluster.match_records(
            _queries(random.Random(62)), threshold=0.2)))
        cluster.add(ObjectInstance("late", {"title": _title(rng)}))
        cluster.update(ObjectInstance("a0", {"title": _title(rng)}))
        cluster.delete("p3")
        cluster.wal.sync()
        path = Path(cluster.wal.path)
        cluster.close()
        data = path.read_bytes()
        ends, offset = [], 0
        while offset < len(data):
            length, _ = struct.unpack(">II", data[offset:offset + 8])
            offset += 8 + length
            ends.append(offset)
        assert len(ends) == self.ACKNOWLEDGED + 3
        return str(tmp_path), path, data, ends, image

    def _restore(self, data_dir):
        restored = ClusterIndex.restore(data_dir)
        try:
            return (restored.ids(), _bits(restored.match_records(
                _queries(random.Random(62)), threshold=0.2)))
        finally:
            restored.close()

    def test_truncation_past_the_acknowledged_frames(self, image):
        data_dir, path, data, ends, expected = image
        for offset in range(ends[self.ACKNOWLEDGED - 1], len(data) + 1):
            path.write_bytes(data[:offset])
            assert self._restore(data_dir) == expected, offset
            assert path.stat().st_size == ends[self.ACKNOWLEDGED - 1]

    def test_truncation_inside_an_acknowledged_frame(self, image):
        data_dir, path, data, ends, _ = image
        for offset in range(ends[self.ACKNOWLEDGED - 1]):
            intact = sum(end <= offset for end in ends)
            path.write_bytes(data[:offset])
            with pytest.raises(ValueError, match=(
                    f"holds {intact} intact frames, manifest expects "
                    f"{self.ACKNOWLEDGED}")):
                ClusterIndex.restore(data_dir)

    def test_crc_flip_in_an_acknowledged_frame(self, image):
        data_dir, path, data, ends, _ = image
        for frame in range(self.ACKNOWLEDGED):
            start = ends[frame - 1] if frame else 0
            damaged = bytearray(data)
            damaged[start + 4] ^= 0xFF  # first byte of the frame's CRC
            path.write_bytes(bytes(damaged))
            with pytest.raises(ValueError, match=(
                    f"holds {frame} intact frames, manifest expects "
                    f"{self.ACKNOWLEDGED}")):
                ClusterIndex.restore(data_dir)
