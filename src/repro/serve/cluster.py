"""The durable serving index: one partition behind a data dir.

:class:`ClusterIndex` is an :class:`~repro.serve.index.IncrementalIndex`
that persists itself.  With a data dir it keeps:

* a packed **base** — the index's base records and exported columns,
  memmapped back on restore
  (:class:`~repro.serve.partition.PartitionStore`);
* a mutation **WAL** per base (:class:`~repro.serve.wal.WriteAheadLog`)
  holding every mutation applied on top of that base;
* a **manifest** naming the base and how many WAL frames the last
  checkpoint covers — :meth:`ClusterIndex.checkpoint` is a base write
  (only after a compaction) or a WAL fsync, then the manifest write.

Answers are the single index's by construction: there is one index.
That includes corpus-aware similarities (TF/IDF), whose document
frequencies are the whole reference's.

The name and the ``shards=`` / ``processes=`` keywords of :meth:`build`
and :meth:`restore` remain for the benchmark harness
(benchmarks/moma_bench/layers.py), which still passes them; they are
validated and select nothing.  Data dirs written while the index was
split across N > 1 shards are merged into one partition on restore
(:meth:`ClusterIndex.restore`).
"""

from __future__ import annotations

import os
import shutil
from typing import Callable, Dict, List, Optional

from repro.concurrency import requires_lock
from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource
from repro.serve import partition as partition_layout
from repro.serve.errors import SnapshotUnavailable
from repro.serve.index import IncrementalIndex
from repro.serve.wal import WriteAheadLog

#: the specs payload keys a restore reads (older payloads carry more)
_SPEC_KEYS = ("specs", "combiner", "missing", "compact_ratio",
              "compact_min")


class ClusterIndex(IncrementalIndex):
    """An :class:`IncrementalIndex` that logs each mutation to a WAL
    and checkpoints to a data dir.

    Construct via :meth:`build` or :meth:`restore`.  Without a data dir
    it is a plain index whose :meth:`checkpoint` raises
    :class:`~repro.serve.errors.SnapshotUnavailable`.

    Besides the index it keeps ``_entries``, the mutations applied since
    the last compaction — exactly the WAL a fresh base write must carry
    over — and ``base_id``, the on-disk base the WAL extends.
    """

    def __init__(self, reference: LogicalSource, *,
                 data_dir: Optional[str] = None, **index_options) -> None:
        super().__init__(reference, **index_options)
        self.data_dir = data_dir
        self.store = (None if data_dir is None else
                      partition_layout.PartitionStore(
                          partition_layout.shard_dir(data_dir, 0)))
        self.wal: Optional[WriteAheadLog] = None
        self.base_id: Optional[int] = None
        self._entries: List[dict] = []
        self._base_counters = {"version": self.version,
                               "compactions": self.compactions}
        self._wal_total = 0
        self._compacted = False
        self.on_compact(self._on_compact)

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, reference: LogicalSource, *,
              specs: List[AttributeSpec], combiner=None,
              missing: str = "skip", compact_ratio: float = 0.25,
              compact_min: int = 64, shards: int = 1,
              processes: bool = True,
              data_dir: Optional[str] = None) -> "ClusterIndex":
        """Index ``reference``; with ``data_dir``, write its first base
        and manifest there.

        ``shards`` and ``processes`` select nothing (see the module
        docstring).
        """
        _check_processes(processes)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        options = dict(specs=list(specs), combiner=combiner,
                       missing=missing, compact_ratio=compact_ratio,
                       compact_min=compact_min)
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            partition_layout.write_specs(data_dir, dict(
                options, physical=reference.physical,
                object_type=reference.object_type))
        index = cls(reference, data_dir=data_dir, **options)
        if data_dir is not None:
            index.write_base()
            index.checkpoint()
        return index

    @classmethod
    def restore(cls, data_dir: str, *,
                processes: bool = True) -> "ClusterIndex":
        """Restart warm from ``data_dir``'s manifest.

        Memmaps the base the manifest names and replays exactly the
        manifest's count of that base's WAL frames through the normal
        mutation methods, truncating anything after; re-applying
        mutations from the same base state re-triggers compactions at
        the same points, so the restored index walks the identical
        state trajectory.  A WAL with fewer intact frames than the
        manifest counts raises ``ValueError``.

        A data dir written with N > 1 shards is merged into one
        partition first (:func:`_merge_shards`).  ``processes`` selects
        nothing (see the module docstring).
        """
        _check_processes(processes)
        manifest = partition_layout.read_manifest(data_dir)
        if manifest is None:
            raise FileNotFoundError(f"no cluster manifest in {data_dir}")
        payload = partition_layout.read_specs(data_dir)
        if len(manifest["shards"]) > 1:
            return _merge_shards(data_dir, manifest, payload)
        (entry,) = manifest["shards"]
        store = partition_layout.PartitionStore(
            partition_layout.shard_dir(data_dir, 0))
        records, column_states, counters = store.load_base(entry["base"])
        index = cls(_source(payload, records), data_dir=data_dir,
                    _column_states=column_states,
                    **{key: payload[key] for key in _SPEC_KEYS})
        index.version = counters["version"]
        index.compactions = counters["compactions"]
        index._base_counters = counters
        index.base_id = entry["base"]
        wal = WriteAheadLog(store.adopt_wal(entry["base"]))
        # the WAL is attached after the replay: its frames are on disk
        for frame in _acknowledged(wal, entry["wal_entries"]):
            index._replay(frame)
        index.wal = wal
        index._wal_total = entry["wal_entries"]
        return index

    # -- mutation ------------------------------------------------------

    def _on_compact(self) -> None:
        # the new base absorbs everything applied so far, including the
        # mutation whose _maybe_compact triggered this
        self._compacted = True
        self._entries = []

    def _logged(self, entry: dict, operation: Callable, *args):
        """Run a mutation, then record it: in ``_entries`` unless a
        compaction folded it into the base, and in the WAL (which
        holds every mutation since the on-disk base)."""
        self._compacted = False
        result = operation(*args)
        if not self._compacted:
            self._entries.append(entry)
        if self.wal is not None:
            self.wal.append(entry)
            self._wal_total += 1
        return result

    @requires_lock("_lock")
    def add(self, instance: ObjectInstance) -> None:
        """Add a reference record (ValueError on a live duplicate id)."""
        self._logged({"op": "add", "id": instance.id,
                      "attributes": dict(instance.attributes)},
                     super().add, instance)

    @requires_lock("_lock")
    def update(self, instance: ObjectInstance) -> None:
        """Replace a live record (KeyError when the id is not live)."""
        self._logged({"op": "update", "id": instance.id,
                      "attributes": dict(instance.attributes)},
                     super().update, instance)

    @requires_lock("_lock")
    def delete(self, id: str) -> bool:
        """Remove a live record; returns whether it existed."""
        if id not in self:
            return False
        return self._logged({"op": "delete", "id": id},
                            super().delete, id)

    @requires_lock("_lock")
    def _replay(self, frame: dict) -> None:
        op = frame["op"]
        if op == "delete":
            self.delete(frame["id"])
        elif op in ("add", "update"):
            getattr(self, op)(ObjectInstance(frame["id"],
                                             frame["attributes"]))
        else:  # pragma: no cover - forward-compat guard
            raise ValueError(f"unknown WAL op {op!r}")

    # -- persistence ---------------------------------------------------

    def write_base(self) -> None:
        """Write the index's base (the state of its last compaction) as
        a fresh packed base, and start that base's WAL with the
        mutations applied since, so base + WAL reconstruct the live
        state.  The previous base and its WAL stay on disk until a
        manifest naming the new base lands (:meth:`checkpoint` prunes
        them)."""
        counters = {"version": self.version - len(self._entries),
                    "compactions": self.compactions}
        self.base_id = self.store.write_base(
            self.base_instances(), self.export_columns(), counters)
        path = self.store.wal_path(self.base_id)
        if self.wal is None:
            self.wal = WriteAheadLog(path)
        self.wal.reset(path)
        for entry in self._entries:
            self.wal.append(entry)
        self.wal.sync()
        self._wal_total = len(self._entries)
        self._base_counters = counters

    def checkpoint(self) -> dict:
        """Persist a point-in-time image: base or WAL, then manifest.

        Writes a fresh base only when a compaction changed the packed
        columns since the last base write; otherwise an fsync of the
        WAL suffices.  The manifest write is the commit point: the
        previous base and WAL are deleted only after a manifest that no
        longer names them has replaced the old one, so a failure
        anywhere before that leaves the last acknowledged snapshot
        restorable.
        """
        if self.store is None:
            raise SnapshotUnavailable(
                "index has no data dir; configure data_dir to snapshot")
        if self.compactions != self._base_counters["compactions"]:
            self.write_base()
        else:
            self.wal.sync()
        manifest = {"shards": [{"base": self.base_id,
                                "wal_entries": self._wal_total}],
                    "source": self.name}
        partition_layout.write_manifest(self.data_dir, manifest)
        self.store.prune(self.base_id)
        return manifest

    def close(self) -> None:
        """Sync and close the WAL."""
        if self.wal is not None:
            self.wal.sync()
            self.wal.close()


def _check_processes(processes: object) -> None:
    if not isinstance(processes, bool):
        raise ValueError(f"processes must be a bool, got {processes!r}")


def _source(payload: dict, records: List[dict]) -> LogicalSource:
    source = LogicalSource(payload["physical"], payload["object_type"])
    for record in records:
        source.add(ObjectInstance(record["id"], record["attributes"]))
    return source


def _acknowledged(wal: WriteAheadLog, count: int) -> List[dict]:
    """The WAL's first ``count`` frames; later ones are cut off."""
    frames = wal.replay(count)
    if len(frames) < count:
        raise ValueError(
            f"WAL {wal.path} holds {len(frames)} intact frames, "
            f"manifest expects {count}")
    wal.truncate_to(count)
    return frames


def _merge_shards(data_dir: str, manifest: dict,
                  payload: dict) -> ClusterIndex:
    """Fold a data dir written with N > 1 shards into one partition.

    Each shard's base records plus its acknowledged WAL frames give
    that shard's live records, and a live id lives in exactly one shard
    (a deleted id may come back in another), so their union is the live
    set.  Every such record and frame carries ``gseq``, the global
    insertion order the shards shared, so the live set sorted by it is
    the insertion order one index over the same mutations has.  One
    index built from it is written as a fresh base in ``shard-00/`` and
    committed by a one-shard manifest; only then are the other shard
    dirs removed.  A crash before the manifest leaves the old dir as it
    was.
    """
    live: Dict[str, dict] = {}
    for shard, entry in enumerate(manifest["shards"]):
        store = partition_layout.PartitionStore(
            partition_layout.shard_dir(data_dir, shard))
        records, _, _ = store.load_base(entry["base"])
        owned = {record["id"]: record for record in records}
        wal = WriteAheadLog(store.adopt_wal(entry["base"]))
        for frame in _acknowledged(wal, entry["wal_entries"]):
            if frame["op"] == "delete":
                del owned[frame["id"]]
            else:
                owned[frame["id"]] = frame
        live.update(owned)
    ordered = [live[id] for _, id in sorted(
        (record["gseq"], id) for id, record in live.items())]
    index = ClusterIndex.build(
        _source(payload, ordered), data_dir=data_dir,
        **{key: payload[key] for key in _SPEC_KEYS})
    for shard in range(1, len(manifest["shards"])):
        shutil.rmtree(partition_layout.shard_dir(data_dir, shard))
    return index
