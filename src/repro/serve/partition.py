"""On-disk shard partitions for the clustered serving tier.

The cluster splits the reference across shards two ways, both reusing
:func:`repro.blocking.pair_generator.partition_spans` semantics:

* the **initial bulk load** carves the reference's slot space into
  contiguous cost-balanced tiles — exactly how the pair generator
  shards an index block across engine workers;
* **subsequent ingests** route by a stable FNV-1a hash of the record
  id (:func:`shard_for_id`), which keeps placement deterministic
  across processes and restarts (Python's own ``hash`` is salted per
  process and would scatter records differently every run).

Each shard owns one directory under the cluster data dir::

    data_dir/
      manifest.json        router state: seq counter, shard bases
      specs.pkl            pickled AttributeSpecs + combiner + knobs
      shard-00/
        base-3/            packed base, versioned by write count
          meta.json        counters, record/column metadata
          records.jsonl    base records in slot order, with gseq
          col0.range_bits.bin   raw arrays, memmapped on restore
          ...
        wal-3.log          mutations on top of base-3 (serve.wal frames)

A base write goes to a temp directory first and is renamed into
place, so a crash mid-write leaves the previous base intact; the
manifest is replaced atomically last and is the single source of
truth for which base + how many WAL frames constitute the snapshot.
A base and its WAL are pruned only after a manifest that no longer
names them has landed, so a crash anywhere in a checkpoint leaves the
previous snapshot restorable.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.blocking.pair_generator import partition_spans
from repro.model.entity import ObjectInstance

MANIFEST_FILE = "manifest.json"
SPECS_FILE = "specs.pkl"

# FNV-1a, 64-bit
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = (1 << 64) - 1


def shard_for_id(id: str, n_shards: int) -> int:
    """Owning shard of a record id — stable FNV-1a hash placement."""
    value = _FNV_OFFSET
    for byte in id.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    return value % n_shards


def initial_partition(n_records: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous slot tiles for the initial bulk load.

    Uses the pair generator's :func:`partition_spans` with unit costs,
    so the reference splits exactly like an index block splits across
    engine shard workers: ``n_shards`` contiguous, balanced spans.
    """
    return partition_spans([1] * n_records, n_shards)


def shard_dir(data_dir: str, shard: int) -> str:
    return os.path.join(data_dir, f"shard-{shard:02d}")


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))


class PartitionStore:
    """Versioned packed-base storage for one shard directory."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(path, exist_ok=True)

    # -- base writing --------------------------------------------------

    def _base_versions(self) -> List[int]:
        versions = []
        for entry in sorted(os.listdir(self.path)):
            if entry.startswith("base-"):
                try:
                    versions.append(int(entry[5:]))
                except ValueError:
                    continue
        return sorted(versions)

    def base_path(self, base_id: int) -> str:
        return os.path.join(self.path, f"base-{base_id}")

    def wal_path(self, base_id: int) -> str:
        """The WAL of the mutations applied on top of base ``base_id``."""
        return os.path.join(self.path, f"wal-{base_id}.log")

    def write_base(self,
                   records: Sequence[Tuple[ObjectInstance, int]],
                   column_states: Sequence[Tuple[dict, Dict[str, object]]],
                   counters: dict) -> int:
        """Write a new packed base; returns its base id.

        ``records`` are ``(instance, gseq)`` pairs in slot order;
        ``column_states`` come from
        :meth:`~repro.serve.index.IncrementalIndex.export_columns`;
        ``counters`` carries the index/shard counters the restore path
        resumes from (``version``, ``compactions``, ``seq`` floor).
        The write is atomic: temp directory, fsync, rename.  Older
        bases stay until :meth:`prune`.
        """
        versions = self._base_versions()
        base_id = (versions[-1] + 1) if versions else 0
        tmp = os.path.join(self.path, f".base-{base_id}.tmp")
        if os.path.exists(tmp):  # pragma: no cover - stale crash debris
            shutil.rmtree(tmp)
        os.makedirs(tmp)

        with open(os.path.join(tmp, "records.jsonl"), "w",
                  encoding="utf-8") as handle:
            for instance, gseq in records:
                handle.write(json.dumps(
                    {"id": instance.id, "gseq": gseq,
                     "attributes": dict(instance.attributes)},
                    separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

        columns_meta = []
        for position, (meta, arrays) in enumerate(column_states):
            array_specs = []
            for name, array in arrays.items():
                filename = f"col{position}.{name}.bin"
                array = _np.ascontiguousarray(array)
                with open(os.path.join(tmp, filename), "wb") as handle:
                    array.tofile(handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                array_specs.append({"name": name, "file": filename,
                                    "dtype": str(array.dtype),
                                    "shape": list(array.shape)})
            columns_meta.append({"meta": meta, "arrays": array_specs})

        _atomic_write_json(os.path.join(tmp, "meta.json"),
                           {"counters": counters,
                            "records": len(records),
                            "columns": columns_meta})
        _fsync_dir(tmp)
        final = self.base_path(base_id)
        os.replace(tmp, final)
        _fsync_dir(self.path)
        return base_id

    def prune(self, keep: int) -> None:
        """Delete every base and WAL but base ``keep``'s (call only
        once a manifest naming ``keep`` is durable)."""
        for version in self._base_versions():
            if version != keep:
                shutil.rmtree(self.base_path(version), ignore_errors=True)
        for entry in sorted(os.listdir(self.path)):
            if entry.startswith("wal") and entry.endswith(".log") \
                    and entry != f"wal-{keep}.log":
                os.remove(os.path.join(self.path, entry))

    # -- base loading --------------------------------------------------

    def adopt_wal(self, base_id: int) -> str:
        """Path of base ``base_id``'s WAL for a restore.

        A shard dir written before WALs were named by their base holds
        a single ``wal.log`` on top of its one base; it is renamed to
        that base's WAL.
        """
        path = self.wal_path(base_id)
        legacy = os.path.join(self.path, "wal.log")
        if not os.path.exists(path) and os.path.exists(legacy):
            os.replace(legacy, path)  # repro: allow-durability -- the legacy WAL was fsynced as it was written; the directory fsync below makes the rename durable
            _fsync_dir(self.path)
        return path

    def load_base(self, base_id: int):
        """Load a packed base written by :meth:`write_base`.

        Returns ``(records, column_states, counters)`` where
        ``records`` is ``[(ObjectInstance, gseq), ...]`` in slot order
        and the column-state arrays are read-only ``np.memmap`` views
        of the base files — restoring costs page-table setup, not a
        repack.
        """
        base = self.base_path(base_id)
        with open(os.path.join(base, "meta.json"), encoding="utf-8") as handle:
            meta = json.load(handle)
        records: List[Tuple[ObjectInstance, int]] = []
        with open(os.path.join(base, "records.jsonl"),
                  encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                records.append((ObjectInstance(entry["id"],
                                               entry["attributes"]),
                                entry["gseq"]))
        column_states = []
        for column in meta["columns"]:
            arrays: Dict[str, object] = {}
            for spec in column["arrays"]:
                arrays[spec["name"]] = _np.memmap(
                    os.path.join(base, spec["file"]),
                    dtype=_np.dtype(spec["dtype"]), mode="r",
                    shape=tuple(spec["shape"]))
            column_states.append((column["meta"], arrays))
        return records, column_states, meta["counters"]


# -- cluster-level manifest / specs ------------------------------------

def write_manifest(data_dir: str, manifest: dict) -> None:
    """Atomically replace the cluster manifest (fsync'd)."""
    _atomic_write_json(os.path.join(data_dir, MANIFEST_FILE), manifest)


def read_manifest(data_dir: str) -> Optional[dict]:
    path = os.path.join(data_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_specs(data_dir: str, payload: dict) -> None:
    """Pickle the matching configuration (specs, combiner, knobs)."""
    path = os.path.join(data_dir, SPECS_FILE)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(data_dir)


def read_specs(data_dir: str) -> dict:
    with open(os.path.join(data_dir, SPECS_FILE), "rb") as handle:
        return pickle.load(handle)
