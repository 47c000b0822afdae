"""The on-disk partition behind a serving data dir.

One directory holds the durable index's (:mod:`repro.serve.cluster`)
state::

    data_dir/
      manifest.json        the committed base and its WAL frame count
      specs.pkl            pickled AttributeSpecs + combiner + knobs
      shard-00/
        base-3/            packed base, versioned by write count
          meta.json        counters, record/column metadata
          records.jsonl    base records in slot order
          col0.range_bits.bin   raw arrays, memmapped on restore
          ...
        wal-3.log          mutations on top of base-3 (serve.wal frames)

The manifest keeps a one-entry ``"shards"`` list, and the partition
keeps its ``shard-00/`` name: data dirs written while the index could
be split across N shards (``shard-00/`` … ``shard-<N-1>/``, one
manifest entry each) share this layout.

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

from repro.model.entity import ObjectInstance

MANIFEST_FILE = "manifest.json"
SPECS_FILE = "specs.pkl"


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
    """Versioned packed-base storage for one partition directory."""

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
                   records: Sequence[ObjectInstance],
                   column_states: Sequence[Tuple[dict, Dict[str, object]]],
                   counters: dict) -> int:
        """Write a new packed base; returns its base id.

        ``records`` are the base's instances in slot order;
        ``column_states`` come from
        :meth:`~repro.serve.index.IncrementalIndex.export_columns`;
        ``counters`` carries the index counters the restore path
        resumes from (``version``, ``compactions``).
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
            for instance in records:
                handle.write(json.dumps(
                    {"id": instance.id,
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

        A partition dir written before WALs were named by their base
        holds a single ``wal.log`` on top of its one base; it is renamed
        to that base's WAL.
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
        ``records`` are the ``records.jsonl`` entries (``{"id",
        "attributes"}`` dicts) in slot order and the column-state
        arrays are read-only ``np.memmap`` views of the base files —
        restoring costs page-table setup, not a repack.  A zero-size
        array (an emptied base, a TF/IDF column without entries) is a
        plain empty array: an empty file cannot be memmapped.
        """
        base = self.base_path(base_id)
        with open(os.path.join(base, "meta.json"), encoding="utf-8") as handle:
            meta = json.load(handle)
        with open(os.path.join(base, "records.jsonl"),
                  encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        column_states = []
        for column in meta["columns"]:
            arrays: Dict[str, object] = {}
            for spec in column["arrays"]:
                dtype, shape = _np.dtype(spec["dtype"]), tuple(spec["shape"])
                arrays[spec["name"]] = (
                    _np.memmap(os.path.join(base, spec["file"]),
                               dtype=dtype, mode="r", shape=shape)
                    if all(shape) else _np.empty(shape, dtype=dtype))
            column_states.append((column["meta"], arrays))
        return records, column_states, meta["counters"]


# -- data-dir manifest / specs -----------------------------------------

def write_manifest(data_dir: str, manifest: dict) -> None:
    """Atomically replace the data dir's manifest (fsync'd)."""
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
