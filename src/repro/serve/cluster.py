"""Partitioned scatter-gather serving tier.

:class:`ClusterIndex` presents the same surface
:class:`~repro.serve.MatchService` drives on a single
:class:`~repro.serve.index.IncrementalIndex`, but the reference lives
split across shard workers:

* the initial bulk load carves the reference into contiguous slot
  tiles (``PairGenerator.shards`` semantics via
  :func:`~repro.serve.partition.initial_partition`); later ingests
  route by a stable id hash;
* each shard worker holds a full ``IncrementalIndex`` over its slice
  — packed kernel columns, token postings, append buffer — and runs
  either in-process (``processes=False``) or as a forked worker
  process speaking a length-prefixed pickle frame protocol over a
  socket pair;
* queries scatter to every shard and gather through a deterministic
  merge that is **bit-identical** to the single index (see below);
  mutations route to the owning shard only;
* with a data dir, every shard persists packed base columns
  (memmapped back on restore) plus a mutation WAL, and
  :meth:`ClusterIndex.checkpoint` is an fsync-and-manifest write.

Bit-identity of the merge.  Candidate ranking in the single index
takes the top-k ids by (summed token weight desc, insertion order)
and scores only those.  The router reproduces this exactly:

* it maintains **global** document frequencies and hands every shard
  the same ``{token: 1/df}`` weight map, so a shard's weight sum for
  a record accumulates *the same float terms in the same sorted-token
  order* as the single index would — each live record lives in
  exactly one shard, so no term is split or duplicated;
* each shard returns its local top-k ranked by (weight desc, local
  slot asc) — the index's own ``bincount`` ranking over the shard's
  postings; local slot order is monotone in the router's global
  insertion sequence (``gseq``), so merging shard rankings by (weight
  desc, gseq asc) and cutting to k yields exactly the single index's
  top-k — any candidate ranked out locally is outranked by k records
  that also outrank it globally;
* the cut fixes the global kth weight bound; a second ``score``
  round ships each shard only its own surviving ``(record, id)``
  pairs, and shards score them through their own packed kernels
  (bit-identical to the engine by the index's contract).  Scoring is
  elementwise per pair, so scoring the global survivors instead of
  every local top-k changes no float.

Corpus-*aware* similarities (TF/IDF) are the one relaxation: each
shard freezes document frequencies over its own slice (on its own
copy of the specs, in-process or forked alike), so scores
match the single index only for corpus-independent similarities (the
q-gram family, edit distances) — the same class of relaxation the
index already applies by freezing statistics between compactions.
"""

from __future__ import annotations

import contextlib
import copy
import io
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.obs import trace as obs_trace
from repro.serve import partition as partition_layout
from repro.serve.errors import ShardUnavailable, SnapshotUnavailable
from repro.serve.index import IncrementalIndex, posting_tokens
from repro.serve.wal import WriteAheadLog

Result = List[Tuple[str, float]]


# ----------------------------------------------------------------------
# frame protocol: length-prefixed pickles over a socket pair
# ----------------------------------------------------------------------

class FrameChannel:
    """Length-prefixed pickle frames over a connected socket."""

    _HEADER = struct.Struct(">I")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, message: object) -> None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self._sock.sendall(self._HEADER.pack(len(payload)) + payload)

    def recv(self) -> object:
        header = self._recv_exact(self._HEADER.size)
        (length,) = self._HEADER.unpack(header)
        return pickle.loads(self._recv_exact(length))

    def _recv_exact(self, n: int) -> bytes:
        buffer = io.BytesIO()
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise EOFError("shard channel closed")
            buffer.write(chunk)
            remaining -= len(chunk)
        return buffer.getvalue()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass


# ----------------------------------------------------------------------
# shard backend: one IncrementalIndex slice + WAL + packed base store
# ----------------------------------------------------------------------

class ShardBackend:
    """One shard's state and operation handlers.

    Runs identically in-process or inside a worker process — the
    process mode merely moves :meth:`handle` behind a
    :class:`FrameChannel`.  The backend keeps, next to the index:

    * ``gseq`` — the router's global insertion sequence number per
      live id (the cross-shard ranking tie-break, persisted in base
      records and WAL entries);
    * ``_entries`` — mutations applied since the index's last
      compaction; exactly the WAL suffix a fresh base write must
      carry over;
    * ``_base_gseq`` — the gseq map as of the last compaction, i.e.
      the values the *base* records must persist with (later updates
      may have reassigned a live id's gseq).
    """

    def __init__(self, shard_id: int, index: IncrementalIndex,
                 gseq: Dict[str, int], *,
                 store=None, wal: Optional[WriteAheadLog] = None,
                 base_counters: Optional[dict] = None) -> None:
        self.shard_id = shard_id
        self.index = index
        self.gseq = gseq
        self.store = store
        self.wal = wal
        self._entries: List[dict] = []
        self._base_gseq: Dict[str, int] = dict(gseq)
        self._base_counters = base_counters or {"version": index.version,
                                                "compactions":
                                                    index.compactions}
        self._wal_total = 0
        self._compaction_fired = False
        index.on_compact(self._on_compact)

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, shard_id: int,
              records: Sequence[Tuple[ObjectInstance, int]],
              *, specs: List[AttributeSpec], combiner, missing: str,
              compact_ratio: float, compact_min: int,
              physical: PhysicalSource, object_type: ObjectType,
              data_dir: Optional[str] = None) -> "ShardBackend":
        """Build a fresh shard over ``(instance, gseq)`` records.

        The shard prepares its own copy of ``specs``: in-process shards
        are handed the same spec objects, and a shared TF/IDF
        similarity would score every shard with the last slice's
        document frequencies.
        """
        source = LogicalSource(physical, object_type)
        for instance, _ in records:
            source.add(instance)
        index = IncrementalIndex(source, specs=copy.deepcopy(specs),
                                 combiner=combiner,
                                 missing=missing,
                                 compact_ratio=compact_ratio,
                                 compact_min=compact_min)
        gseq = {instance.id: g for instance, g in records}
        backend = cls(shard_id, index, gseq)
        if data_dir is not None:
            backend.store = partition_layout.PartitionStore(
                partition_layout.shard_dir(data_dir, shard_id))
            backend.wal = WriteAheadLog(
                partition_layout.wal_path(data_dir, shard_id))
            backend.write_base()
        return backend

    @classmethod
    def restore(cls, shard_id: int, data_dir: str, *,
                specs: List[AttributeSpec], combiner, missing: str,
                compact_ratio: float, compact_min: int,
                physical: PhysicalSource, object_type: ObjectType,
                wal_entries: int) -> "ShardBackend":
        """Restart warm: memmap the packed base, replay the WAL tail.

        Replays exactly ``wal_entries`` frames (the manifest's
        point-in-time count) through the normal mutation handlers and
        truncates anything after — re-applying mutations from the
        same base state re-triggers auto-compactions at the same
        points, so the restored index walks the identical state
        trajectory (same slots, counters, buffer contents).  ``specs``
        are copied as in :meth:`build`.
        """
        store = partition_layout.PartitionStore(
            partition_layout.shard_dir(data_dir, shard_id))
        base_id = store.latest_base()
        if base_id is None:
            raise FileNotFoundError(
                f"shard {shard_id}: no packed base under {store.path}")
        records, column_states, counters = store.load_base(base_id)
        source = LogicalSource(physical, object_type)
        for instance, _ in records:
            source.add(instance)
        index = IncrementalIndex.from_snapshot(
            source, specs=copy.deepcopy(specs), combiner=combiner,
            missing=missing,
            compact_ratio=compact_ratio, compact_min=compact_min,
            column_states=column_states,
            version=counters["version"],
            compactions=counters["compactions"])
        gseq = {instance.id: g for instance, g in records}
        wal = WriteAheadLog(partition_layout.wal_path(data_dir, shard_id))
        entries = wal.replay(wal_entries)
        if len(entries) < wal_entries:
            raise ValueError(
                f"shard {shard_id}: WAL holds {len(entries)} intact "
                f"frames, manifest expects {wal_entries}")
        wal.truncate_to(wal_entries)
        backend = cls(shard_id, index, gseq, store=store, wal=wal,
                      base_counters=counters)
        backend._wal_total = wal_entries
        for entry in entries:
            backend._replay(entry)
        return backend

    # -- mutation ------------------------------------------------------

    def _on_compact(self) -> None:
        # the new base absorbs everything applied so far, including
        # the mutation whose _maybe_compact triggered this
        self._compaction_fired = True
        self._entries = []
        self._base_gseq = dict(self.gseq)

    def _apply(self, entry: dict, operation: Callable[[], object],
               log: bool = True) -> object:
        """Run a mutation; track the compaction-relative WAL suffix.

        The WAL *file* always receives the entry (it holds every
        mutation since the on-disk base); ``_entries`` receives it
        only when no compaction fired, since a compaction folds all
        prior mutations into the in-memory base.  ``log=False`` is
        the replay path: frames are already on disk.
        """
        self._compaction_fired = False
        result = operation()
        if not self._compaction_fired:
            self._entries.append(entry)
        if log and self.wal is not None:
            self.wal.append(entry)
            self._wal_total += 1
        return result

    def add(self, instance: ObjectInstance, gseq: int,
            log: bool = True) -> dict:
        entry = {"op": "add", "id": instance.id,
                 "attributes": dict(instance.attributes), "gseq": gseq}
        self.gseq[instance.id] = gseq
        try:
            self._apply(entry, lambda: self.index.add(instance), log)
        except BaseException:
            self.gseq.pop(instance.id, None)
            raise
        return {"gseq": gseq, "old_value": None,
                "compacted": self._compaction_fired}

    def update(self, instance: ObjectInstance, gseq: int,
               log: bool = True) -> dict:
        old = self.index.get(instance.id)
        if old is None:
            raise KeyError(
                f"no instance {instance.id!r} in {self.index.name}")
        # updates always reslot to the end (see IncrementalIndex.update),
        # so the record takes the fresh global sequence number
        entry = {"op": "update", "id": instance.id,
                 "attributes": dict(instance.attributes), "gseq": gseq}
        previous = self.gseq[instance.id]
        self.gseq[instance.id] = gseq
        try:
            self._apply(entry, lambda: self.index.update(instance), log)
        except BaseException:
            self.gseq[instance.id] = previous
            raise
        attribute = self.index.specs[0].range_attribute
        return {"gseq": gseq, "old_value": old.get(attribute),
                "compacted": self._compaction_fired}

    def delete(self, id: str, log: bool = True) -> dict:
        old = self.index.get(id)
        if old is None:
            return {"removed": False, "old_value": None,
                    "compacted": False}
        entry = {"op": "delete", "id": id}
        previous = self.gseq.pop(id)
        try:
            self._apply(entry, lambda: self.index.delete(id), log)
        except BaseException:  # pragma: no cover - defensive
            self.gseq[id] = previous
            raise
        attribute = self.index.specs[0].range_attribute
        return {"removed": True, "old_value": old.get(attribute),
                "compacted": self._compaction_fired}

    def _replay(self, entry: dict) -> None:
        op = entry["op"]
        if op == "add":
            self.add(ObjectInstance(entry["id"], entry["attributes"]),
                     entry["gseq"], log=False)
        elif op == "update":
            self.update(ObjectInstance(entry["id"], entry["attributes"]),
                        entry["gseq"], log=False)
        elif op == "delete":
            self.delete(entry["id"], log=False)
        else:  # pragma: no cover - forward-compat guard
            raise ValueError(f"unknown WAL op {op!r}")

    # -- matching ------------------------------------------------------

    def match(self, records: Sequence[ObjectInstance],
              threshold: float) -> dict:
        """Exhaustive local scoring (the ``max_candidates=None`` mode)."""
        return {"results": self.index.match_records(
            records, threshold=threshold, max_candidates=None)}

    def candidates(self, records: Sequence[ObjectInstance],
                   max_candidates: int,
                   weights: Optional[Sequence[Optional[dict]]]) -> dict:
        """Round 1 of the top-k scatter: local candidate rankings.

        Returns, per record, the shard's top-k candidates as ``(id,
        gseq, weight)`` — ranked with the router's *global* weights.
        No scoring happens here: the router merges the
        shard rankings, cuts to the global top-k (establishing the
        global kth weight bound), and ships only the survivors back
        in a ``score`` round — exactly like the single index scores
        only its own top-k candidates.
        """
        attribute = self.index.specs[0].attribute
        candidates: List[List[Tuple[str, int, float]]] = []
        slot_ids = self.index._slot_ids
        for position, record in enumerate(records):
            value = record.get(attribute)
            weight_map = weights[position] if weights else None
            if value is None or not weight_map:
                candidates.append([])
                continue
            ranked = self.index.ranked_candidates(
                str(value), max_candidates, weights=weight_map)
            local: List[Tuple[str, int, float]] = []
            for slot, weight in ranked:
                id = slot_ids[slot]
                local.append((id, self.gseq[id], weight))
            candidates.append(local)
        return {"candidates": candidates}

    def score(self, records: Sequence[ObjectInstance],
              pairs: Sequence[Tuple[int, str]],
              threshold: float) -> dict:
        """Round 2: kernel scores for the globally surviving pairs.

        Every pair is local to this shard; scoring a subset of the
        local top-k is elementwise, so each survivor's float equals
        what the single-round protocol (and the single index) would
        produce.
        """
        return {"triples": self.index.score_pairs(
            records, list(pairs), threshold=threshold)}

    def _observed(self, name: str, trace: Optional[dict],
                  operation: Callable[[], dict]) -> dict:
        """Run a scoring handler; attach a span when the op is traced.

        The handler runs identically either way — timing is pure
        observation — and untraced responses carry no extra keys, so
        response frames stay byte-identical with tracing off.
        """
        start = time.time()
        begun = time.perf_counter()
        response = operation()
        if trace is not None:
            response["span"] = obs_trace.shard_span(
                trace, f"shard.{name}", self.shard_id, start,
                time.perf_counter() - begun)
        return response

    def metrics(self) -> dict:
        """Cumulative per-shard timing counters (registry pull): the
        index's own entry, labelled, plus this shard's WAL."""
        (entry,) = self.index.shard_metrics()
        entry["shard"] = self.shard_id
        if self.wal is not None:
            entry["wal"] = self.wal.timing_counters()
        return entry

    # -- persistence ---------------------------------------------------

    def write_base(self) -> int:
        """Write the current in-memory base as a fresh packed base.

        The base is the index's *internal* base (the state of the
        last compaction); mutations applied since (``_entries``)
        become the new WAL content, so base + WAL always reconstruct
        the live state.
        """
        records = [(instance, self._base_gseq[instance.id])
                   for instance in self.index.base_instances()]
        counters = {"version": self.index.version - len(self._entries),
                    "compactions": self.index.compactions}
        base_id = self.store.write_base(records,
                                        self.index.export_columns(),
                                        counters)
        self.wal.reset()
        for entry in self._entries:
            self.wal.append(entry)
        self.wal.sync()
        self._wal_total = len(self._entries)
        self._base_counters = counters
        return base_id

    def checkpoint(self) -> dict:
        """Make the on-disk state a point-in-time image of now.

        Writes a fresh base only when a compaction changed the packed
        columns since the last base write; otherwise an fsync of the
        WAL suffices.  Returns what the manifest must record.
        """
        if self.store is None:
            raise SnapshotUnavailable(
                "shard has no data dir; configure data_dir to snapshot")
        if self.index.compactions != self._base_counters["compactions"]:
            self.write_base()
        else:
            self.wal.sync()
        return {"base": self.store.latest_base(),
                "wal_entries": self._wal_total}

    # -- dispatch ------------------------------------------------------

    def state(self) -> dict:
        """Router bootstrap payload: live ids + local token df."""
        return {"ids": sorted(self.gseq.items(),
                              key=lambda kv: (kv[1], kv[0])),
                "token_df": self.index.token_frequencies()}

    def records(self) -> List[Tuple[ObjectInstance, int]]:
        return [(self.index.get(id), self.gseq[id])
                for id in self.index.ids()]

    def handle(self, op: str, payload: dict):
        if op == "match":
            return self._observed(
                "match", payload.get("trace"),
                lambda: self.match(payload["records"],
                                   payload["threshold"]))
        if op == "candidates":
            return self._observed(
                "candidates", payload.get("trace"),
                lambda: self.candidates(payload["records"],
                                        payload["max_candidates"],
                                        payload.get("weights")))
        if op == "score":
            return self._observed(
                "score", payload.get("trace"),
                lambda: self.score(payload["records"], payload["pairs"],
                                   payload["threshold"]))
        if op == "mutate":
            kind = payload["kind"]
            if kind == "add":
                return self.add(payload["instance"], payload["gseq"])
            if kind == "update":
                return self.update(payload["instance"], payload["gseq"])
            return self.delete(payload["id"])
        if op == "get":
            return self.index.get(payload["id"])
        if op == "stats":
            return self.index.stats()
        if op == "state":
            return self.state()
        if op == "records":
            return self.records()
        if op == "compact":
            self.index.compact()
            return None
        if op == "checkpoint":
            return self.checkpoint()
        if op == "metrics":
            return self.metrics()
        raise ValueError(f"unknown shard op {op!r}")

    def close(self) -> None:
        if self.wal is not None:
            self.wal.sync()
            self.wal.close()


# ----------------------------------------------------------------------
# shard transports
# ----------------------------------------------------------------------

def _shard_worker(sock: socket.socket, mode: str, kwargs: dict,
                  router_channels: List[FrameChannel]) -> None:
    """Worker process entry: build/restore a backend, serve the loop."""
    # The fork copied the router-side end of this worker's socket pair
    # (and of every shard spawned before it).  While any copy stays
    # open the loop below never sees EOF, so a router killed without a
    # shutdown op would leave its workers running forever.
    for router_channel in router_channels:
        router_channel.close()
    # A terminal Ctrl-C signals the whole foreground process group;
    # shutdown is the router's job (explicit op or channel EOF), so the
    # worker must not die mid-frame with a KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    channel = FrameChannel(sock)
    try:
        if mode == "build":
            backend = ShardBackend.build(**kwargs)
        else:
            backend = ShardBackend.restore(**kwargs)
        channel.send(("ok", len(backend.index)))
    except BaseException as error:  # surface the build failure
        channel.send(("error", error))
        return
    while True:
        try:
            op, payload = channel.recv()
        except EOFError:
            break
        if op == "shutdown":
            try:
                backend.close()
            finally:
                channel.send(("ok", None))
            break
        try:
            channel.send(("ok", backend.handle(op, payload)))
        except Exception as error:
            channel.send(("error", error))


class LocalShard:
    """In-process shard transport — same code paths, no parallelism."""

    def __init__(self, shard_id: int, mode: str, kwargs: dict) -> None:
        self.shard_id = shard_id
        if mode == "build":
            self.backend = ShardBackend.build(**kwargs)
        else:
            self.backend = ShardBackend.restore(**kwargs)
        self._pending = None

    def call(self, op: str, payload: dict):
        return self.backend.handle(op, payload)

    def send(self, op: str, payload: dict) -> None:
        try:
            self._pending = ("ok", self.call(op, payload))
        except Exception as error:
            self._pending = ("error", error)

    def receive(self):
        status, result = self._pending
        self._pending = None
        if status == "error":
            raise result
        return result

    def close(self) -> None:
        self.backend.close()


class ProcessShard:
    """Forked worker process behind a :class:`FrameChannel`."""

    def __init__(self, shard_id: int, mode: str, kwargs: dict,
                 context, siblings: Sequence["ProcessShard"]) -> None:
        self.shard_id = shard_id
        parent, child = socket.socketpair()
        self.channel = FrameChannel(parent)
        self.process = context.Process(
            target=_shard_worker,
            args=(child, mode, kwargs,
                  [self.channel] + [shard.channel for shard in siblings]),
            daemon=True)
        self.process.start()
        child.close()
        status, result = self._receive_raw()
        if status == "error":
            raise result

    def _receive_raw(self):
        try:
            return self.channel.recv()
        except (OSError, EOFError) as error:
            raise ShardUnavailable(self.shard_id, str(error)) from error

    def send(self, op: str, payload: dict) -> None:
        try:
            self.channel.send((op, payload))
        except (OSError, BrokenPipeError) as error:
            raise ShardUnavailable(self.shard_id, str(error)) from error

    def receive(self):
        status, result = self._receive_raw()
        if status == "error":
            raise result
        return result

    def call(self, op: str, payload: dict):
        self.send(op, payload)
        return self.receive()

    def close(self) -> None:
        try:
            self.call("shutdown", {})
        except ShardUnavailable:  # pragma: no cover - already gone
            pass
        self.channel.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=1.0)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods() \
        and hasattr(os, "fork")


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------

class ClusterIndex:
    """Scatter-gather router over shard workers.

    Drop-in for :class:`~repro.serve.index.IncrementalIndex` as far
    as :class:`~repro.serve.MatchService` is concerned: same
    mutation / lookup / ``match_records`` / ``stats`` surface, plus
    :meth:`checkpoint` (persist a point-in-time image) and
    :meth:`close`.  Construct via :meth:`build` or :meth:`restore`.
    """

    def __init__(self, shards: List[object], *,
                 specs: List[AttributeSpec], combiner, missing: str,
                 physical: PhysicalSource, object_type: ObjectType,
                 data_dir: Optional[str], seq: int) -> None:
        self._shards = shards
        self.specs = list(specs)
        self.combiner = combiner
        self.missing = missing
        self._physical = physical
        self._object_type = object_type
        self.name = f"{physical.name}.{object_type.name}"
        self.data_dir = data_dir
        self._seq = seq
        self._id_shard: Dict[str, int] = {}
        self._id_gseq: Dict[str, int] = {}
        self._token_df: Dict[str, int] = {}
        self._compaction_listeners: List[Callable[[], None]] = []
        #: repro.obs registry for per-shard round latencies (optional)
        self._metrics = None
        for shard_id, shard in enumerate(self._shards):
            state = shard.call("state", {})
            for id, gseq in state["ids"]:
                self._id_shard[id] = shard_id
                self._id_gseq[id] = gseq
            for token, count in state["token_df"].items():
                self._token_df[token] = self._token_df.get(token, 0) + count

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, reference: LogicalSource, *,
              specs: List[AttributeSpec], combiner=None,
              missing: str = "skip", compact_ratio: float = 0.25,
              compact_min: int = 64, shards: int = 1,
              processes: bool = True,
              data_dir: Optional[str] = None) -> "ClusterIndex":
        """Partition ``reference`` across ``shards`` fresh workers."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        instances = list(reference)
        spans = partition_layout.initial_partition(len(instances), shards)
        while len(spans) < shards:
            spans.append((len(instances), len(instances)))
        numbered = list(enumerate(instances))
        shard_kwargs = dict(specs=list(specs), combiner=combiner,
                            missing=missing, compact_ratio=compact_ratio,
                            compact_min=compact_min,
                            physical=reference.physical,
                            object_type=reference.object_type,
                            data_dir=data_dir)
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            partition_layout.write_specs(data_dir, dict(
                shard_kwargs, data_dir=None, shards=shards))
        transports = cls._spawn(
            [("build", dict(shard_kwargs, shard_id=shard_id,
                            records=[(instance, gseq) for gseq, instance
                                     in numbered[start:end]]))
             for shard_id, (start, end) in enumerate(spans)],
            processes)
        cluster = cls(transports, specs=specs, combiner=combiner,
                      missing=missing, physical=reference.physical,
                      object_type=reference.object_type,
                      data_dir=data_dir, seq=len(instances))
        if data_dir is not None:
            cluster.checkpoint()
        return cluster

    @classmethod
    def restore(cls, data_dir: str, *,
                processes: bool = True) -> "ClusterIndex":
        """Restart every shard warm from ``data_dir``'s manifest.

        Only the keys read below are taken from the specs payload: an
        older data dir that still carries a ``"pruning"`` mode restores
        unchanged.
        """
        manifest = partition_layout.read_manifest(data_dir)
        if manifest is None:
            raise FileNotFoundError(f"no cluster manifest in {data_dir}")
        payload = partition_layout.read_specs(data_dir)
        shard_kwargs = dict(specs=payload["specs"],
                            combiner=payload["combiner"],
                            missing=payload["missing"],
                            compact_ratio=payload["compact_ratio"],
                            compact_min=payload["compact_min"],
                            physical=payload["physical"],
                            object_type=payload["object_type"])
        transports = cls._spawn(
            [("restore", dict(shard_kwargs, shard_id=shard_id,
                              data_dir=data_dir,
                              wal_entries=entry["wal_entries"]))
             for shard_id, entry in enumerate(manifest["shards"])],
            processes)
        return cls(transports, specs=payload["specs"],
                   combiner=payload["combiner"],
                   missing=payload["missing"],
                   physical=payload["physical"],
                   object_type=payload["object_type"],
                   data_dir=data_dir, seq=manifest["seq"])

    @staticmethod
    def _spawn(plans: List[Tuple[str, dict]],
               processes: bool) -> List[object]:
        if processes and _fork_available():
            context = multiprocessing.get_context("fork")
            shards: List[object] = []
            for mode, kwargs in plans:
                shards.append(ProcessShard(kwargs["shard_id"], mode, kwargs,
                                           context, siblings=shards))
            return shards
        return [LocalShard(plan[1]["shard_id"], plan[0], plan[1])
                for plan in plans]

    # -- document frequencies ------------------------------------------

    def _df_add(self, value: object) -> None:
        for token in posting_tokens(value):
            self._token_df[token] = self._token_df.get(token, 0) + 1

    def _df_remove(self, value: object) -> None:
        for token in posting_tokens(value):
            count = self._token_df.get(token, 0) - 1
            if count > 0:
                self._token_df[token] = count
            else:
                self._token_df.pop(token, None)

    def _weight_map(self, value: object) -> Optional[dict]:
        weights = {}
        for token in posting_tokens(value):
            df = self._token_df.get(token)
            if df:
                weights[token] = 1.0 / df
        return weights or None

    # -- mutation ------------------------------------------------------

    def _after_mutation(self, response: dict) -> None:
        if response.get("compacted"):
            for listener in self._compaction_listeners:
                listener()

    def add(self, instance: ObjectInstance) -> None:
        """Add a reference record (ValueError on a live duplicate id)."""
        if instance.id in self._id_shard:
            raise ValueError(
                f"duplicate instance id {instance.id!r} in {self.name}")
        shard_id = partition_layout.shard_for_id(instance.id,
                                                 len(self._shards))
        gseq = self._seq
        self._seq += 1
        response = self._shards[shard_id].call(
            "mutate", {"kind": "add", "instance": instance, "gseq": gseq})
        self._id_shard[instance.id] = shard_id
        self._id_gseq[instance.id] = gseq
        self._df_add(instance.get(self.specs[0].range_attribute))
        self._after_mutation(response)

    def update(self, instance: ObjectInstance) -> None:
        """Replace a live record (KeyError when the id is not live)."""
        shard_id = self._id_shard.get(instance.id)
        if shard_id is None:
            raise KeyError(f"no instance {instance.id!r} in {self.name}")
        gseq = self._seq
        self._seq += 1
        response = self._shards[shard_id].call(
            "mutate",
            {"kind": "update", "instance": instance, "gseq": gseq})
        self._id_gseq[instance.id] = response["gseq"]
        self._df_remove(response["old_value"])
        self._df_add(instance.get(self.specs[0].range_attribute))
        self._after_mutation(response)

    def delete(self, id: str) -> bool:
        """Remove a live record; returns whether it existed."""
        shard_id = self._id_shard.get(id)
        if shard_id is None:
            return False
        response = self._shards[shard_id].call(
            "mutate", {"kind": "delete", "id": id})
        if response["removed"]:
            del self._id_shard[id]
            del self._id_gseq[id]
            self._df_remove(response["old_value"])
        self._after_mutation(response)
        return response["removed"]

    # -- lookup --------------------------------------------------------

    def get(self, id: str) -> Optional[ObjectInstance]:
        shard_id = self._id_shard.get(id)
        if shard_id is None:
            return None
        return self._shards[shard_id].call("get", {"id": id})

    def __contains__(self, id: str) -> bool:
        return id in self._id_shard

    def __len__(self) -> int:
        return len(self._id_shard)

    def ids(self) -> List[str]:
        """Live ids in global insertion order (the single index's)."""
        return sorted(self._id_gseq, key=self._id_gseq.get)

    def instances(self) -> List[ObjectInstance]:
        by_gseq = []
        for shard in self._shards:
            by_gseq.extend(shard.call("records", {}))
        by_gseq.sort(key=lambda pair: pair[1])
        return [instance for instance, _ in by_gseq]

    def snapshot(self) -> LogicalSource:
        """The live records as a plain :class:`LogicalSource`."""
        source = LogicalSource(self._physical, self._object_type)
        for instance in self.instances():
            source.add(instance)
        return source

    # -- observability -------------------------------------------------

    def set_metrics(self, registry) -> None:
        """Attach a :class:`repro.obs.MetricsRegistry` for round
        latencies; ``None`` (the default) keeps matching unobserved."""
        self._metrics = registry

    def _observe_round(self, round_name: str, shard_id: int,
                       seconds: float) -> None:
        if self._metrics is None:
            return
        self._metrics.histogram(
            "repro_cluster_round_seconds",
            "Per-shard scatter-gather round latency (scatter start to "
            "shard response).",
            labels={"round": round_name, "shard": shard_id},
        ).observe(seconds)

    def shard_metrics(self) -> List[dict]:
        """Per-shard timing counters (the registry's collector pull).

        Callers must hold whatever lock serializes matching on this
        cluster — :class:`FrameChannel` transports are not
        thread-safe.
        """
        return self._scatter("metrics", {})

    # -- matching ------------------------------------------------------

    def match_records(self, records: Sequence[ObjectInstance], *,
                      threshold: float,
                      max_candidates: Optional[int] = 50) \
            -> List[Result]:
        """Scatter a query batch to every shard, gather + merge top-k.

        Top-k mode runs two scatter rounds: a ``candidates`` round
        collecting per-shard rankings, then — after the router merges
        them and cuts to the global top-k, which fixes the global kth
        weight bound — a ``score`` round shipping each shard only its
        own surviving pairs.  Shards that rank no survivor skip round
        two entirely.  See the module docstring for why the merge is
        bit-identical to the single index on corpus-independent
        similarities.
        """
        records = list(records)
        attribute = self.specs[0].attribute
        results: List[Result] = [[] for _ in records]
        if max_candidates is None:
            for response in self._scatter(
                    "match", {"records": records, "threshold": threshold},
                    traced=True):
                for matched, found in zip(results, response["results"]):
                    matched.extend(found)
        else:
            weights = [self._weight_map(str(record.get(attribute)))
                       if record.get(attribute) is not None else None
                       for record in records]
            responses = self._scatter(
                "candidates", {"records": records,
                               "max_candidates": max_candidates,
                               "weights": weights}, traced=True)
            shard_pairs: List[List[Tuple[int, str]]] = [
                [] for _ in self._shards]
            for position in range(len(records)):
                ranked: List[Tuple[float, int, str, int]] = []
                for shard_id, response in enumerate(responses):
                    for id, gseq, weight in \
                            response["candidates"][position]:
                        ranked.append((-weight, gseq, id, shard_id))
                ranked.sort()
                for _, _, id, shard_id in ranked[:max_candidates]:
                    shard_pairs[shard_id].append((position, id))
            for response in self._scatter(
                    "score", {"records": records, "pairs": shard_pairs,
                              "threshold": threshold},
                    split="pairs", traced=True):
                for position, reference_id, score in response["triples"]:
                    results[position].append((reference_id, score))
        for matched in results:
            matched.sort(key=lambda item: (-item[1], item[0]))
        return results

    def _scatter(self, op: str, payload: dict, *,
                 split: Optional[str] = None,
                 traced: bool = False) -> List:
        """One scatter round: send ``(op, payload)`` to every shard,
        *then* receive the responses in shard order.

        ``split`` names a payload key holding one value per shard:
        each shard gets its own entry under that key, and shards whose
        entry is empty sit the round out.  ``traced`` marks a scoring
        round: it runs inside a ``cluster.<op>`` span whose wire
        context rides the payload, each shard's elapsed time since the
        scatter began is observed, and shard-returned spans fold into
        the active trace — pure observation; responses come back in
        the same deterministic shard order either way.
        """
        shard_ids = [shard_id for shard_id in range(len(self._shards))
                     if split is None or payload[split][shard_id]]
        trace = obs_trace.current_trace() if traced else None
        with obs_trace.span(f"cluster.{op}") if traced \
                else contextlib.nullcontext():
            if trace is not None:
                payload = dict(payload, trace=trace.wire_context())
            begun = time.perf_counter()
            for shard_id in shard_ids:
                message = payload
                if split is not None:
                    message = dict(payload,
                                   **{split: payload[split][shard_id]})
                self._shards[shard_id].send(op, message)
            responses = []
            for shard_id in shard_ids:
                response = self._shards[shard_id].receive()
                if traced:
                    self._observe_round(op, shard_id,
                                        time.perf_counter() - begun)
                if trace is not None:
                    trace.add_span(response.get("span"))
                responses.append(response)
        return responses

    # -- maintenance ---------------------------------------------------

    def on_compact(self, listener: Callable[[], None]) -> None:
        self._compaction_listeners.append(listener)

    def compact(self) -> None:
        """Force every shard to rebuild its packed base."""
        self._scatter("compact", {})
        for listener in self._compaction_listeners:
            listener()

    def stats(self) -> dict:
        """Aggregated cluster stats plus per-shard index stats."""
        shard_stats = self._scatter("stats", {})
        # every numeric key the shards report sums; "tokens" is the
        # router's own global count, set below
        totals = {key: sum(stats[key] for stats in shard_stats)
                  for key, value in shard_stats[0].items()
                  if not isinstance(value, dict)}
        totals["pruning"] = {
            key: sum(stats["pruning"][key] for stats in shard_stats)
            for key in shard_stats[0]["pruning"]}
        totals["tokens"] = len(self._token_df)
        totals["shards"] = len(self._shards)
        totals["shard_stats"] = shard_stats
        return totals

    @property
    def compactions(self) -> int:
        return self.stats()["compactions"]

    @property
    def version(self) -> int:
        return self.stats()["version"]

    # -- persistence ---------------------------------------------------

    def checkpoint(self) -> dict:
        """Persist a point-in-time image: shard bases/WALs + manifest."""
        if self.data_dir is None:
            raise SnapshotUnavailable(
                "cluster has no data dir; configure data_dir to snapshot")
        manifest = {"seq": self._seq,
                    "shards": self._scatter("checkpoint", {}),
                    "source": self.name}
        partition_layout.write_manifest(self.data_dir, manifest)
        return manifest

    def close(self) -> None:
        """Shut down every shard transport (workers exit)."""
        for shard in self._shards:
            shard.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterIndex({self.name!r}, {len(self)} records, "
                f"{len(self._shards)} shards)")
