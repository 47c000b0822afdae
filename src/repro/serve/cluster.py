"""Partitioned scatter-gather serving tier.

:class:`ClusterIndex` presents the same surface
:class:`~repro.serve.MatchService` drives on a single
:class:`~repro.serve.index.IncrementalIndex`, but the reference lives
split across in-process shards:

* the initial bulk load carves the reference into contiguous slot
  tiles (``PairGenerator.shards`` semantics via
  :func:`~repro.serve.partition.initial_partition`); later ingests
  route by a stable id hash;
* each shard (:class:`ShardBackend`) holds a full
  ``IncrementalIndex`` over its slice — packed kernel columns, token
  postings, append buffer — in the router's process, and the router
  calls its methods directly;
* queries scatter to every shard and gather through a deterministic
  merge that is **bit-identical** to the single index (see below);
  mutations route to the owning shard only;
* with a data dir, every shard persists packed base columns
  (memmapped back on restore) plus a mutation WAL per base, and
  :meth:`ClusterIndex.checkpoint` is an fsync-and-manifest write.

Bit-identity of the merge.  Candidate ranking in the single index
takes the top-k ids by (summed token weight desc, insertion order)
and scores only those.  The router reproduces this exactly:

* it reads **global** document frequencies — a token's live posting
  length summed over the shards — and hands every shard the same
  ``{token: 1/df}`` weight map, so a shard's weight sum for a record
  accumulates *the same float terms in the same sorted-token order*
  as the single index would — each live record lives in exactly one
  shard, so no term is split or duplicated;
* each shard returns its local top-k ranked by (weight desc, local
  slot asc) — the index's own ``bincount`` ranking over the shard's
  postings; local slot order is monotone in the router's global
  insertion sequence (``gseq``), so merging shard rankings by (weight
  desc, gseq asc) and cutting to k yields exactly the single index's
  top-k — any candidate ranked out locally is outranked by k records
  that also outrank it globally;
* the cut fixes the global kth weight bound; a second ``score``
  round hands each shard only its own surviving ``(record, id)``
  pairs, and shards score them through their own packed kernels
  (bit-identical to the engine by the index's contract).  Scoring is
  elementwise per pair, so scoring the global survivors instead of
  every local top-k changes no float.

Corpus-*aware* similarities (TF/IDF) are the one relaxation: each
shard freezes document frequencies over its own slice (on its own
copy of the specs), so scores match the single index only for
corpus-independent similarities (the q-gram family, edit distances)
— the same class of relaxation the index already applies by freezing
statistics between compactions.
"""

from __future__ import annotations

import copy
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.request import AttributeSpec
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.obs import trace as obs_trace
from repro.serve import partition as partition_layout
from repro.serve.errors import SnapshotUnavailable
from repro.serve.index import IncrementalIndex, posting_tokens
from repro.serve.wal import WriteAheadLog

Result = List[Tuple[str, float]]
T = TypeVar("T")


# ----------------------------------------------------------------------
# shard backend: one IncrementalIndex slice + WAL + packed base store
# ----------------------------------------------------------------------

class ShardBackend:
    """One shard: an :class:`IncrementalIndex` slice, its WAL and its
    packed base store, living in the router's process.

    The backend keeps, next to the index:

    * ``gseq`` — the router's global insertion sequence number per
      live id (the cross-shard ranking tie-break, persisted in base
      records and WAL entries);
    * ``_entries`` — mutations applied since the index's last
      compaction; exactly the WAL suffix a fresh base write must
      carry over;
    * ``_base_gseq`` — the gseq map as of the last compaction, i.e.
      the values the *base* records must persist with (later updates
      may have reassigned a live id's gseq);
    * ``base_id`` — the on-disk base the WAL extends (``None``
      without a data dir).
    """

    def __init__(self, shard_id: int, index: IncrementalIndex,
                 gseq: Dict[str, int], *,
                 store: Optional[partition_layout.PartitionStore] = None,
                 wal: Optional[WriteAheadLog] = None,
                 base_id: Optional[int] = None,
                 base_counters: Optional[dict] = None) -> None:
        self.shard_id = shard_id
        self.index = index
        self.gseq = gseq
        self.store = store
        self.wal = wal
        self.base_id = base_id
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

        The shard prepares its own copy of ``specs``: every shard is
        handed the same spec objects, and a shared TF/IDF similarity
        would score every shard with the last slice's document
        frequencies.
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
            backend.write_base()
        return backend

    @classmethod
    def restore(cls, shard_id: int, data_dir: str, *,
                specs: List[AttributeSpec], combiner, missing: str,
                compact_ratio: float, compact_min: int,
                physical: PhysicalSource, object_type: ObjectType,
                base: int, wal_entries: int) -> "ShardBackend":
        """Restart warm: memmap the packed base, replay the WAL tail.

        Opens the base the manifest names (``base``) and replays
        exactly ``wal_entries`` frames of that base's WAL (the
        manifest's point-in-time count) through the normal mutation
        handlers, truncating anything after — re-applying mutations
        from the same base state re-triggers auto-compactions at the
        same points, so the restored index walks the identical state
        trajectory (same slots, counters, buffer contents).  ``specs``
        are copied as in :meth:`build`.
        """
        store = partition_layout.PartitionStore(
            partition_layout.shard_dir(data_dir, shard_id))
        records, column_states, counters = store.load_base(base)
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
        wal = WriteAheadLog(store.adopt_wal(base))
        entries = wal.replay(wal_entries)
        if len(entries) < wal_entries:
            raise ValueError(
                f"shard {shard_id}: WAL holds {len(entries)} intact "
                f"frames, manifest expects {wal_entries}")
        wal.truncate_to(wal_entries)
        backend = cls(shard_id, index, gseq, store=store, wal=wal,
                      base_id=base, base_counters=counters)
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
               log: bool) -> bool:
        """Run a mutation; track the compaction-relative WAL suffix.

        The WAL *file* always receives the entry (it holds every
        mutation since the on-disk base); ``_entries`` receives it
        only when no compaction fired, since a compaction folds all
        prior mutations into the in-memory base.  ``log=False`` is
        the replay path: frames are already on disk.  Returns whether
        a compaction fired.
        """
        self._compaction_fired = False
        operation()
        if not self._compaction_fired:
            self._entries.append(entry)
        if log and self.wal is not None:
            self.wal.append(entry)
            self._wal_total += 1
        return self._compaction_fired

    def add(self, instance: ObjectInstance, gseq: int,
            log: bool = True) -> bool:
        entry = {"op": "add", "id": instance.id,
                 "attributes": dict(instance.attributes), "gseq": gseq}
        self.gseq[instance.id] = gseq
        try:
            return self._apply(entry, lambda: self.index.add(instance), log)
        except BaseException:
            self.gseq.pop(instance.id, None)
            raise

    def update(self, instance: ObjectInstance, gseq: int,
               log: bool = True) -> bool:
        # updates always reslot to the end (see IncrementalIndex.update),
        # so the record takes the fresh global sequence number
        entry = {"op": "update", "id": instance.id,
                 "attributes": dict(instance.attributes), "gseq": gseq}
        previous = self.gseq[instance.id]
        self.gseq[instance.id] = gseq
        try:
            return self._apply(entry, lambda: self.index.update(instance),
                               log)
        except BaseException:
            self.gseq[instance.id] = previous
            raise

    def delete(self, id: str, log: bool = True) -> bool:
        entry = {"op": "delete", "id": id}
        previous = self.gseq.pop(id)
        try:
            return self._apply(entry, lambda: self.index.delete(id), log)
        except BaseException:  # pragma: no cover - defensive
            self.gseq[id] = previous
            raise

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

    def candidates(self, records: Sequence[ObjectInstance],
                   max_candidates: int,
                   weights: Sequence[Optional[dict]]) \
            -> List[List[Tuple[str, int, float]]]:
        """Round 1 of the top-k scatter: local candidate rankings.

        Returns, per record, the shard's top-k candidates as ``(id,
        gseq, weight)`` — ranked with the router's *global* weights.
        No scoring happens here: the router merges the
        shard rankings, cuts to the global top-k (establishing the
        global kth weight bound), and scores only the survivors in a
        ``score`` round — exactly like the single index scores only
        its own top-k candidates.
        """
        attribute = self.index.specs[0].attribute
        candidates: List[List[Tuple[str, int, float]]] = []
        slot_ids = self.index._slot_ids
        for record, weight_map in zip(records, weights):
            value = record.get(attribute)
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
        return candidates

    def metrics(self) -> dict:
        """Cumulative per-shard counters (registry pull): the index's
        own entry, labelled, plus this shard's WAL."""
        (entry,) = self.index.shard_metrics()
        entry["shard"] = self.shard_id
        if self.wal is not None:
            entry["wal"] = self.wal.timing_counters()
        return entry

    # -- persistence ---------------------------------------------------

    def write_base(self) -> None:
        """Write the current in-memory base as a fresh packed base.

        The base is the index's *internal* base (the state of the
        last compaction); mutations applied since (``_entries``)
        become the content of the new base's own WAL, so base + WAL
        always reconstruct the live state.  The previous base and its
        WAL stay on disk until a manifest naming the new base lands
        (:meth:`ClusterIndex.checkpoint` prunes them).
        """
        records = [(instance, self._base_gseq[instance.id])
                   for instance in self.index.base_instances()]
        counters = {"version": self.index.version - len(self._entries),
                    "compactions": self.index.compactions}
        base_id = self.store.write_base(records,
                                        self.index.export_columns(),
                                        counters)
        path = self.store.wal_path(base_id)
        if self.wal is None:
            self.wal = WriteAheadLog(path)
        self.wal.reset(path)
        for entry in self._entries:
            self.wal.append(entry)
        self.wal.sync()
        self._wal_total = len(self._entries)
        self._base_counters = counters
        self.base_id = base_id

    def checkpoint(self) -> dict:
        """Make the on-disk state a point-in-time image of now.

        Writes a fresh base only when a compaction changed the packed
        columns since the last base write; otherwise an fsync of the
        WAL suffices.  Returns what the manifest must record.
        """
        if self.index.compactions != self._base_counters["compactions"]:
            self.write_base()
        else:
            self.wal.sync()
        return {"base": self.base_id, "wal_entries": self._wal_total}

    def close(self) -> None:
        if self.wal is not None:
            self.wal.sync()
            self.wal.close()


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------

class ClusterIndex:
    """Scatter-gather router over in-process shards.

    Drop-in for :class:`~repro.serve.index.IncrementalIndex` as far
    as :class:`~repro.serve.MatchService` is concerned: same
    mutation / lookup / ``match_records`` / ``stats`` surface, plus
    :meth:`checkpoint` (persist a point-in-time image) and
    :meth:`close`.  Construct via :meth:`build` or :meth:`restore`.
    The router keeps no copy of shard state: ids, gseqs and document
    frequencies are read from the shards themselves.
    """

    def __init__(self, shards: List[ShardBackend], *,
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
        self._compaction_listeners: List[Callable[[], None]] = []
        #: repro.obs registry for per-shard round latencies (optional)
        self._metrics = None

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, reference: LogicalSource, *,
              specs: List[AttributeSpec], combiner=None,
              missing: str = "skip", compact_ratio: float = 0.25,
              compact_min: int = 64, shards: int = 1,
              processes: bool = True,
              data_dir: Optional[str] = None) -> "ClusterIndex":
        """Partition ``reference`` across ``shards`` fresh shards.

        ``processes`` selects nothing: every shard lives in the
        router's process.  The keyword stays, validated, for the
        benchmark harness's ``cluster_layer``
        (benchmarks/moma_bench/layers.py), which still passes it.
        """
        _check_processes(processes)
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
                            object_type=reference.object_type)
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            partition_layout.write_specs(data_dir, dict(
                shard_kwargs, shards=shards))
        backends = [
            ShardBackend.build(shard_id,
                               [(instance, gseq) for gseq, instance
                                in numbered[start:end]],
                               data_dir=data_dir, **shard_kwargs)
            for shard_id, (start, end) in enumerate(spans)]
        cluster = cls(backends, specs=specs, combiner=combiner,
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
        unchanged.  ``processes`` selects nothing (see :meth:`build`).
        """
        _check_processes(processes)
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
        backends = [
            ShardBackend.restore(shard_id, data_dir, base=entry["base"],
                                 wal_entries=entry["wal_entries"],
                                 **shard_kwargs)
            for shard_id, entry in enumerate(manifest["shards"])]
        return cls(backends, specs=payload["specs"],
                   combiner=payload["combiner"],
                   missing=payload["missing"],
                   physical=payload["physical"],
                   object_type=payload["object_type"],
                   data_dir=data_dir, seq=manifest["seq"])

    # -- document frequencies ------------------------------------------

    def _weight_map(self, value: object) -> Optional[dict]:
        """``{token: 1/df}`` over ``value``'s tokens, ``df`` being the
        token's live posting length summed over the shards — the
        document frequency the single index would read."""
        weights = {}
        for token in posting_tokens(value):
            df = sum(shard.index.document_frequency(token)
                     for shard in self._shards)
            if df:
                weights[token] = 1.0 / df
        return weights or None

    # -- mutation ------------------------------------------------------

    def _owner(self, id: str) -> Optional[ShardBackend]:
        for shard in self._shards:
            if id in shard.gseq:
                return shard
        return None

    def _after_mutation(self, compacted: bool) -> None:
        if compacted:
            for listener in self._compaction_listeners:
                listener()

    def add(self, instance: ObjectInstance) -> None:
        """Add a reference record (ValueError on a live duplicate id)."""
        if instance.id in self:
            raise ValueError(
                f"duplicate instance id {instance.id!r} in {self.name}")
        shard = self._shards[partition_layout.shard_for_id(
            instance.id, len(self._shards))]
        gseq = self._seq
        self._seq += 1
        self._after_mutation(shard.add(instance, gseq))

    def update(self, instance: ObjectInstance) -> None:
        """Replace a live record (KeyError when the id is not live)."""
        shard = self._owner(instance.id)
        if shard is None:
            raise KeyError(f"no instance {instance.id!r} in {self.name}")
        gseq = self._seq
        self._seq += 1
        self._after_mutation(shard.update(instance, gseq))

    def delete(self, id: str) -> bool:
        """Remove a live record; returns whether it existed."""
        shard = self._owner(id)
        if shard is None:
            return False
        self._after_mutation(shard.delete(id))
        return True

    # -- lookup --------------------------------------------------------

    def get(self, id: str) -> Optional[ObjectInstance]:
        shard = self._owner(id)
        return None if shard is None else shard.index.get(id)

    def __contains__(self, id: str) -> bool:
        return self._owner(id) is not None

    def __len__(self) -> int:
        return sum(len(shard.gseq) for shard in self._shards)

    def ids(self) -> List[str]:
        """Live ids in global insertion order (the single index's)."""
        return [id for _, id in sorted(
            (gseq, id) for shard in self._shards
            for id, gseq in shard.gseq.items())]

    def instances(self) -> List[ObjectInstance]:
        by_gseq = [(shard.gseq[instance.id], instance)
                   for shard in self._shards
                   for instance in shard.index.instances()]
        by_gseq.sort(key=lambda pair: pair[0])
        return [instance for _, instance in by_gseq]

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
            "Per-shard call time within a scatter-gather round "
            "(seconds).",
            labels={"round": round_name, "shard": shard_id},
        ).observe(seconds)

    def shard_metrics(self) -> List[dict]:
        """Per-shard counters (the registry's collector pull).

        Callers must hold whatever lock serializes matching on this
        cluster: the shards' indexes are not thread-safe.
        """
        return [shard.metrics() for shard in self._shards]

    # -- matching ------------------------------------------------------

    def match_records(self, records: Sequence[ObjectInstance], *,
                      threshold: float,
                      max_candidates: Optional[int] = 50) \
            -> List[Result]:
        """Scatter a query batch to every shard, gather + merge top-k.

        Top-k mode runs two rounds: a ``candidates`` round collecting
        per-shard rankings, then — after the router merges them and
        cuts to the global top-k, which fixes the global kth weight
        bound — a ``score`` round handing each shard only its own
        surviving pairs.  Shards that rank no survivor skip round two
        entirely.  See the module docstring for why the merge is
        bit-identical to the single index on corpus-independent
        similarities.
        """
        records = list(records)
        attribute = self.specs[0].attribute
        results: List[Result] = [[] for _ in records]
        if max_candidates is None:
            for found in self._round(
                    "match", self._shards,
                    lambda shard: shard.index.match_records(
                        records, threshold=threshold,
                        max_candidates=None)):
                for matched, extra in zip(results, found):
                    matched.extend(extra)
        else:
            weights = [self._weight_map(str(record.get(attribute)))
                       if record.get(attribute) is not None else None
                       for record in records]
            rankings = self._round(
                "candidates", self._shards,
                lambda shard: shard.candidates(records, max_candidates,
                                               weights))
            shard_pairs: List[List[Tuple[int, str]]] = [
                [] for _ in self._shards]
            for position in range(len(records)):
                ranked: List[Tuple[float, int, str, int]] = []
                for shard_id, candidates in enumerate(rankings):
                    for id, gseq, weight in candidates[position]:
                        ranked.append((-weight, gseq, id, shard_id))
                ranked.sort()
                for _, _, id, shard_id in ranked[:max_candidates]:
                    shard_pairs[shard_id].append((position, id))
            for triples in self._round(
                    "score",
                    [shard for shard in self._shards
                     if shard_pairs[shard.shard_id]],
                    lambda shard: shard.index.score_pairs(
                        records, shard_pairs[shard.shard_id],
                        threshold=threshold)):
                for position, reference_id, score in triples:
                    results[position].append((reference_id, score))
        for matched in results:
            matched.sort(key=lambda item: (-item[1], item[0]))
        return results

    def _round(self, op: str, shards: Sequence[ShardBackend],
               call: Callable[[ShardBackend], T]) -> List[T]:
        """One scatter-gather round: ``call`` on each shard, in shard
        order.

        Pure observation around the calls: the round runs inside a
        ``cluster.<op>`` span, each call inside a ``shard.<op>`` span
        labelled with its shard, and each call's time feeds the round
        histogram.
        """
        responses = []
        with obs_trace.span(f"cluster.{op}"):
            for shard in shards:
                with obs_trace.span(f"shard.{op}", shard=shard.shard_id):
                    begun = time.perf_counter()
                    responses.append(call(shard))
                self._observe_round(op, shard.shard_id,
                                    time.perf_counter() - begun)
        return responses

    # -- maintenance ---------------------------------------------------

    def on_compact(self, listener: Callable[[], None]) -> None:
        self._compaction_listeners.append(listener)

    def compact(self) -> None:
        """Force every shard to rebuild its packed base."""
        for shard in self._shards:
            shard.index.compact()
        for listener in self._compaction_listeners:
            listener()

    def stats(self) -> dict:
        """Aggregated cluster stats plus per-shard index stats."""
        shard_stats = [shard.index.stats() for shard in self._shards]
        # every numeric key the shards report sums; "tokens" counts the
        # union of the shards' tokens, set below
        totals = {key: sum(stats[key] for stats in shard_stats)
                  for key, value in shard_stats[0].items()
                  if not isinstance(value, dict)}
        totals["pruning"] = {
            key: sum(stats["pruning"][key] for stats in shard_stats)
            for key in shard_stats[0]["pruning"]}
        totals["tokens"] = len(set().union(
            *(shard.index.tokens() for shard in self._shards)))
        totals["shards"] = len(self._shards)
        totals["shard_stats"] = shard_stats
        return totals

    @property
    def compactions(self) -> int:
        return sum(shard.index.compactions for shard in self._shards)

    @property
    def version(self) -> int:
        return sum(shard.index.version for shard in self._shards)

    # -- persistence ---------------------------------------------------

    def checkpoint(self) -> dict:
        """Persist a point-in-time image: shard bases/WALs + manifest.

        The manifest write is the commit point.  A shard's previous
        base and WAL are deleted only after a manifest that no longer
        names them has replaced the old one, so a failure anywhere
        before that leaves the last acknowledged snapshot restorable.
        """
        if self.data_dir is None:
            raise SnapshotUnavailable(
                "cluster has no data dir; configure data_dir to snapshot")
        manifest = {"seq": self._seq,
                    "shards": [shard.checkpoint() for shard in self._shards],
                    "source": self.name}
        partition_layout.write_manifest(self.data_dir, manifest)
        for shard in self._shards:
            shard.store.prune(shard.base_id)
        return manifest

    def close(self) -> None:
        """Sync and close every shard's WAL."""
        for shard in self._shards:
            shard.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterIndex({self.name!r}, {len(self)} records, "
                f"{len(self._shards)} shards)")


def _check_processes(processes: object) -> None:
    if not isinstance(processes, bool):
        raise ValueError(f"processes must be a bool, got {processes!r}")
