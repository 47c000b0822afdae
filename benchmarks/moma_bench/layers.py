"""Per-layer measurements of the serve tier, taken in process.

The traced run replays the requests the HTTP clients sent against the
same public objects the server is built from — ``MatchService``,
``IncrementalIndex``, ``ClusterIndex``, ``WriteAheadLog`` — and times
the calls from outside.  Every figure is a median over the replayed
requests; counters come from the objects' own ``stats()``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Sequence

from common import median

#: match requests replayed in process per figure
REPLAY_REQUESTS = 120
#: the CLI defaults the served index runs with
THRESHOLD = 0.7
MAX_CANDIDATES = 50
#: ingest (and about as many delete) calls timed on the service
INGEST_SAMPLES = 50


def _median_ms(call: Callable[[object], object],
               items: Sequence[object]) -> float:
    seconds = []
    for item in items:
        begun = time.perf_counter()
        call(item)
        seconds.append(time.perf_counter() - begun)
    return median(seconds) * 1000.0


def _source(reference, live: Dict[str, dict]):
    """A logical source holding ``live`` in its insertion order."""
    from repro.model.entity import ObjectInstance
    from repro.model.source import LogicalSource
    source = LogicalSource(reference.physical, reference.object_type)
    for id, attributes in live.items():
        source.add(ObjectInstance(id, attributes))
    return source


def rebuilt_answer(reference, live: Dict[str, dict], records) \
        -> Dict[str, List[list]]:
    """``/v1/match``'s ``matches`` from an index rebuilt over ``live``."""
    from repro.serve import IncrementalIndex
    index = IncrementalIndex(_source(reference, live))
    results = index.match_records(records, threshold=THRESHOLD,
                                  max_candidates=MAX_CANDIDATES)
    return {record.id: [[id, score] for id, score in result]
            for record, result in zip(records, results)}


def service_layer(reference, requests, metrics: Dict[str, float], config,
                  writer=None) -> None:
    """``MatchService`` in process, configured like the served one."""
    from repro.model.entity import ObjectInstance
    from repro.serve import MatchService
    service = MatchService(reference, config=config)
    try:
        in_process = _median_ms(service.match_batch, requests)
        metrics["serve.service.match_batch_ms"] = in_process
        metrics["serve.http.overhead_ms"] = \
            metrics["match_p50_ms"] - in_process
        if writer is None:
            return
        ingests, deletes = [], []
        while len(ingests) < INGEST_SAMPLES:
            mutation = writer.next_mutation()
            if mutation is None:
                continue
            kind, _, payload = mutation
            begun = time.perf_counter()
            if kind == "ingest":
                service.ingest(ObjectInstance(record["id"],
                                              record["attributes"])
                               for record in payload["records"])
                ingests.append(time.perf_counter() - begun)
            else:
                for id in payload["ids"]:
                    service.delete(id)
                deletes.append(time.perf_counter() - begun)
            writer.acknowledge(kind, payload)
        metrics["serve.service.ingest_ms"] = median(ingests) * 1000.0
        metrics["serve.service.delete_ms"] = median(deletes) * 1000.0
    finally:
        service.close()


def index_read_layer(reference, requests, metrics: Dict[str, float]) -> None:
    """Candidate generation, scoring and pruning on the bare index."""
    from repro.serve import IncrementalIndex

    def titles(records):
        return [str(record.get("title")) for record in records
                if record.get("title") is not None]

    index = IncrementalIndex(reference)
    metrics["serve.index.candidates_ms"] = _median_ms(
        lambda records: [index.ranked_candidates(title, MAX_CANDIDATES)
                         for title in titles(records)], requests)
    pairs = [[(position, id) for position, record in enumerate(records)
              if record.get("title") is not None
              for id in index.candidate_ids(str(record.get("title")),
                                            MAX_CANDIDATES)]
             for records in requests]
    metrics["serve.index.score_ms"] = _median_ms(
        lambda item: index.score_pairs(item[0], item[1],
                                       threshold=THRESHOLD),
        list(zip(requests, pairs)))

    # one client, fresh index per mode: the counters repeat exactly
    for mode, key in (("auto", "match_records"), ("never", "match_never"),
                      ("always", "match_always")):
        index = IncrementalIndex(reference, pruning=mode)
        metrics[f"serve.index.{key}_ms"] = _median_ms(
            lambda records: index.match_records(
                records, threshold=THRESHOLD,
                max_candidates=MAX_CANDIDATES), requests)
        if mode == "auto":
            pruning = index.stats()["pruning"]
    queries = pruning["queries"] or 1
    postings = (pruning["postings_touched"] + pruning["postings_skipped"]) or 1
    metrics["serve.index.pruned_query_share"] = \
        pruning["pruned_queries"] / queries
    metrics["serve.index.postings_touched_per_query"] = \
        pruning["postings_touched"] / queries
    metrics["serve.index.postings_skipped_share"] = \
        pruning["postings_skipped"] / postings


def index_write_layer(reference, frames: List[dict],
                      metrics: Dict[str, float]) -> None:
    """Replay the writer's own mutations on a bare index, timing each."""
    from repro.model.entity import ObjectInstance
    from repro.serve import IncrementalIndex
    index = IncrementalIndex(reference)
    seconds: Dict[str, List[float]] = {"add": [], "update": [], "delete": []}
    for frame in frames:
        if frame["op"] == "delete":
            begun = time.perf_counter()
            index.delete(frame["id"])
        else:
            instance = ObjectInstance(frame["id"], frame["attributes"])
            begun = time.perf_counter()
            getattr(index, frame["op"])(instance)
        seconds[frame["op"]].append(time.perf_counter() - begun)
    for op, values in seconds.items():
        metrics[f"serve.index.{op}_us"] = median(values) * 1e6
    begun = time.perf_counter()
    index.compact()
    metrics["serve.index.compact_ms"] = \
        (time.perf_counter() - begun) * 1000.0


def cluster_layer(reference, requests, metrics: Dict[str, float],
                  scratch: str) -> None:
    """Scatter-gather cost by topology, checkpoint and restore."""
    from repro.serve import ClusterIndex
    from repro.serve.index import resolve_specs
    specs = resolve_specs("title", "trigram", None)

    def match_ms(**topology) -> float:
        cluster = ClusterIndex.build(reference, specs=specs, **topology)
        try:
            return _median_ms(
                lambda records: cluster.match_records(
                    records, threshold=THRESHOLD,
                    max_candidates=MAX_CANDIDATES), requests)
        finally:
            cluster.close()

    metrics["serve.cluster.match_1shard_ms"] = match_ms(shards=1)
    metrics["serve.cluster.match_2shard_ms"] = match_ms(shards=2)
    metrics["serve.cluster.match_2thread_ms"] = \
        match_ms(shards=2, processes=False)
    # base: the single in-heap index on the same requests
    metrics["serve.cluster.tax_1shard"] = (
        metrics["serve.cluster.match_1shard_ms"]
        / metrics["serve.index.match_records_ms"])

    data_dir = os.path.join(scratch, "cluster")
    cluster = ClusterIndex.build(reference, specs=specs, shards=2,
                                 data_dir=data_dir)
    try:
        metrics["serve.cluster.checkpoint_ms"] = _median_ms(
            lambda _: cluster.checkpoint(), range(5))
    finally:
        cluster.close()
    restores = []
    for _ in range(3):
        begun = time.perf_counter()
        restored = ClusterIndex.restore(data_dir)
        restores.append(time.perf_counter() - begun)
        restored.close()
    metrics["serve.cluster.restore_ms"] = median(restores) * 1000.0


def wal_layer(frames: List[dict], metrics: Dict[str, float],
              scratch: str) -> None:
    """Append, sync and replay the run's own mutation frames."""
    from repro.serve.wal import WriteAheadLog
    if not frames:
        return
    path = os.path.join(scratch, "bench.wal")
    log = WriteAheadLog(path)
    try:
        metrics["serve.wal.append_us"] = \
            _median_ms(log.append, frames) * 1000.0
        begun = time.perf_counter()
        log.sync()
        metrics["serve.wal.sync_ms"] = (time.perf_counter() - begun) * 1000.0
        begun = time.perf_counter()
        replayed = log.replay()
        metrics["serve.wal.replay_ms"] = \
            (time.perf_counter() - begun) * 1000.0
        assert len(replayed) == len(frames)
        metrics["serve.wal.bytes_per_record"] = \
            os.path.getsize(path) / len(frames)
    finally:
        log.close()


def obs_layer(reference, requests, metrics: Dict[str, float]) -> None:
    """What turning the observability subsystem on costs in process."""
    from repro.obs import trace as obs_trace
    from repro.serve import MatchService, ServeConfig
    plain = MatchService(reference, config=ServeConfig(cache_size=0))
    observed = MatchService(reference, config=ServeConfig(
        cache_size=0, metrics=True, trace_sample_rate=1.0))

    def traced_match(records) -> None:
        # what the HTTP handler wraps around every request
        context = observed.tracer.begin("moma-bench")
        with obs_trace.activate(context), obs_trace.span("http.post"):
            observed.match_batch(records)
        observed.tracer.finish(context)

    # base: the same requests with metrics off
    metrics["obs.on_off_ratio"] = (
        _median_ms(traced_match, requests)
        / _median_ms(plain.match_batch, requests))
