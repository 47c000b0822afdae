"""The two serve workloads: a real ``repro serve`` process under closed-
loop HTTP load.

``serve-read`` is read-only against the single in-heap index with the
reuse cache off; ``serve-cluster-mixed`` runs two shard workers with a
data dir and the default cache while one client also ingests, deletes
and snapshots, then kills the server group and times warm restarts.

The loop is closed — a mediator doing query-time matching waits for
each answer before it sends the next page — with two clients, each on
one persistent ``http.client`` connection with default socket options.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import layers
from common import (OUT_DIR, Outcome, digest, load_expected, median,
                    percentile)
from reference import Reference
from tracer import Tracer

CLIENTS = 2
PAGE = 16                 # query records per /v1/match request
SNAPSHOT_EVERY_S = 5.0
PROBE_RECORDS = 64
ZIPF_EXPONENT = 1.1
SETUP_SAMPLES = 3
ORACLE_EVERY = 20         # every 20th answer is re-derived in process
EXPECTED_ANSWERS = 64     # answers digested under expected/


def record_payload(record) -> dict:
    return {"id": record.id, "attributes": dict(record.attributes)}


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------

def _session_members(session: int) -> List[int]:
    """Live (non-zombie) pids whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
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


class Server:
    """One ``repro serve`` subprocess, leader of its own session."""

    def __init__(self, scale: str, seed: int, arguments: Sequence[str]) -> None:
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "--scale", scale,
             "--seed", str(seed), "serve", "--port", "0", *arguments],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.session = self.process.pid
        self.port = 0
        self.banner = ""
        self.killed = False

    def wait_ready(self) -> float:
        """Seconds from spawn to the server's ``serving ...`` line."""
        for line in self.process.stdout:
            if line.startswith("serving "):
                self.banner = line.strip()
                self.port = int(line.rsplit(":", 1)[1])
                return time.perf_counter() - self.spawned
        raise RuntimeError(
            f"repro serve exited with {self.process.wait()} before serving")

    def members(self) -> List[int]:
        return _session_members(self.session)

    def kill(self) -> None:
        """SIGKILL the whole group (router and shard workers)."""
        if self.killed:
            return
        self.killed = True
        try:
            os.killpg(self.session, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()


class Fleet:
    """Every server a run starts; nothing may outlive :meth:`close`."""

    def __init__(self, scale: str, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.servers: List[Server] = []

    def spawn(self, arguments: Sequence[str]) -> Server:
        server = Server(self.scale, self.seed, arguments)
        self.servers.append(server)
        return server

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for server in self.servers:
            server.kill()

    def survivors(self) -> List[int]:
        """Pids still alive in any started session, after a grace wait."""
        deadline = time.perf_counter() + 2.0
        while True:
            alive = [pid for server in self.servers
                     for pid in server.members()]
            if not alive or time.perf_counter() > deadline:
                return alive
            time.sleep(0.05)


def measure_setup(fleet: Fleet, arguments: Sequence[str],
                  data_dir: Optional[str]) -> Tuple[Server, float]:
    """Cold-start the server several times; keep the last one running.

    Every sample is a spawn into an empty data dir, so it never takes
    the warm-restore path ``restart_s`` measures.  A cold start is
    CPU-bound (imports, dataset, index), so it is reported at
    reference speed like the batch timings.
    """
    reference = Reference(runs=2)
    spans = []
    server = None
    for _ in range(SETUP_SAMPLES):
        if server is not None:
            server.kill()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
        reference.tick(force=True)
        server = fleet.spawn(arguments)
        spans.append((server.spawned, server.spawned + server.wait_ready()))
    reference.tick(force=True)
    return server, median([reference.at_reference(*span) for span in spans])


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------

class Sample(NamedTuple):
    kind: str
    seconds: float
    sent: int
    received: int
    traced: bool
    json_seconds: float


class Connection:
    """One persistent keep-alive connection with failure accounting."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, payload: Optional[dict],
             tracer: Optional[Tracer] = None) \
            -> Tuple[Optional[dict], float, int, int, float]:
        """``(response or None on failure, seconds, sent, received,
        client-side JSON seconds)``."""
        span = tracer.span if tracer is not None else _no_span
        begun_json = time.perf_counter()
        with span("client.dumps"):
            body = (json.dumps(payload).encode("utf-8")
                    if payload is not None else b"")
        json_seconds = time.perf_counter() - begun_json
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60)
        begun = time.perf_counter()
        try:
            with span("http.roundtrip"):
                self._conn.request(
                    "POST", path, body=body,
                    headers={"Content-Type": "application/json"})
                response = self._conn.getresponse()
                raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, 0.0, len(body), 0, json_seconds
        seconds = time.perf_counter() - begun
        begun_json = time.perf_counter()
        with span("client.loads"):
            try:
                parsed = json.loads(raw)
            except ValueError:
                parsed = None
        json_seconds += time.perf_counter() - begun_json
        if response.status != 200 or not isinstance(parsed, dict):
            return None, seconds, len(body), len(raw), json_seconds
        return parsed, seconds, len(body), len(raw), json_seconds

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _no_span(name: str):
    return nullcontext()


class Reader:
    """Plans ``/v1/match`` pages: round-robin or Zipf over the pool."""

    def __init__(self, pool: List[object], client: int, seed: int,
                 zipf: bool) -> None:
        self.pool = pool
        self.cursor = client * PAGE
        self.zipf = zipf
        self.rng = random.Random(seed * 1000 + client)
        if zipf:
            total = 0.0
            self.cumulative = []
            for rank in range(1, len(pool) + 1):
                total += 1.0 / rank ** ZIPF_EXPONENT
                self.cumulative.append(total)

    def page(self) -> List[object]:
        if self.zipf:
            # a page holds distinct records: the server answers per id
            chosen: Dict[str, object] = {}
            while len(chosen) < PAGE:
                record = self.rng.choices(
                    self.pool, cum_weights=self.cumulative)[0]
                chosen[record.id] = record
            return list(chosen.values())
        page = [self.pool[(self.cursor + offset) % len(self.pool)]
                for offset in range(PAGE)]
        self.cursor += CLIENTS * PAGE
        return page


class Writer:
    """The single writer's mutation plan and its mirror of the live set.

    Two of every five requests mutate, alternating an ingest (two new
    records with fresh ids plus two updates of live records) and a
    delete of two live ids.  ``live`` mirrors acknowledged mutations
    in the index's insertion order (an update re-inserts at the end).
    """

    def __init__(self, reference, donors: List[object], seed: int) -> None:
        self.live: Dict[str, dict] = {
            record.id: dict(record.attributes) for record in reference}
        self.donors = donors
        self.rng = random.Random(seed * 1000 + 999)
        self.step = 0
        self.fresh = 0
        self.donor = 0
        self.frames: List[dict] = []

    def _donor_attributes(self) -> dict:
        attributes = dict(self.donors[self.donor % len(self.donors)]
                          .attributes)
        self.donor += 1
        return attributes

    def next_mutation(self) -> Optional[Tuple[str, str, dict]]:
        """``(kind, path, payload)`` when this step mutates."""
        slot = self.step % 10
        self.step += 1
        if slot in (1, 6):
            records = []
            for _ in range(2):
                records.append({"id": f"bench:{self.fresh}",
                                "attributes": self._donor_attributes()})
                self.fresh += 1
            for id in self.rng.sample(list(self.live), 2):
                records.append({"id": id,
                                "attributes": self._donor_attributes()})
            return "ingest", "/v1/ingest", {"records": records}
        if slot in (3, 8):
            return "delete", "/v1/delete", {
                "ids": self.rng.sample(list(self.live), 2)}
        return None

    def acknowledge(self, kind: str, payload: dict) -> None:
        """Apply one acknowledged mutation to the mirror."""
        if kind == "ingest":
            for record in payload["records"]:
                op = "update" if record["id"] in self.live else "add"
                self.live.pop(record["id"], None)
                self.live[record["id"]] = record["attributes"]
                self.frames.append({"op": op, "id": record["id"],
                                    "attributes": record["attributes"],
                                    "gseq": len(self.frames)})
        else:
            for id in payload["ids"]:
                del self.live[id]
                self.frames.append({"op": "delete", "id": id})


class LoadClient(threading.Thread):
    """One closed-loop client; client 0 is the writer when given one."""

    def __init__(self, port: int, reader: Reader, deadline: float, *,
                 writer: Optional[Writer] = None,
                 tracer: Optional[Tracer] = None,
                 trace_after: float = 0.0) -> None:
        super().__init__(daemon=True)
        self.connection = Connection(port)
        self.reader = reader
        self.writer = writer
        self.deadline = deadline
        self.tracer = tracer
        self.trace_after = trace_after
        self.samples: List[Sample] = []
        #: ``(query records, response)`` of every answered match request
        self.answers: List[Tuple[List[object], dict]] = []
        self.failures = 0
        self.error: Optional[BaseException] = None

    def _request(self, kind: str, path: str, payload: Optional[dict]) \
            -> Optional[dict]:
        traced = (self.tracer is not None
                  and time.perf_counter() >= self.trace_after)
        tracer = self.tracer if traced else None
        span = tracer.span(f"http.{kind}") if traced else nullcontext()
        with span:
            response, seconds, sent, received, json_seconds = \
                self.connection.post(path, payload, tracer)
        if response is None:
            self.failures += 1
            return None
        self.samples.append(Sample(kind, seconds, sent, received, traced,
                                   json_seconds))
        return response

    def run(self) -> None:
        try:
            next_snapshot = time.perf_counter() + SNAPSHOT_EVERY_S
            while time.perf_counter() < self.deadline:
                if self.writer is not None:
                    if time.perf_counter() >= next_snapshot:
                        self._request("snapshot", "/v1/snapshot", None)
                        next_snapshot += SNAPSHOT_EVERY_S
                    mutation = self.writer.next_mutation()
                    if mutation is not None:
                        kind, path, payload = mutation
                        response = self._request(kind, path, payload)
                        if response is not None:
                            self.writer.acknowledge(kind, payload)
                            wanted = ({"added": 2, "updated": 2}
                                      if kind == "ingest" else
                                      {"deleted": payload["ids"],
                                       "missing": []})
                            if response != wanted:
                                self.failures += 1
                        continue
                page = self.reader.page()
                response = self._request("match", "/v1/match", {
                    "records": [record_payload(record) for record in page]})
                if response is not None:
                    self.answers.append((page, response))
        except BaseException as error:  # surfaced by run_load
            self.error = error
        finally:
            self.connection.close()


def run_load(port: int, pool: List[object], seed: int, seconds: float,
             *, zipf: bool, writer: Optional[Writer],
             tracer: Optional[Tracer]) -> Tuple[List[LoadClient], float]:
    begun = time.perf_counter()
    clients = [
        LoadClient(port, Reader(pool, number, seed, zipf), begun + seconds,
                   writer=writer if number == 0 else None,
                   tracer=tracer, trace_after=begun + seconds / 2)
        for number in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    elapsed = time.perf_counter() - begun
    for client in clients:
        if client.error is not None:
            raise client.error
    return clients, elapsed


# ----------------------------------------------------------------------
# metrics and oracles shared by both workloads
# ----------------------------------------------------------------------

def _seconds(clients: List[LoadClient], *kinds: str,
             traced: Optional[bool] = None) -> List[float]:
    return [sample.seconds for client in clients for sample in client.samples
            if sample.kind in kinds
            and (traced is None or sample.traced == traced)]


def _load_metrics(clients: List[LoadClient], elapsed: float, gold,
                  outcome: Outcome) -> None:
    metrics = outcome.metrics
    matches = _seconds(clients, "match")
    answered = sum(len(page) for client in clients
                   for page, _ in client.answers)
    # quality over distinct query records (latest answer each): a hot
    # Zipf head asked hundreds of times must not decide the F1 alone
    latest: Dict[str, list] = {}
    for client in clients:
        for page, response in client.answers:
            for record in page:
                latest[record.id] = response["matches"].get(record.id, [])
    from repro.eval.metrics import evaluate_pairs
    quality = evaluate_pairs(
        {(query, reference_id) for query, matches in latest.items()
         for reference_id, _ in matches},
        {(query, reference_id) for query in latest
         for reference_id in gold.range_ids_of(query)})
    metrics.update({
        "match_p50_ms": median(matches) * 1000.0,
        "match_tail_ms": percentile(matches, 0.95) * 1000.0,
        "match_records_per_s": answered / elapsed,
        "quality_f1": quality.f1,
    })
    for client in clients:
        for _ in range(client.failures):
            outcome.fail("HTTP request failed or was refused")
        outcome.attempted += len(client.samples)
    outcome.note(
        f"{len(matches)} match requests answered "
        f"(per client: {[len(client.answers) for client in clients]}), "
        f"{answered} query records, {len(latest)} distinct; match latency "
        f"p90/p95/p99 = " + "/".join(
            f"{percentile(matches, q) * 1000.0:.1f}"
            for q in (0.90, 0.95, 0.99)) + " ms")


def _http_layer(clients: List[LoadClient], outcome: Outcome) -> None:
    metrics = outcome.metrics
    samples = [sample for client in clients for sample in client.samples
               if sample.kind == "match"]
    metrics["serve.http.json_ms"] = median(
        [sample.json_seconds for sample in samples]) * 1000.0
    metrics["serve.http.request_bytes"] = median(
        [sample.sent for sample in samples])
    metrics["serve.http.response_bytes"] = median(
        [sample.received for sample in samples])
    untraced = _seconds(clients, "match", traced=False)
    traced = _seconds(clients, "match", traced=True)
    metrics["trace.overhead_ratio"] = (
        median(traced) / median(untraced) if traced and untraced else 0.0)


def _served_layers(clients: List[LoadClient], stats: dict,
                   outcome: Outcome) -> List[List[object]]:
    """HTTP figures and the server's own counters; returns the pages
    to replay in process."""
    _http_layer(clients, outcome)
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    outcome.metrics["serve.service.cache_hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0)
    outcome.metrics["serve.index.compactions"] = stats["index"]["compactions"]
    return [page for client in clients
            for page, _ in client.answers][:layers.REPLAY_REQUESTS]


def _get_stats(port: int) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", "/v1/stats")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _rows(mapping_rows) -> List[list]:
    return [[a, b, score] for a, b, score in mapping_rows]


def _dataset(scale: str, seed: int):
    from repro.datagen import build_dataset
    return build_dataset(scale, seed=seed)


def _shuffled_pool(dataset, seed: int) -> List[object]:
    pool = list(dataset.gs.publications)
    random.Random(seed).shuffle(pool)
    return pool


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------

def run_read(seed: int, seconds: float, trace: bool, smoke: bool,
             outcome: Outcome, tracer: Tracer) -> None:
    scale = "tiny" if smoke else "paper"
    arguments = ["--cache-size", "0"]
    with Fleet(scale, seed) as fleet:
        server, setup_s = measure_setup(fleet, arguments, None)
        dataset = _dataset(scale, seed)
        reference = dataset.dblp.publications
        pool = _shuffled_pool(dataset, seed)
        gold = dataset.gold.get("publications", dataset.gs.publications.name,
                                reference.name)
        clients, elapsed = run_load(
            server.port, pool, seed, seconds * (0.5 if trace else 1.0),
            zipf=False, writer=None,
            tracer=tracer if trace else None)
        stats = _get_stats(server.port)
    _check_survivors(fleet, outcome)

    outcome.metrics["setup_s"] = setup_s
    _load_metrics(clients, elapsed, gold, outcome)

    # -- correctness, outside the timed phase --------------------------
    from repro.serve import MatchService, ServeConfig
    service = MatchService(reference, config=ServeConfig(cache_size=0))
    for client in clients:
        for page, response in client.answers[::ORACLE_EVERY]:
            rows = _rows(service.match_batch(page).to_rows())
            outcome.check(response["correspondences"] == rows,
                          "served answer differs from in-process match_batch")
    stream = [digest(response["correspondences"])
              for _, response in clients[0].answers[:EXPECTED_ANSWERS]]
    outcome.observed = {"answers": stream}
    expected = load_expected(seed, smoke)
    if expected is not None:
        want = expected["serve-read"]["answers"]
        outcome.check(stream[:len(want)] == want[:len(stream)],
                      "answer stream differs from expected/")

    if trace:
        requests = _served_layers(clients, stats, outcome)
        layers.service_layer(reference, requests, outcome.metrics,
                             ServeConfig(cache_size=0))
        layers.index_read_layer(reference, requests, outcome.metrics)
        layers.obs_layer(reference, requests, outcome.metrics)


def _check_survivors(fleet: Fleet, outcome: Outcome) -> None:
    survivors = fleet.survivors()
    outcome.check(not survivors,
                  f"repro serve processes survived the run: {survivors}")


# ----------------------------------------------------------------------
# serve-cluster-mixed
# ----------------------------------------------------------------------

def _probe(port: int, records: List[object]) -> Optional[dict]:
    connection = Connection(port)
    try:
        response = connection.post("/v1/match", {
            "records": [record_payload(record) for record in records]})[0]
    finally:
        connection.close()
    return None if response is None else response["matches"]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def run_cluster_mixed(seed: int, seconds: float, trace: bool, smoke: bool,
                      outcome: Outcome, tracer: Tracer) -> None:
    scale = "tiny" if smoke else "paper"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="moma-", dir=OUT_DIR)
    data_dir = os.path.join(scratch, "data")
    # the default compaction trigger (dead rows > 25 % of live) is never
    # reached in a run this short; 5 % gives each shard a few cycles
    arguments = ["--shards", "2", "--data-dir", data_dir,
                 "--compact-ratio", "0.05", "--compact-min", "32"]
    metrics = outcome.metrics
    restarts = 3 if trace else 1
    try:
        with Fleet(scale, seed) as fleet:
            server, setup_s = measure_setup(fleet, arguments, data_dir)
            dataset = _dataset(scale, seed)
            reference = dataset.dblp.publications
            pool = _shuffled_pool(dataset, seed)
            gold = dataset.gold.get(
                "publications", dataset.gs.publications.name, reference.name)
            writer = Writer(reference, list(dataset.acm.publications), seed)
            clients, elapsed = run_load(
                server.port, pool, seed, seconds * (0.5 if trace else 1.0),
                zipf=True, writer=writer,
                tracer=tracer if trace else None)
            stats = _get_stats(server.port)

            # last acknowledged snapshot, then the probe it must reproduce
            connection = Connection(server.port)
            snapshot = connection.post("/v1/snapshot", None)[0]
            connection.close()
            outcome.check(snapshot is not None, "final snapshot failed")
            probe_records = pool[:PROBE_RECORDS]
            probe = _probe(server.port, probe_records)
            outcome.check(probe is not None, "probe request failed")
            metrics["serve.partition.base_bytes_per_record"] = \
                _dir_bytes(data_dir) / len(writer.live)

            restart_seconds = []
            for _ in range(restarts):
                killed = time.perf_counter()
                server.kill()
                server = fleet.spawn(arguments)
                server.wait_ready()
                answer = _probe(server.port, probe_records)
                restart_seconds.append(time.perf_counter() - killed)
                outcome.check("restored from" in server.banner,
                              "restart did not restore from the data dir")
                outcome.check(answer == probe,
                              "post-restart probe differs from the snapshot's")
            if trace:
                # what a SIGKILL of the router alone leaves behind
                os.kill(server.process.pid, signal.SIGKILL)
                server.process.wait()
                time.sleep(1.0)
                metrics["serve.cluster.orphan_shards"] = len(server.members())
        _check_survivors(fleet, outcome)

        metrics["setup_s"] = setup_s
        _load_metrics(clients, elapsed, gold, outcome)
        mutations = _seconds(clients, "ingest", "delete")
        snapshots = _seconds(clients, "snapshot")
        metrics.update({
            "mutate_p50_ms": median(mutations) * 1000.0,
            "mutate_p95_ms": percentile(mutations, 0.95) * 1000.0,
            "snapshot_ms": median(snapshots) * 1000.0,
            "restart_s": median(restart_seconds),
        })
        outcome.note(f"{len(mutations)} mutation requests, "
                     f"{len(snapshots)} periodic snapshots, "
                     f"{len(restart_seconds)} restarts, "
                     f"{len(writer.live)} live records at the end")

        # -- correctness, outside the timed phases ---------------------
        # the final probe against an index rebuilt from the writer's
        # final live set, in the served index's insertion order
        if probe is not None:
            outcome.check(
                layers.rebuilt_answer(reference, writer.live,
                                      probe_records) == probe,
                "final probe differs from an index rebuilt from the "
                "writer's live set")

        if trace:
            from repro.serve import ServeConfig
            requests = _served_layers(clients, stats, outcome)
            layers.service_layer(
                reference, requests, metrics,
                ServeConfig(shards=2, data_dir=os.path.join(scratch, "svc")),
                writer=Writer(reference, list(dataset.acm.publications),
                              seed))
            layers.index_read_layer(reference, requests, metrics)
            layers.index_write_layer(reference, writer.frames, metrics)
            layers.cluster_layer(reference, requests, metrics, scratch)
            layers.wal_layer(writer.frames, metrics, scratch)
            layers.obs_layer(reference, requests, metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
