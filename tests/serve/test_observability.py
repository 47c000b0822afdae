"""Observability is a pure observer: identical results, rich signals.

Three contracts from docs/observability.md are pinned here:

1. **Bit-identity** — a service with ``metrics=True`` and
   ``trace_sample_rate=1.0`` answers byte-for-byte what the same
   service answers with observability off, for the single in-heap
   index and for the durable index over a data dir.
2. **Trace propagation** — a trace begun at the boundary collects
   spans from the service's kernel call.
3. **Exposition** — ``/v1/metrics`` serves parseable Prometheus text
   covering the service, index and WAL counters, and every response
   carries a correlatable ``X-Request-Id``.
"""

import http.client
import io
import json
import random
import threading
import time

import pytest

from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.obs import trace as obs_trace
from repro.serve import IncrementalIndex, MatchService, ServeConfig
from repro.serve.http import build_server
from repro.serve.service import SERVICE_COUNTERS

WORDS = ["adaptive", "stream", "schema", "query", "index", "cache",
         "graph", "join", "view", "cube", "match", "entity", "fusion"]


def _title(rng):
    return " ".join(rng.choice(WORDS) for _ in range(4))


def _reference(n=24, seed=11):
    rng = random.Random(seed)
    source = LogicalSource(PhysicalSource("DBLP"), ObjectType("Publication"))
    for i in range(n):
        source.add_record(f"p{i}", title=f"{_title(rng)} {i}")
    return source


def _queries(seed=3, count=5):
    rng = random.Random(seed)
    return [ObjectInstance(f"q{i}", {"title": _title(rng)})
            for i in range(count)]


def _service(observed, **overrides):
    config = ServeConfig(attribute="title", threshold=0.2,
                         metrics=observed,
                         trace_sample_rate=1.0 if observed else 0.0,
                         **overrides)
    return MatchService(_reference(), config=config)


def _transcript(service):
    """One mutation-heavy conversation; returns every answer."""
    answers = [service.match_record(record) for record in _queries()]
    answers.append(service.match_batch(_queries(seed=5)).to_rows())
    service.ingest([ObjectInstance("n1", {"title": "entity fusion view"}),
                    ObjectInstance("n2", {"title": "graph join cache"})])
    answers.append(service.delete("p3"))
    answers.append(service.match_batch(_queries(seed=7)).to_rows())
    answers.append([service.match_record(record)
                    for record in _queries(seed=9)])
    return answers


class TestBitIdentity:
    def _assert_equivalent(self, data_dirs=(None, None)):
        plain = _service(False, data_dir=data_dirs[0])
        observed = _service(True, data_dir=data_dirs[1])
        try:
            assert _transcript(observed) == _transcript(plain)
            # the observed run really did record something
            assert "repro_service_queries_total" in observed.metrics.render()
        finally:
            plain.close()
            observed.close()

    def test_single_index(self):
        self._assert_equivalent()

    def test_durable_index(self, tmp_path):
        self._assert_equivalent((str(tmp_path / "plain"),
                                 str(tmp_path / "observed")))


class TestTracePropagation:
    def test_spans_cover_the_kernel_call(self, tmp_path):
        service = _service(True, data_dir=str(tmp_path))
        try:
            context = service.tracer.begin("t-durable")
            assert context is not None
            with obs_trace.activate(context):
                service.match_record(_queries(count=1)[0])
            service.tracer.finish(context)
            (span,) = context.spans
            assert span["name"] == "service.batch"
            assert span["trace_id"] == "t-durable"
            assert span["duration"] >= 0.0
            assert service.tracer.recent()[-1]["trace_id"] == "t-durable"
        finally:
            service.close()

    def test_untraced_requests_produce_no_spans(self, tmp_path):
        service = _service(True, data_dir=str(tmp_path))
        try:
            service.config.trace_sample_rate = 0.0
            service.match_record(_queries(count=1)[0])
            assert obs_trace.current_trace() is None
        finally:
            service.close()


class TestMetricsContent:
    def test_index_and_wal_counters_are_exposed(self, tmp_path):
        service = _service(True, data_dir=str(tmp_path))
        try:
            _transcript(service)
            service.snapshot()
            text = service.metrics.render()
            assert "shard=" not in text
            assert "\nrepro_index_pruning_queries_total " in text
            assert "\nrepro_wal_syncs_total " in text
            assert "repro_service_cache_hits_total" in text
            assert "repro_service_cache_misses_total" in text
            assert "repro_service_batch_size_bucket" in text
        finally:
            service.close()

    def test_single_index_counters_track_sources(self):
        service = _service(True)
        try:
            _transcript(service)
            summary = service.metrics.summary()
            assert summary["repro_service_queries_total"] \
                == service.queries
            # one scoring call is one match-latency observation
            assert summary["repro_service_match_seconds"]["count"] \
                == summary["repro_service_batches_total"] \
                == service.batches > 0
            assert summary["repro_index_pruning_queries_total"] \
                == service.index.candidate_counters()["queries"]
        finally:
            service.close()

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["single-index", "durable-index"])
    def test_every_stats_counter_equals_its_metrics_sample(self, tmp_path,
                                                           durable):
        """One counter, one definition: what /v1/stats reports is what
        /v1/metrics samples, for every row of the service's counter
        table and every pruning counter the backend reports."""
        service = _service(True,
                           data_dir=str(tmp_path) if durable else None)
        try:
            _transcript(service)
            service.match_batch(_queries(seed=9))   # repeats: cache hits
            stats = service.stats()
            summary = service.metrics.summary()
            for attribute, metric, _ in SERVICE_COUNTERS:
                reported = (stats["cache"] if attribute in stats["cache"]
                            else stats)[attribute]
                assert reported == summary[metric], metric
                # no repository attached: nothing persists
                assert (reported > 0) == (attribute != "persisted"), metric
            pruning = stats["index"]["pruning"]
            assert set(pruning) == set(
                IncrementalIndex(_reference()).stats()["pruning"])
            for key, reported in pruning.items():
                prefix = f"repro_index_pruning_{key}_total"
                samples = [value for name, value in summary.items()
                           if name == prefix or name.startswith(prefix + "{")]
                assert samples == [reported], key
        finally:
            service.close()

    def test_stats_snapshot_stays_timing_free(self):
        # restore-equality depends on stats() never carrying clocks
        service = _service(True)
        try:
            _transcript(service)
            assert "match_seconds" not in service.stats()["index"]
            assert "trace" in service.stats()
        finally:
            service.close()


@pytest.fixture
def observed_server():
    service = _service(True)
    service.config.slow_query_ms = 1e-9   # everything is "slow"
    service.logger.stream = io.StringIO()
    server = build_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def _raw_request(server, method, path, body=None, headers=()):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        connection.request(method, path, body=payload,
                           headers={"Content-Type": "application/json",
                                    **dict(headers)})
        response = connection.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        parsed = (json.loads(raw)
                  if content_type.startswith("application/json") and raw
                  else raw.decode())
        return response.status, dict(response.getheaders()), parsed
    finally:
        connection.close()


class TestHttpExposition:
    def test_metrics_round_trip(self, observed_server):
        server, _ = observed_server
        _raw_request(server, "POST", "/v1/match", body={
            "records": [{"id": "q1",
                         "attributes": {"title": "schema match query"}}]})
        # request metrics commit just after the response bytes leave,
        # so a back-to-back scrape can race them: poll briefly
        deadline = time.monotonic() + 5.0
        while True:
            status, headers, text = _raw_request(server, "GET",
                                                 "/v1/metrics")
            if ("repro_http_requests_total" in text
                    or time.monotonic() > deadline):
                break
        assert status == 200
        assert headers["Content-Type"] \
            == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_service_queries_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'repro_http_requests_total{method="POST",path="/v1/match"} 1' \
            in text
        for line in text.splitlines():   # every sample line parses
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            if value != "+Inf":
                float(value)

    def test_metrics_404_when_disabled(self):
        service = _service(False)
        server = build_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, _, parsed = _raw_request(server, "GET", "/v1/metrics")
            assert status == 404
            assert parsed["error"]["code"] == "not_found"
            assert parsed["error"]["request_id"].startswith("req-")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_request_id_echoed_and_minted(self, observed_server):
        server, _ = observed_server
        _, headers, _ = _raw_request(server, "GET", "/v1/healthz",
                                     headers=[("X-Request-Id", "mine-42")])
        assert headers["X-Request-Id"] == "mine-42"
        _, headers, _ = _raw_request(server, "GET", "/v1/healthz")
        assert headers["X-Request-Id"].startswith("req-")

    def test_error_envelope_carries_request_id(self, observed_server):
        server, _ = observed_server
        status, headers, parsed = _raw_request(
            server, "POST", "/v1/match", body={"records": "nope"},
            headers=[("X-Request-Id", "bad-1")])
        assert status == 400
        assert headers["X-Request-Id"] == "bad-1"
        assert parsed["error"]["request_id"] == "bad-1"

    def test_stats_exposes_trace_summary(self, observed_server):
        server, _ = observed_server
        _raw_request(server, "POST", "/v1/match", body={
            "records": [{"id": "q1",
                         "attributes": {"title": "graph join cache"}}]},
            headers=[("X-Request-Id", "traced-1")])
        # finished traces land in the ring just after the response
        # bytes leave; poll the same way the scrape test does
        deadline = time.monotonic() + 5.0
        while True:
            _, _, stats = _raw_request(server, "GET", "/v1/stats")
            trace = stats["trace"]
            traced = {entry["trace_id"] for entry in trace["recent"]}
            if "traced-1" in traced or time.monotonic() > deadline:
                break
        assert trace["sample_rate"] == 1.0
        assert trace["requests"] >= 1
        assert trace["sampled"] >= 1
        assert "traced-1" in traced

    def test_access_and_slow_query_logs(self, observed_server):
        server, service = observed_server
        _raw_request(server, "POST", "/v1/match", body={
            "records": [{"id": "q1",
                         "attributes": {"title": "entity fusion view"}}]},
            headers=[("X-Request-Id", "logged-1")])
        events = [json.loads(line)
                  for line in service.logger.stream.getvalue().splitlines()]
        slow = [event for event in events if event["event"] == "slow_query"]
        assert slow and slow[0]["level"] == "warning"
        assert slow[0]["trace_id"] == "logged-1"
        access = [event for event in events
                  if event["event"] == "http_access"]
        assert access and access[0]["request_id"] == "logged-1"
        assert "POST /v1/match" in access[0]["line"]
