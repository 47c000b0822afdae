"""HTTP endpoint round-trip tests for the v1 serving API.

All traffic goes through :class:`repro.serve.Client`; raw
``http.client`` connections are used only where the client would get
in the way (malformed-request and envelope-shape assertions).
"""

import http.client
import json
import threading

import pytest

from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.serve import (Client, ConflictError, InvalidRequest, MatchService,
                         ServeConfig, ServeError, SnapshotUnavailable)
from repro.serve.http import MAX_BODY_BYTES, build_server


@pytest.fixture
def server():
    source = LogicalSource(PhysicalSource("DBLP"), ObjectType("Publication"))
    source.add_record("p1", title="Adaptive Query Processing for Streams")
    source.add_record("p2", title="Schema Matching with Cupid")
    source.add_record("p3", title="Data Cleaning in Warehouses")
    service = MatchService(
        source, config=ServeConfig(attribute="title", threshold=0.6))
    server = build_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def client(server):
    host, port = server.server_address[:2]
    return Client(f"http://{host}:{port}", timeout=5)


def _raw_request(server, method, path, body=None):
    """One request without redirect-following; returns (status, headers,
    parsed JSON body)."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        connection.request(method, path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw else None
        return response.status, dict(response.getheaders()), parsed
    finally:
        connection.close()


def _record(id, title):
    return ObjectInstance(id, {"title": title})


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok", "records": 3}

    def test_match_round_trip(self, client):
        payload = client.match(
            [_record("q1", "adaptive query processng for streams")])
        assert payload["domain"] == "query.Results"
        assert payload["range"] == "DBLP.Publication"
        (reference_id, score), = payload["matches"]["q1"]
        assert reference_id == "p1" and score > 0.6
        assert payload["correspondences"] == [["q1", "p1", score]]

    def test_match_record_convenience(self, client):
        matches = client.match_record(
            _record("q1", "schema matching with cupid"))
        assert matches and matches[0][0] == "p2"

    def test_match_batch_with_source(self, client):
        payload = client.match(
            [_record("a", "Schema Matching with Cupid"),
             _record("b", "unrelated zebra talk")],
            source="GS.Publication")
        assert payload["domain"] == "GS.Publication"
        assert payload["matches"]["a"][0][0] == "p2"
        assert payload["matches"]["b"] == []

    def test_ingest_then_match_then_delete(self, client):
        assert client.ingest(
            [_record("p9", "Streaming Entity Resolution")]) \
            == {"added": 1, "updated": 0}

        matches = client.match_record(
            _record("q", "streaming entity resolution"))
        assert matches[0][0] == "p9"

        assert client.delete(["p9", "ghost"]) \
            == {"deleted": ["p9"], "missing": ["ghost"]}

        assert client.match_record(
            _record("q2", "streaming entity resolution")) == []

    def test_upsert_counts_updates(self, client):
        assert client.ingest([_record("p1", "Renamed")]) \
            == {"added": 0, "updated": 1}

    def test_stats(self, client):
        client.match_record(_record("q", "schema matching"))
        payload = client.stats()
        assert payload["records"] == 3
        assert payload["queries"] >= 1
        assert payload["index"]["vectorized_columns"] == 1

    def test_snapshot_without_data_dir_is_409(self, client):
        with pytest.raises(SnapshotUnavailable):
            client.snapshot()


class TestErrorEnvelope:
    def test_unknown_path(self, server):
        status, headers, payload = _raw_request(server, "POST", "/v1/nope",
                                                {})
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "unknown path" in payload["error"]["message"]
        # the 404 is an envelope like any other: it names the request
        assert payload["error"]["request_id"] == headers["X-Request-Id"]

    def test_oversized_body_is_refused_unread(self, server):
        """A declared length over MAX_BODY_BYTES answers 413 at once —
        the server must not sit in ``rfile.read`` waiting for 65 MiB
        that never come — and costs only that connection."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.putrequest("POST", "/v1/match")
            connection.putheader("Content-Length",
                                 str(MAX_BODY_BYTES + 1024 * 1024))
            connection.endheaders()
            connection.send(b"0123456789")
            response = connection.getresponse()   # timeout=5 bounds this
            payload = json.loads(response.read())
            try:   # the server hung up instead of parsing the body bytes
                hung_up = connection.sock.recv(1) == b""
            except ConnectionResetError:
                hung_up = True
        finally:
            connection.close()
        assert response.status == 413
        assert payload["error"]["code"] == "payload_too_large"
        assert hung_up
        status, _, payload = _raw_request(
            server, "POST", "/v1/match",
            {"records": [{"id": "q", "attributes": {
                "title": "schema matching with cupid"}}]})
        assert status == 200 and payload["matches"]["q"][0][0] == "p2"

    def test_invalid_json(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.request("POST", "/v1/match", body=b"not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "invalid JSON" in payload["error"]["message"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_invalid_content_length(self, server, length):
        """A non-numeric length used to surface as 409 (ValueError) and
        a negative one blocked the handler thread in ``rfile.read(-1)``
        until the client hung up; both are the client's fault."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.request("POST", "/v1/match", body=b"{}",
                               headers={"Content-Length": length})
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "Content-Length" in payload["error"]["message"]

    def test_unversioned_path_is_unknown(self, server):
        status, headers, payload = _raw_request(server, "GET", "/healthz")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert payload["error"]["request_id"] == headers["X-Request-Id"]

    def test_missing_records(self, server):
        status, _, payload = _raw_request(server, "POST", "/v1/match", {})
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "records" in payload["error"]["message"]

    def test_bad_record_shape(self, server):
        status, _, payload = _raw_request(
            server, "POST", "/v1/ingest",
            {"records": [{"attributes": {}}]})
        assert status == 400
        assert "id" in payload["error"]["message"]

    def test_delete_needs_ids(self, server):
        status, _, payload = _raw_request(server, "POST", "/v1/delete", {})
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_client_raises_typed_errors(self, client):
        with pytest.raises(InvalidRequest):
            client.delete([])

    def test_client_envelope_code_mapping(self, client):
        envelope = json.dumps(
            {"error": {"code": "conflict", "message": "dup"}}).encode()
        with pytest.raises(ConflictError):
            client._raise_envelope(409, envelope)

    def test_client_maps_unknown_codes_to_serve_error(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "nope", {})
        assert excinfo.value.code == "not_found"
        assert excinfo.value.http_status == 404


    def test_client_surfaces_a_503_as_a_plain_serve_error(self, client):
        # a shard_unavailable envelope has no error type of its own
        envelope = json.dumps({"error": {"code": "shard_unavailable",
                                         "message": "shard 1: gone"}}).encode()
        with pytest.raises(ServeError) as excinfo:
            client._raise_envelope(503, envelope)
        assert type(excinfo.value) is ServeError
        assert excinfo.value.http_status == 503
        assert excinfo.value.code == "shard_unavailable"
        assert str(excinfo.value) == "shard 1: gone"

class TestClusteredService:
    """The full stack over the durable index: HTTP -> service ->
    index with a data dir, including /v1/snapshot and a warm restart
    from the written image."""

    def _serve(self, service):
        server = build_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return server, thread, Client(f"http://{host}:{port}", timeout=5)

    def _stop(self, server, thread, service):
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()

    def test_snapshot_then_restore_answers_identically(self, tmp_path):
        source = LogicalSource(PhysicalSource("DBLP"),
                               ObjectType("Publication"))
        for i in range(12):
            source.add_record(f"p{i}", title=f"stream processing paper {i}")
        config = ServeConfig(attribute="title", threshold=0.3, shards=2,
                             data_dir=str(tmp_path))
        service = MatchService(source, config=config)
        server, thread, client = self._serve(service)
        probe = _record("q", "stream processing paper 3")
        try:
            client.ingest([_record("extra", "entity fusion survey")])
            manifest = client.snapshot()
            assert [sorted(entry) for entry in manifest["shards"]] \
                == [["base", "wal_entries"]]
            before_matches = client.match_record(probe)
            before_index = client.stats()["index"]
            assert before_index["records"] == 13
        finally:
            self._stop(server, thread, service)

        restored = MatchService(config=config)  # no reference: warm restore
        server, thread, client = self._serve(restored)
        try:
            assert client.healthz()["records"] == 13
            assert client.match_record(probe) == before_matches
            assert client.stats()["index"] == before_index
        finally:
            self._stop(server, thread, restored)


class TestConcurrentClients:
    def test_parallel_match_requests(self, client):
        results = {}
        errors = []

        def worker(i):
            try:
                results[i] = client.match_record(
                    _record(f"q{i}", f"schema matching with cupid {i}"))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(results) == 12
        for matches in results.values():
            assert matches and matches[0][0] == "p2"
