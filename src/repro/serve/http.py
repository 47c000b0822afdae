"""Versioned JSON-over-HTTP front end for the match service.

Stdlib only (``http.server``), one thread per connection;
``/v1/match`` calls :meth:`~repro.serve.service.MatchService.
match_batch`, which serializes concurrent requests' kernel calls on
the service lock.  All endpoints live under ``/v1/``:

============  ======  ================================================
path          method  body / response
============  ======  ================================================
/v1/match     POST    ``{"records": [{"id": ..., "attributes":
                      {...}}], "source": optional}`` → per-record
                      matches plus the flat correspondence triples
/v1/ingest    POST    ``{"records": [...]}`` → ``{"added",
                      "updated"}``
/v1/delete    POST    ``{"ids": [...]}`` → ``{"deleted", "missing"}``
/v1/snapshot  POST    persist a point-in-time image (clustered
                      backends with a data dir) → the manifest
/v1/stats     GET     full service statistics
/v1/healthz   GET     liveness probe with the live record count
/v1/metrics   GET     Prometheus text exposition (404 when the
                      service runs with ``metrics=False``)
============  ======  ================================================

Every response carries an ``X-Request-Id`` header — the client's own
header echoed back, or a server-minted id — and error envelopes
repeat it as ``error.request_id``.  With ``ServeConfig(metrics=True)``
the id doubles as the trace id for request tracing.

Records travel as ``{"id": str, "attributes": {name: value}}``; a
single record may be passed as ``{"record": {...}}``.

Every failure returns the v1 error envelope
``{"error": {"code": ..., "message": ..., "request_id": ...}}``;
status and code come from :func:`repro.serve.errors.error_code_for`,
so the typed exception hierarchy
(:class:`~repro.serve.errors.InvalidRequest`,
:class:`~repro.serve.errors.ConflictError`, ...) maps onto the
wire the same way everywhere; unknown paths raise
:class:`~repro.serve.errors.NotFound`, bodies over
:data:`MAX_BODY_BYTES` :class:`~repro.serve.errors.PayloadTooLarge`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, List, Optional, Tuple

from repro.model.entity import ObjectInstance
from repro.obs import trace as obs_trace
from repro.serve.errors import (InvalidRequest, NotFound, PayloadTooLarge,
                                error_code_for)
from repro.serve.service import MatchService

API_PREFIX = "/v1"

#: largest request body the server reads (a ``/v1/match`` page of 16
#: records is ~3 KB); a larger declared length is refused unread
MAX_BODY_BYTES = 64 * 1024 * 1024

#: endpoints that may label metrics (bounds label cardinality)
_KNOWN_PATHS = {f"{API_PREFIX}/{name}" for name in
                ("match", "ingest", "delete", "snapshot", "stats",
                 "healthz", "metrics")}

#: deterministic request-id mint (no randomness; unique per process)
_request_ids = itertools.count(1)


def _parse_record(payload: object) -> ObjectInstance:
    if not isinstance(payload, dict):
        raise InvalidRequest("record must be an object")
    id = payload.get("id")
    if not isinstance(id, str) or not id:
        raise InvalidRequest("record needs a non-empty string 'id'")
    attributes = payload.get("attributes", {})
    if not isinstance(attributes, dict):
        raise InvalidRequest("'attributes' must be an object")
    return ObjectInstance(id, attributes)


def _parse_records(body: dict) -> List[ObjectInstance]:
    if "record" in body:
        return [_parse_record(body["record"])]
    records = body.get("records")
    if not isinstance(records, list) or not records:
        raise InvalidRequest("body needs 'records' (non-empty list) "
                             "or 'record'")
    return [_parse_record(entry) for entry in records]


class MatchServiceHandler(BaseHTTPRequestHandler):
    """One request handler class per server (see :func:`build_server`)."""

    service: MatchService = None  # injected by build_server
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Route access lines through the structured logger.

        Silent when observability is off (the pre-obs behaviour tests
        rely on); either way the stdlib's raw stderr chatter is gone.
        """
        logger = getattr(self.service, "logger", None)
        if logger is not None:
            logger.info("http_access", client=self.client_address[0],
                        request_id=getattr(self, "request_id", None),
                        line=format % args)

    def _begin_request(self) -> None:
        """Adopt the client's ``X-Request-Id`` or mint one.

        The id doubles as the trace id and is echoed on every
        response, so a client can correlate its call with server-side
        logs, traces and error envelopes.
        """
        supplied = self.headers.get("X-Request-Id")
        self.request_id = supplied or f"req-{next(_request_ids)}"

    @contextlib.contextmanager
    def _observed_request(self) -> Iterator[None]:
        """Trace + time one request (no-op when observability is off)."""
        tracer = getattr(self.service, "tracer", None)
        metrics = getattr(self.service, "metrics", None)
        if tracer is None and metrics is None:
            yield
            return
        context = tracer.begin(self.request_id) if tracer else None
        begun = time.perf_counter()
        try:
            with obs_trace.activate(context):
                with obs_trace.span(f"http.{self.command.lower()}"):
                    yield
        finally:
            elapsed = time.perf_counter() - begun
            if tracer is not None:
                tracer.finish(context)
            if metrics is not None:
                path = self.path if self.path in _KNOWN_PATHS else "other"
                metrics.counter(
                    "repro_http_requests_total",
                    "HTTP requests by endpoint and method.",
                    labels={"path": path, "method": self.command}).inc()
                metrics.histogram(
                    "repro_http_request_seconds",
                    "HTTP request latency by endpoint (seconds).",
                    labels={"path": path, "method": self.command},
                ).observe(elapsed)

    def _respond(self, status: int, payload: dict) -> None:
        self._write(status, "application/json",
                    json.dumps(payload).encode("utf-8"))

    def _write(self, status: int, content_type: str, body: bytes) -> None:
        """The one response writer: header flush, then the body."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)

    def _respond_error(self, error: BaseException) -> None:
        status, code = error_code_for(error)
        message = str(error)
        if isinstance(error, KeyError) and message.startswith("'"):
            # KeyError reprs its argument; unwrap for the envelope
            message = message.strip("'")
        self._respond(status, {"error": {
            "code": code, "message": message,
            "request_id": self.request_id}})

    def _respond_metrics(self) -> None:
        """Serve the Prometheus text exposition (``/v1/metrics``)."""
        metrics = getattr(self.service, "metrics", None)
        if metrics is None:
            raise NotFound("metrics disabled; start the service with "
                           "ServeConfig(metrics=True)")
        self._write(200, "text/plain; version=0.0.4; charset=utf-8",
                    metrics.render().encode("utf-8"))

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        # int() alone would accept "-1" (rfile.read(-1) then blocks a
        # keep-alive connection until the peer closes) and map a
        # non-numeric value to 409 through ValueError
        if not header.isascii() or not header.isdigit():
            # the body's extent is unknowable; drop the connection
            # rather than parse its bytes as the next request
            self.close_connection = True
            raise InvalidRequest(
                f"invalid Content-Length header {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            # refused unread: the unconsumed body cannot be skipped
            # cheaply, so the connection goes with it
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise InvalidRequest("empty request body")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise InvalidRequest(f"invalid JSON: {error}") from error
        if not isinstance(body, dict):
            raise InvalidRequest("request body must be a JSON object")
        return body

    # -- endpoints -----------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._begin_request()
        with self._observed_request():
            try:
                if self.path == f"{API_PREFIX}/healthz":
                    self._respond(
                        200, {"status": "ok",
                              "records": len(self.service.index)})
                elif self.path == f"{API_PREFIX}/stats":
                    self._respond(200, self.service.stats())
                elif self.path == f"{API_PREFIX}/metrics":
                    self._respond_metrics()
                else:
                    raise NotFound(f"unknown path {self.path!r}")
            except Exception as error:  # envelope every failure
                self._respond_error(error)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._begin_request()
        with self._observed_request():
            try:
                if self.path == f"{API_PREFIX}/match":
                    self._respond(200,
                                  self._handle_match(self._read_body()))
                elif self.path == f"{API_PREFIX}/ingest":
                    self._respond(200,
                                  self._handle_ingest(self._read_body()))
                elif self.path == f"{API_PREFIX}/delete":
                    self._respond(200,
                                  self._handle_delete(self._read_body()))
                elif self.path == f"{API_PREFIX}/snapshot":
                    self._respond(200, self.service.snapshot())
                else:
                    raise NotFound(f"unknown path {self.path!r}")
            except Exception as error:
                self._respond_error(error)

    def _handle_match(self, body: dict) -> dict:
        records = _parse_records(body)
        source = body.get("source")
        if source is not None and not isinstance(source, str):
            raise InvalidRequest("'source' must be a string")
        mapping = self.service.match_batch(records, source_name=source)
        matches = {
            record.id: [
                [reference_id, score] for reference_id, score
                in sorted(mapping.range_ids_of(record.id).items(),
                          key=lambda item: (-item[1], item[0]))
            ]
            for record in records
        }
        return {
            "domain": mapping.domain,
            "range": mapping.range,
            "matches": matches,
            "correspondences": mapping.to_rows(),
        }

    def _handle_ingest(self, body: dict) -> dict:
        return self.service.ingest(_parse_records(body))

    def _handle_delete(self, body: dict) -> dict:
        ids = body.get("ids")
        if ids is None and isinstance(body.get("id"), str):
            ids = [body["id"]]
        if not isinstance(ids, list) or not ids \
                or not all(isinstance(id, str) for id in ids):
            raise InvalidRequest("body needs 'ids' (list of strings)")
        deleted, missing = [], []
        for id in ids:
            (deleted if self.service.delete(id) else missing).append(id)
        return {"deleted": deleted, "missing": missing}


def build_server(service: MatchService, host: str = "127.0.0.1",
                 port: int = 8765) -> ThreadingHTTPServer:
    """Build a threaded HTTP server bound to ``host:port`` (0 = ephemeral)."""

    class _Handler(MatchServiceHandler):
        pass

    _Handler.service = service
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    return server


def serve(service: MatchService, host: str = "127.0.0.1",
          port: int = 8765,
          ready: Optional[callable] = None) -> Tuple[str, int]:
    """Serve until interrupted; returns the bound address afterwards.

    ``ready`` (if given) is called with the server once it is bound —
    the CLI uses it to print the address before blocking.
    """
    server = build_server(service, host, port)
    address = server.server_address[:2]
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return address
