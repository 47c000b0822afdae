"""Stdlib HTTP client for the v1 match service API.

Examples and tests talk to the service through this class instead of
hand-rolling ``urllib`` requests.  The client speaks exactly the v1
wire protocol of :mod:`repro.serve.http`: records as ``{"id",
"attributes"}`` objects, failures as the JSON error envelope, which
it converts back into the typed exceptions of
:mod:`repro.serve.errors` — so a caller sees the *same* exception
types whether it drives a :class:`~repro.serve.MatchService` in
process or over HTTP.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Iterable, List, Optional, Tuple

from repro.model.entity import ObjectInstance
from repro.serve.errors import (ConflictError, InvalidRequest, ServeError,
                                SnapshotUnavailable)

#: envelope code → exception class raised by the client
_CODE_ERRORS = {
    "invalid_request": InvalidRequest,
    "conflict": ConflictError,
    "snapshot_unavailable": SnapshotUnavailable,
}


def _record_payload(record: ObjectInstance) -> dict:
    return {"id": record.id, "attributes": dict(record.attributes)}


class Client:
    """Minimal v1 API client (``urllib``-based, no dependencies).

    >>> client = Client("http://127.0.0.1:8765")
    >>> client.match([ObjectInstance("q1", {"title": "data fusion"})])
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _url(self, path: str) -> str:
        return f"{self.base_url}/v1/{path.lstrip('/')}"

    def _raise_envelope(self, status: int, raw: bytes) -> None:
        try:
            envelope = json.loads(raw)["error"]
            code, message = envelope["code"], envelope["message"]
        except (ValueError, KeyError, TypeError):
            code, message = "serve_error", raw.decode("utf-8", "replace")
        error_type = _CODE_ERRORS.get(code)
        if error_type is not None:
            raise error_type(message)
        error = ServeError(message)
        error.http_status = status
        error.code = code
        raise error

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self._url(path), data=data,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            self._raise_envelope(error.code, error.read())

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "healthz")

    def stats(self) -> dict:
        return self._request("GET", "stats")

    def match(self, records: Iterable[ObjectInstance], *,
              source: Optional[str] = None) -> dict:
        """POST ``/v1/match``; returns the full response body."""
        body = {"records": [_record_payload(record) for record in records]}
        if source is not None:
            body["source"] = source
        return self._request("POST", "match", body)

    def match_record(self, record: ObjectInstance) \
            -> List[Tuple[str, float]]:
        """Match one record; ``[(reference id, score), ...]``."""
        response = self.match([record])
        return [(reference_id, score) for reference_id, score
                in response["matches"][record.id]]

    def ingest(self, records: Iterable[ObjectInstance]) -> Dict[str, int]:
        """POST ``/v1/ingest``; returns ``{"added", "updated"}``."""
        return self._request("POST", "ingest", {
            "records": [_record_payload(record) for record in records]})

    def delete(self, ids: Iterable[str]) -> Dict[str, List[str]]:
        """POST ``/v1/delete``; returns ``{"deleted", "missing"}``."""
        return self._request("POST", "delete", {"ids": list(ids)})

    def snapshot(self) -> dict:
        """POST ``/v1/snapshot``; returns the written manifest."""
        return self._request("POST", "snapshot", {})
