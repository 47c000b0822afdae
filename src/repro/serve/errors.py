"""Typed exception hierarchy for the serving tier.

The v1 API surfaces every failure as a JSON error envelope
``{"error": {"code": ..., "message": ...}}``; the exception classes
here carry the machine-readable ``code`` and the HTTP status the
front end maps them to, so programmatic callers, the HTTP handler and
:class:`repro.serve.client.Client` all speak the same vocabulary.

``InvalidRequest`` subclasses :class:`ValueError` so pre-v1 callers
that caught ``ValueError`` from constructor validation keep working.
"""

from __future__ import annotations


class ServeError(Exception):
    """Base class of all serving-tier errors.

    ``code`` is the stable machine-readable identifier used in the
    v1 JSON error envelope; ``http_status`` is the status the HTTP
    front end responds with.
    """

    code: str = "serve_error"
    http_status: int = 500


class InvalidRequest(ServeError, ValueError):
    """A client-supplied request or configuration value is malformed."""

    code: str = "invalid_request"
    http_status: int = 400


class NotFound(ServeError):
    """The request names no endpoint (or one this service has off)."""

    code: str = "not_found"
    http_status: int = 404


class PayloadTooLarge(ServeError):
    """The declared request body exceeds the server's read limit."""

    code: str = "payload_too_large"
    http_status: int = 413


class ConflictError(ServeError):
    """A mutation conflicts with live state (duplicate or missing id)."""

    code: str = "conflict"
    http_status: int = 409


class SnapshotUnavailable(ServeError):
    """Snapshotting was requested on a service without a data dir."""

    code: str = "snapshot_unavailable"
    http_status: int = 409


def error_code_for(error: BaseException) -> tuple[int, str]:
    """Map an arbitrary exception to ``(http status, envelope code)``.

    :class:`ServeError` instances carry their own mapping; the
    mutation errors the index raises (``ValueError`` for duplicate
    ids, ``KeyError`` for missing ones) map to 409/conflict like the
    pre-v1 API did.
    """
    if isinstance(error, ServeError):
        return error.http_status, error.code
    if isinstance(error, (ValueError, KeyError)):
        return ConflictError.http_status, ConflictError.code
    return ServeError.http_status, ServeError.code
