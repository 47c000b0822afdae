"""Error-hierarchy contracts: envelope payloads and pickle safety.

Every serving error keeps the one-message constructor the default
``Exception.__reduce__`` replays, so the whole hierarchy survives a
pickle round trip with its envelope code intact.
"""

import pickle

import pytest

from repro.serve.errors import (
    ConflictError,
    InvalidRequest,
    NotFound,
    PayloadTooLarge,
    ServeError,
    SnapshotUnavailable,
    error_code_for,
)


@pytest.mark.parametrize("error", [
    ServeError("boom"),
    InvalidRequest("bad record"),
    ConflictError("duplicate id"),
    NotFound("unknown path '/v1/nope'"),
    PayloadTooLarge("request body of 68157440 bytes"),
    SnapshotUnavailable("no data dir"),
])
def test_every_serve_error_pickles(error):
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    assert error_code_for(clone) == error_code_for(error)


def test_invalid_request_still_a_value_error():
    with pytest.raises(ValueError):
        raise InvalidRequest("legacy catch path")
