"""Error-hierarchy contracts: envelope payloads and pickle safety.

Every serving error can cross the shard ``FrameChannel`` inside an
``("error", exc)`` frame, so the whole hierarchy must survive a pickle
round trip.  ``ShardUnavailable`` is the regression case: its
two-argument ``__init__`` broke the default ``Exception.__reduce__``
(which replays ``self.args``) until it grew an explicit ``__reduce__``.
"""

import pickle

import pytest

from repro.serve.errors import (
    ConflictError,
    InvalidRequest,
    NotFound,
    PayloadTooLarge,
    ServeError,
    ShardUnavailable,
    SnapshotUnavailable,
    error_code_for,
)


def test_shard_unavailable_pickle_round_trip():
    error = ShardUnavailable(3, "worker timed out")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, ShardUnavailable)
    assert clone.shard == 3
    assert clone.message == "worker timed out"
    assert str(clone) == "shard 3: worker timed out"
    assert clone.to_payload() == error.to_payload()


@pytest.mark.parametrize("error", [
    ServeError("boom"),
    InvalidRequest("bad record"),
    ConflictError("duplicate id"),
    NotFound("unknown path '/v1/nope'"),
    PayloadTooLarge("request body of 68157440 bytes"),
    ShardUnavailable(7, "channel closed"),
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
