"""ServeConfig validation and the typed error vocabulary."""

import pytest

from repro.engine.request import AttributeSpec
from repro.serve import (ConflictError, InvalidRequest, ServeConfig,
                         ServeError, SnapshotUnavailable)
from repro.serve.errors import error_code_for
from repro.sim.ngram import TrigramSimilarity


class TestValidation:
    def test_defaults_validate(self):
        config = ServeConfig().validate()
        assert config.attribute == "title"
        assert config.shards == 0
        assert not config.clustered

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 1.5},
        {"threshold": -0.1},
        {"max_candidates": 0},
        {"cache_size": -1},
        {"missing": "explode"},
        {"compact_ratio": 0.0},
        {"compact_min": 0},
        {"shards": -1},
        {"specs": []},
        {"attribute": ""},
        {"host": ""},
        {"port": -1},
        {"port": 65536},
    ])
    def test_bad_values_raise_invalid_request(self, kwargs):
        with pytest.raises(InvalidRequest):
            ServeConfig(**kwargs).validate()

    def test_port_zero_means_ephemeral_and_validates(self):
        assert ServeConfig(port=0).validate().port == 0

    def test_invalid_request_is_a_value_error(self):
        with pytest.raises(ValueError):
            ServeConfig(threshold=2.0).validate()

    def test_multiple_specs_need_combiner(self):
        specs = [AttributeSpec("title", "title", TrigramSimilarity()),
                 AttributeSpec("venue", "venue", TrigramSimilarity())]
        with pytest.raises(InvalidRequest):
            ServeConfig(specs=specs).validate()

    def test_data_dir_implies_one_shard(self, tmp_path):
        config = ServeConfig(data_dir=str(tmp_path)).validate()
        assert config.shards == 1
        assert config.clustered

    def test_explicit_shards_kept_with_data_dir(self, tmp_path):
        config = ServeConfig(shards=3, data_dir=str(tmp_path)).validate()
        assert config.shards == 3


class TestErrorVocabulary:
    def test_hierarchy(self):
        assert issubclass(InvalidRequest, (ServeError, ValueError))
        assert issubclass(ConflictError, ServeError)
        assert issubclass(SnapshotUnavailable, ServeError)

    @pytest.mark.parametrize("error,expected", [
        (InvalidRequest("x"), (400, "invalid_request")),
        (ConflictError("x"), (409, "conflict")),
        (SnapshotUnavailable("x"), (409, "snapshot_unavailable")),
        (ValueError("duplicate id"), (409, "conflict")),
        (KeyError("missing"), (409, "conflict")),
        (RuntimeError("boom"), (500, "serve_error")),
    ])
    def test_error_code_for(self, error, expected):
        assert error_code_for(error) == expected
