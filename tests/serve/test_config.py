"""ServeConfig validation, its field contract and the typed error
vocabulary."""

import pytest
from config_contract import REPO_ROOT, contract_faults, knob_rows

from repro.engine.request import AttributeSpec
from repro.serve import (ConflictError, InvalidRequest, ServeConfig,
                         ServeError, SnapshotUnavailable)
from repro.serve.errors import error_code_for
from repro.sim.ngram import TrigramSimilarity

TWO_SPECS = [AttributeSpec("title", "title", TrigramSimilarity()),
             AttributeSpec("venue", "venue", TrigramSimilarity())]

#: keyword sets ``validate()`` rejects; a field named in one has a value
#: that is checked
BAD_VALUES = [
    {"threshold": 1.5},
    {"threshold": -0.1},
    {"max_candidates": 0},
    {"cache_size": -1},
    {"missing": "explode"},
    {"compact_ratio": 0.0},
    {"compact_min": 0},
    {"shards": -1},
    {"specs": []},
    {"specs": TWO_SPECS, "combiner": None},
    {"attribute": ""},
    {"host": ""},
    {"port": -1},
    {"port": 65536},
    {"trace_sample_rate": 1.5},
    {"trace_sample_rate": -0.1},
    {"slow_query_ms": -1.0},
]

#: fields every value of which is valid, and why
FREE_FORM = {
    "similarity": "resolved through the sim registry at build time; an "
                  "unknown name raises InvalidRequest there",
    "source_name": "a free-form label recorded on persisted mappings; "
                   "the CLI derives it from --reference",
    "mapping_name": "a free-form repository key; any string, or None "
                    "for no persistence",
    "data_dir": "a deployment path; any path, or None for the in-heap "
                "index only, and the build creates it",
}


class TestValidation:
    def test_defaults_validate(self):
        config = ServeConfig().validate()
        assert config.attribute == "title"
        assert config.shards == 0
        assert not config.clustered

    @pytest.mark.parametrize("kwargs", BAD_VALUES)
    def test_bad_values_raise_invalid_request(self, kwargs):
        with pytest.raises(InvalidRequest):
            ServeConfig(**kwargs).validate()

    def test_port_zero_means_ephemeral_and_validates(self):
        assert ServeConfig(port=0).validate().port == 0

    def test_invalid_request_is_a_value_error(self):
        with pytest.raises(ValueError):
            ServeConfig(threshold=2.0).validate()

    def test_data_dir_selects_the_durable_index(self, tmp_path):
        config = ServeConfig(data_dir=str(tmp_path)).validate()
        assert config.shards == 0
        assert config.clustered

    def test_shards_alone_select_nothing(self):
        config = ServeConfig(shards=2).validate()
        assert config.shards == 2
        assert not config.clustered

    def test_explicit_shards_kept_with_data_dir(self, tmp_path):
        config = ServeConfig(shards=3, data_dir=str(tmp_path)).validate()
        assert config.shards == 3


class TestContract:
    def test_every_field_is_checked_settable_and_documented(self):
        assert contract_faults(ServeConfig, "serve", "docs/serving.md",
                               BAD_VALUES, FREE_FORM) == []

    def test_a_deleted_docs_row_is_reported(self):
        text = (REPO_ROOT / "docs/serving.md").read_text(encoding="utf-8")
        assert "attribute" in knob_rows(text)
        mutated = text.replace("| `attribute` ", "| (removed) ")
        assert "attribute" not in knob_rows(mutated)


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
