"""Tests for the Mapping data structure."""

import pytest

from repro.core.correspondence import Correspondence
from repro.core.mapping import Mapping, MappingKind


@pytest.fixture
def mapping():
    return Mapping.from_correspondences("A", "B", [
        ("a1", "b1", 1.0), ("a1", "b2", 0.5), ("a2", "b1", 0.7),
    ])


class TestConstruction:
    def test_requires_names(self):
        with pytest.raises(ValueError):
            Mapping("", "B")

    def test_from_correspondences(self, mapping):
        assert len(mapping) == 3

    def test_identity(self):
        identity = Mapping.identity("A", ["x", "y"])
        assert identity.get("x", "x") == 1.0
        assert identity.get("x", "y") is None
        assert identity.is_self_mapping()

    def test_default_kind_same(self, mapping):
        assert mapping.kind == MappingKind.SAME


class TestAddRemove:
    def test_similarity_validated(self):
        mapping = Mapping("A", "B")
        with pytest.raises(ValueError):
            mapping.add("a", "b", 1.5)
        with pytest.raises(ValueError):
            mapping.add("a", "b", -0.1)

    def test_conflict_max_default(self):
        mapping = Mapping("A", "B")
        mapping.add("a", "b", 0.5)
        mapping.add("a", "b", 0.8)
        mapping.add("a", "b", 0.3)
        assert mapping.get("a", "b") == 0.8

    def test_conflict_replace(self):
        mapping = Mapping("A", "B")
        mapping.add("a", "b", 0.9)
        mapping.add("a", "b", 0.2, on_conflict="replace")
        assert mapping.get("a", "b") == 0.2

    def test_conflict_error(self):
        mapping = Mapping("A", "B")
        mapping.add("a", "b", 0.9)
        with pytest.raises(ValueError):
            mapping.add("a", "b", 0.2, on_conflict="error")

    def test_unknown_conflict_policy(self):
        mapping = Mapping("A", "B")
        mapping.add("a", "b", 0.9)
        with pytest.raises(ValueError):
            mapping.add("a", "b", 0.1, on_conflict="bogus")

    def test_add_rows_is_add_per_row(self):
        rows = [("a", "b", 0.5), ("a", "c", 1), ("a", "b", 0.8),
                ("d", "b", 0.25), ("a", "b", 0.3), ("d", "b", 0.25)]
        bulk, single = Mapping("A", "B"), Mapping("A", "B")
        bulk.add_rows(iter(rows))
        for row in rows:
            single.add(*row)
        # same correspondences in the same insertion order, both indexes
        assert list(bulk) == list(single)
        assert {key: list(row.items())
                for key, row in bulk.by_range.items()} \
            == {key: list(row.items())
                for key, row in single.by_range.items()}
        assert bulk.get("a", "b") == 0.8
        assert type(bulk.get("a", "c")) is float

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_add_rows_validates(self, bad):
        mapping = Mapping("A", "B")
        with pytest.raises(ValueError):
            mapping.add_rows([("a", "b", 0.5), ("a", "c", bad)])
        assert mapping.get("a", "b") == 0.5  # rows before it went in

    def test_remove(self, mapping):
        assert mapping.remove("a1", "b2") is True
        assert mapping.get("a1", "b2") is None
        assert mapping.remove("a1", "b2") is False

    def test_remove_cleans_indexes(self):
        mapping = Mapping("A", "B")
        mapping.add("a", "b", 1.0)
        mapping.remove("a", "b")
        assert mapping.domain_ids() == set()
        assert mapping.range_ids() == set()


class TestLookup:
    def test_contains(self, mapping):
        assert ("a1", "b1") in mapping
        assert ("a1", "bX") not in mapping

    def test_degrees_match_figure5(self, mapping):
        # n(a) / n(b) of the compose similarity definitions
        assert mapping.out_degree("a1") == 2
        assert mapping.in_degree("b1") == 2
        assert mapping.out_degree("ghost") == 0

    def test_pairs(self, mapping):
        assert ("a2", "b1") in mapping.pairs()

    def test_row_views(self, mapping):
        assert mapping.range_ids_of("a1") == {"b1": 1.0, "b2": 0.5}
        assert mapping.domain_ids_of("b1") == {"a1": 1.0, "a2": 0.7}

    def test_views_are_copies(self, mapping):
        view = mapping.range_ids_of("a1")
        view["b9"] = 1.0
        assert mapping.get("a1", "b9") is None

    def test_iteration_yields_correspondences(self, mapping):
        first = next(iter(mapping))
        assert isinstance(first, Correspondence)

    def test_bool_and_len(self):
        assert not Mapping("A", "B")
        assert Mapping.from_correspondences("A", "B", [("a", "b", 1.0)])


class TestDerivedMappings:
    def test_inverse_swaps(self, mapping):
        inverse = mapping.inverse()
        assert inverse.get("b1", "a1") == 1.0
        assert inverse.domain == "B" and inverse.range == "A"

    def test_inverse_involution(self, mapping):
        assert mapping.inverse().inverse().to_rows() == mapping.to_rows()

    def test_copy_independent(self, mapping):
        duplicate = mapping.copy()
        duplicate.add("aX", "bX", 1.0)
        assert ("aX", "bX") not in mapping

    def test_filter(self, mapping):
        strong = mapping.filter(lambda c: c.similarity >= 0.7)
        assert len(strong) == 2

    def test_restrict_domain(self, mapping):
        restricted = mapping.restrict_domain(["a1"])
        assert restricted.domain_ids() == {"a1"}
        assert len(restricted) == 2

    def test_restrict_range(self, mapping):
        restricted = mapping.restrict_range(["b1"])
        assert restricted.range_ids() == {"b1"}
        assert len(restricted) == 2

    def test_scale_clamps(self, mapping):
        scaled = mapping.scale(3.0)
        assert scaled.get("a1", "b2") == 1.0

    def test_scale_negative_rejected(self, mapping):
        with pytest.raises(ValueError):
            mapping.scale(-1.0)

    def test_without_identity(self):
        self_mapping = Mapping.from_correspondences("A", "A", [
            ("x", "x", 1.0), ("x", "y", 0.8),
        ])
        cleaned = self_mapping.without_identity()
        assert cleaned.to_rows() == [("x", "y", 0.8)]


class TestEquality:
    def test_equal_mappings(self):
        first = Mapping.from_correspondences("A", "B", [("a", "b", 0.5)])
        second = Mapping.from_correspondences("A", "B", [("a", "b", 0.5)])
        assert first == second

    def test_different_kind_not_equal(self):
        same = Mapping.from_correspondences("A", "B", [("a", "b", 0.5)])
        asso = Mapping.from_correspondences(
            "A", "B", [("a", "b", 0.5)], kind=MappingKind.ASSOCIATION)
        assert same != asso

    def test_to_rows_sorted(self, mapping):
        rows = mapping.to_rows()
        assert rows == sorted(rows)
