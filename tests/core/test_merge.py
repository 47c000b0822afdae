"""Tests for the merge operator, anchored on the paper's Figure 4."""

import pytest

from repro.core.mapping import Mapping
from repro.core.operators.merge import merge


@pytest.fixture
def map1():
    return Mapping.from_correspondences("A", "B", [
        ("a1", "b1", 1.0), ("a2", "b2", 0.8),
    ])


@pytest.fixture
def map2():
    return Mapping.from_correspondences("A", "B", [
        ("a1", "b1", 0.6), ("a1", "b5", 1.0), ("a3", "b3", 0.9),
    ])


class TestFigure4:
    """The exact worked example of §3.1."""

    def test_min0(self, map1, map2):
        assert merge([map1, map2], "min0").to_rows() == [("a1", "b1", 0.6)]

    def test_avg(self, map1, map2):
        assert merge([map1, map2], "avg").to_rows() == [
            ("a1", "b1", 0.8), ("a1", "b5", 1.0),
            ("a2", "b2", 0.8), ("a3", "b3", 0.9),
        ]

    def test_avg0(self, map1, map2):
        assert merge([map1, map2], "avg0").to_rows() == [
            ("a1", "b1", 0.8), ("a1", "b5", 0.5),
            ("a2", "b2", 0.4), ("a3", "b3", 0.45),
        ]

    def test_prefer_map1(self, map1, map2):
        assert merge([map1, map2], "prefer", prefer=0).to_rows() == [
            ("a1", "b1", 1.0), ("a2", "b2", 0.8), ("a3", "b3", 0.9),
        ]


class TestMergeGeneral:
    def test_single_input_copies(self, map1):
        merged = merge([map1], "avg")
        assert merged.to_rows() == map1.to_rows()
        assert merged is not map1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge([], "avg")

    def test_incompatible_sources_rejected(self, map1):
        other = Mapping.from_correspondences("A", "C", [("a1", "c1", 1.0)])
        with pytest.raises(ValueError):
            merge([map1, other], "avg")

    def test_max_is_union(self, map1, map2):
        merged = merge([map1, map2], "max")
        assert merged.pairs() == map1.pairs() | map2.pairs()
        assert merged.get("a1", "b1") == 1.0

    def test_weighted(self, map1, map2):
        merged = merge([map1, map2], "weighted", weights=[3, 1])
        assert merged.get("a1", "b1") == pytest.approx(0.9)
        # a2/b2 only in map1 -> renormalized to map1's value
        assert merged.get("a2", "b2") == pytest.approx(0.8)

    def test_three_way_merge(self, map1, map2):
        map3 = Mapping.from_correspondences("A", "B", [("a1", "b1", 0.2)])
        merged = merge([map1, map2, map3], "avg")
        assert merged.get("a1", "b1") == pytest.approx((1.0 + 0.6 + 0.2) / 3)

    def test_prefer_by_mapping_object(self, map1, map2):
        by_object = merge([map1, map2], prefer=map2)
        assert by_object.get("a1", "b5") == 1.0  # preferred map kept whole
        assert by_object.get("a2", "b2") == 0.8  # uncovered domain added

    def test_prefer_unknown_mapping(self, map1, map2):
        stranger = Mapping("A", "B")
        with pytest.raises(ValueError):
            merge([map1, map2], prefer=stranger)

    def test_prefer_index_out_of_range(self, map1, map2):
        with pytest.raises(ValueError):
            merge([map1, map2], "prefer", prefer=7)

    def test_prefer_name_with_digit(self, map1, map2):
        # "PreferMap<i>" counts the inputs from 1, as in the paper
        first = merge([map1, map2], "prefer", prefer=0).to_rows()
        second = merge([map1, map2], "prefer", prefer=1).to_rows()
        assert first != second
        assert merge([map1, map2], "PreferMap1").to_rows() == first
        assert merge([map1, map2], "PreferMap2").to_rows() == second
        assert merge([map1, map2], "prefer2").to_rows() == second
        # no digit: the first input
        assert merge([map1, map2], "prefer").to_rows() == first
        assert merge([map1, map2], "PreferMap").to_rows() == first

    @pytest.mark.parametrize("name", ["PreferMap0", "PreferMap3"])
    def test_prefer_name_out_of_range(self, map1, map2, name):
        with pytest.raises(ValueError):
            merge([map1, map2], name)

    def test_prefer_name_is_a_full_match(self, map1, map2):
        with pytest.raises(KeyError):
            merge([map1, map2], "preferences")

    def test_result_name(self, map1, map2):
        assert merge([map1, map2], "avg", name="combined").name == "combined"

    def test_zero_similarity_dropped(self):
        left = Mapping.from_correspondences("A", "B", [("a", "b", 0.0)])
        right = Mapping.from_correspondences("A", "B", [("a", "b", 0.0)])
        assert len(merge([left, right], "avg")) == 0
