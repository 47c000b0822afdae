"""Tests for physical and logical sources."""

import pickle

import pytest

from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource, ObjectType, PhysicalSource


@pytest.fixture
def lds():
    source = LogicalSource(PhysicalSource("DBLP"), ObjectType("Publication"))
    source.add_record("p1", title="Alpha", year=2001)
    source.add_record("p2", title="Beta", year=2002)
    source.add_record("p3", title="Gamma")
    return source


class TestPhysicalSource:
    def test_name_required(self):
        with pytest.raises(ValueError):
            PhysicalSource("")

    def test_downloadable_default(self):
        assert PhysicalSource("DBLP").downloadable is True

    def test_query_only_source(self):
        assert PhysicalSource("GS", downloadable=False).downloadable is False


class TestObjectType:
    def test_name_required(self):
        with pytest.raises(ValueError):
            ObjectType("")

    def test_equality(self):
        assert ObjectType("Publication") == ObjectType("Publication")


class TestLogicalSource:
    def test_qualified_name(self, lds):
        assert lds.name == "DBLP.Publication"

    def test_add_and_get(self, lds):
        assert lds.get("p1").get("title") == "Alpha"

    def test_duplicate_id_rejected(self, lds):
        with pytest.raises(ValueError):
            lds.add(ObjectInstance("p1"))

    def test_require_missing_raises(self, lds):
        with pytest.raises(KeyError):
            lds.require("nope")

    def test_contains_and_len(self, lds):
        assert "p2" in lds
        assert len(lds) == 3

    def test_iteration_order(self, lds):
        assert [instance.id for instance in lds] == ["p1", "p2", "p3"]

    def test_attribute_values_skips_missing(self, lds):
        assert sorted(lds.attribute_values("year")) == [2001, 2002]

    def test_select_predicate(self, lds):
        recent = lds.select(lambda inst: inst.get("year") == 2002)
        assert [instance.id for instance in recent] == ["p2"]

    def test_subset_view(self, lds):
        view = lds.subset(["p1", "p3", "ghost"])
        assert view.ids() == ["p1", "p3"]
        assert view.name == lds.name

    def test_subset_shares_instances(self, lds):
        view = lds.subset(["p1"])
        assert view.get("p1") is lds.get("p1")

    def test_ids_and_instances(self, lds):
        assert lds.ids() == ["p1", "p2", "p3"]
        assert len(lds.instances()) == 3


class TestDerived:
    """``derived`` lives and dies with the source object's contents."""

    def test_builds_once_and_counts(self, lds):
        calls = []

        def build():
            calls.append(1)
            return ["built"]

        first = lds.derived("k", build)
        assert lds.derived("k", build) is first
        assert len(calls) == 1
        assert (lds.derived_builds, lds.derived_hits) == (1, 1)
        assert lds.derived("other", build) is not first

    def test_failed_build_stores_nothing(self, lds):
        def refuse():
            raise MemoryError

        with pytest.raises(MemoryError):
            lds.derived("k", refuse)
        assert lds.derived("k", lambda: "second try") == "second try"

    @pytest.mark.parametrize("grow", [
        lambda source: source.add(ObjectInstance("p9", {"title": "Iota"})),
        lambda source: source.add_record("p9", title="Iota"),
    ], ids=["add", "add_record"])
    def test_invalidated_by_growth(self, lds, grow):
        other = lds.subset(["p1"])
        lds.derived("k", lambda: "old")
        lds.derived("k", lambda: "old pair", partner=other)
        grow(lds)
        assert lds.derived("k", lambda: "new") == "new"
        assert lds.derived("k", lambda: "new pair", partner=other) \
            == "new pair"

    def test_rejected_add_keeps_the_memo(self, lds):
        lds.derived("k", lambda: "kept")
        with pytest.raises(ValueError):
            lds.add_record("p1", title="duplicate id")
        assert lds.derived("k", lambda: "rebuilt") == "kept"

    def test_not_pickled(self, lds):
        other = lds.subset(["p1"])
        lds.derived("k", lambda: "here")
        lds.derived("k", lambda: "here too", partner=other)
        clone = pickle.loads(pickle.dumps(lds))
        assert clone.ids() == lds.ids()
        assert clone.derived("k", lambda: "rebuilt") == "rebuilt"
        assert clone.derived("k", lambda: "rebuilt", partner=other) \
            == "rebuilt"
        assert lds.derived("k", lambda: "rebuilt") == "here"

    def test_subset_starts_empty(self, lds):
        lds.derived("k", lambda: "parent")
        view = lds.subset(lds.ids())
        assert view.derived("k", lambda: "view") == "view"
        assert lds.derived("k", lambda: "again") == "parent"

    def test_same_named_subsets_never_share(self, lds):
        left, right = lds.subset(["p1", "p2"]), lds.subset(["p2", "p3"])
        assert left.name == right.name
        assert left.derived("k", lambda: "left") == "left"
        assert right.derived("k", lambda: "right") == "right"
        # nor as partners of a third source
        assert lds.derived("k", lambda: "with left", partner=left) \
            == "with left"
        assert lds.derived("k", lambda: "with right", partner=right) \
            == "with right"
        assert lds.derived("k", lambda: "again", partner=left) == "with left"

    def test_partner_scope(self, lds):
        other = lds.subset(["p1"])
        alone = lds.derived("k", lambda: "alone")
        assert lds.derived("k", lambda: "paired", partner=other) == "paired"
        assert lds.derived("k", lambda: "x") is alone
        # a source is not its own partner: self-matching entries are
        # plain entries
        assert lds.derived("k", lambda: "x", partner=lds) is alone

    def test_partner_growth_drops_the_pair_entries(self, lds):
        other = lds.subset(["p1"])
        lds.derived("k", lambda: "before", partner=other)
        lds.derived("own", lambda: "own")
        other.add_record("p7", title="Eta")
        assert lds.derived("k", lambda: "after", partner=other) == "after"
        assert lds.derived("own", lambda: "rebuilt") == "own"

    def test_collected_partner_cannot_be_hit_by_a_new_object(self, lds):
        # id() of a dead partner may be reused; the entry must die with it
        for round_ in range(50):
            partner = lds.subset(["p1"])
            assert lds.derived("k", lambda r=round_: r, partner=partner) \
                == round_
            del partner
        # and the entries went with their partners
        (partners,) = lds._derived.values()
        assert len(partners) == 0
