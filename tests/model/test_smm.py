"""Tests for the source-mapping model."""

import pytest

from repro.core.mapping import Mapping, MappingKind
from repro.model.smm import MappingType, SourceMappingModel


@pytest.fixture
def smm():
    model = SourceMappingModel()
    for physical in ("DBLP", "ACM", "GS"):
        model.create_source(physical, "Publication")
    model.register_mapping(
        "dblp-acm",
        Mapping.from_correspondences("DBLP.Publication", "ACM.Publication",
                                     [("p1", "q1", 1.0)]),
    )
    model.register_mapping(
        "dblp-gs",
        Mapping.from_correspondences("DBLP.Publication", "GS.Publication",
                                     [("p1", "g1", 1.0)]),
    )
    return model


class TestMappingType:
    def test_cardinality_validated(self):
        with pytest.raises(ValueError):
            MappingType("Bad", "A", "B", "2:3")

    def test_same_kind_detection(self):
        same = MappingType("PubPub", "Publication", "Publication", "1:1")
        assert same.kind == MappingKind.SAME

    def test_association_kind(self):
        asso = MappingType("PubAuthor", "Publication", "Author", "n:m")
        assert asso.kind == MappingKind.ASSOCIATION


class TestRegistration:
    def test_create_source_registers_everything(self, smm):
        assert smm.get_source("DBLP.Publication") is not None
        assert smm.get_physical_source("DBLP") is not None

    def test_duplicate_source_rejected(self, smm):
        with pytest.raises(ValueError):
            smm.create_source("DBLP", "Publication")

    def test_register_mapping_unknown_source(self, smm):
        mapping = Mapping("Nowhere.Publication", "ACM.Publication")
        with pytest.raises(ValueError):
            smm.register_mapping("bad", mapping)

    def test_duplicate_mapping_name(self, smm):
        mapping = Mapping("DBLP.Publication", "ACM.Publication")
        with pytest.raises(ValueError):
            smm.register_mapping("dblp-acm", mapping)

    def test_replace_allowed(self, smm):
        mapping = Mapping("DBLP.Publication", "ACM.Publication")
        smm.register_mapping("dblp-acm", mapping, replace=True)
        assert len(smm.find_mapping("dblp-acm")) == 0

    def test_mapping_type_compatibility_checked(self, smm):
        smm.create_source("DBLP", "Author")
        smm.add_mapping_type(
            MappingType("PubAuthor", "Publication", "Author", "n:m"))
        wrong = Mapping("DBLP.Publication", "ACM.Publication")
        with pytest.raises(ValueError):
            smm.register_mapping("wrong-type", wrong, "PubAuthor")

    def test_require_source(self, smm):
        with pytest.raises(KeyError):
            smm.require_source("Missing.Publication")


class TestStructuralQueries:
    def test_sources_of_type(self, smm):
        assert len(smm.sources_of_type("Publication")) == 3

    def test_mappings_between(self, smm):
        found = smm.mappings_between("DBLP.Publication", "ACM.Publication")
        assert len(found) == 1

    def test_compose_paths_via_intermediate(self, smm):
        # GS -> ACM must route through DBLP (inverting dblp-gs)
        paths = smm.find_compose_paths("GS.Publication", "ACM.Publication")
        assert ["dblp-gs~inv", "dblp-acm"] in paths

    def test_direct_path_shortest_first(self, smm):
        paths = smm.find_compose_paths("DBLP.Publication", "ACM.Publication")
        assert paths[0] == ["dblp-acm"]

    def test_resolve_path_inverts(self, smm):
        mappings = smm.resolve_path(["dblp-gs~inv", "dblp-acm"])
        assert mappings[0].domain == "GS.Publication"
        assert mappings[1].range == "ACM.Publication"

    def test_resolve_unknown_path(self, smm):
        with pytest.raises(KeyError):
            smm.resolve_path(["ghost"])

    def test_paths_missing_node(self, smm):
        assert smm.find_compose_paths("X", "Y") == []


@pytest.fixture
def mesh():
    """Four publication LDS; ``gs-cs`` is registered before ``acm-cs``
    so insertion order and name order disagree at CS."""
    model = SourceMappingModel()
    for physical in ("DBLP", "ACM", "GS", "CS"):
        model.create_source(physical, "Publication")
    model.create_source("DBLP", "Venue")
    for name, domain, range in (
        ("dblp-acm", "DBLP", "ACM"),
        ("dblp-gs", "DBLP", "GS"),
        ("gs-acm", "GS", "ACM"),
        ("gs-cs", "GS", "CS"),
        ("acm-cs", "ACM", "CS"),
    ):
        model.register_mapping(name, Mapping(f"{domain}.Publication",
                                             f"{range}.Publication"))
    return model


class TestComposePaths:
    """The compose-path query's answers, order included (§4.1.2)."""

    def test_equal_length_paths_follow_registration_order(self, mesh):
        assert mesh.find_compose_paths("DBLP.Publication", "CS.Publication") == [
            ["dblp-acm", "acm-cs"],
            ["dblp-gs", "gs-cs"],
        ]
        # CS met GS before ACM, although "ACM" sorts first
        assert mesh.find_compose_paths("CS.Publication", "DBLP.Publication") == [
            ["gs-cs~inv", "dblp-gs~inv"],
            ["acm-cs~inv", "dblp-acm~inv"],
        ]

    def test_shorter_paths_first(self, mesh):
        assert mesh.find_compose_paths("DBLP.Publication", "ACM.Publication") == [
            ["dblp-acm"],
            ["dblp-gs", "gs-acm"],
        ]

    def test_max_length_one(self, mesh):
        assert mesh.find_compose_paths("DBLP.Publication", "ACM.Publication",
                                       max_length=1) == [["dblp-acm"]]
        assert mesh.find_compose_paths("DBLP.Publication", "CS.Publication",
                                       max_length=1) == []

    def test_max_length_three(self, mesh):
        assert mesh.find_compose_paths("DBLP.Publication", "CS.Publication",
                                       max_length=3) == [
            ["dblp-acm", "acm-cs"],
            ["dblp-gs", "gs-cs"],
            ["dblp-acm", "gs-acm~inv", "gs-cs"],
            ["dblp-gs", "gs-acm", "acm-cs"],
        ]

    def test_pair_registered_twice_keeps_last_name(self, mesh):
        mesh.register_mapping("dblp-acm-2", Mapping("DBLP.Publication",
                                                    "ACM.Publication"))
        assert mesh.find_compose_paths("DBLP.Publication", "ACM.Publication",
                                       max_length=1) == [["dblp-acm-2"]]
        assert mesh.find_compose_paths("ACM.Publication", "DBLP.Publication",
                                       max_length=1) == [["dblp-acm-2~inv"]]

    def test_reverse_registration_overwrites_inverse_edge(self, mesh):
        # ACM->DBLP names both directions: its own edge replaces
        # dblp-acm~inv, its ~inv edge replaces dblp-acm
        mesh.register_mapping("acm-dblp", Mapping("ACM.Publication",
                                                  "DBLP.Publication"))
        assert mesh.find_compose_paths("ACM.Publication", "DBLP.Publication") == [
            ["acm-dblp"],
            ["gs-acm~inv", "dblp-gs~inv"],
        ]
        assert mesh.find_compose_paths("DBLP.Publication", "ACM.Publication") == [
            ["acm-dblp~inv"],
            ["dblp-gs", "gs-acm"],
        ]
        # the edge keeps its place among ACM's neighbours
        assert mesh.find_compose_paths("CS.Publication", "DBLP.Publication") == [
            ["gs-cs~inv", "dblp-gs~inv"],
            ["acm-cs~inv", "acm-dblp"],
        ]

    def test_self_and_association_mappings_excluded(self, mesh):
        mesh.register_mapping("dblp-self", Mapping("DBLP.Publication",
                                                   "DBLP.Publication"))
        mesh.register_mapping("pub-venue", Mapping(
            "DBLP.Publication", "DBLP.Venue", kind=MappingKind.ASSOCIATION))
        assert mesh.find_compose_paths("DBLP.Publication", "DBLP.Publication") == [[]]
        assert mesh.find_compose_paths("DBLP.Publication", "ACM.Publication") == [
            ["dblp-acm"],
            ["dblp-gs", "gs-acm"],
        ]
        assert mesh.find_compose_paths("DBLP.Publication", "DBLP.Venue") == []

    def test_unknown_nodes(self, mesh):
        assert mesh.find_compose_paths("X.Publication", "ACM.Publication") == []
        assert mesh.find_compose_paths("DBLP.Publication", "X.Publication") == []

    def test_source_is_target(self, mesh):
        # the one-node path: nothing to compose
        assert mesh.find_compose_paths("ACM.Publication", "ACM.Publication") == [[]]
