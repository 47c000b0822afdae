"""Tests for the extended script builtins (symmetrize/closure/multiAttr)."""

import pytest

from repro.core.mapping import Mapping
from repro.model.smm import SourceMappingModel
from repro.script.errors import ScriptRuntimeError
from repro.script.interpreter import ScriptEngine


@pytest.fixture
def engine():
    smm = SourceMappingModel()
    pubs_l = smm.create_source("L", "Publication")
    pubs_r = smm.create_source("R", "Publication")
    pubs_l.add_record("p1", title="Adaptive Query Processing", year=2001)
    pubs_l.add_record("p2", title="Schema Matching", year=2002)
    pubs_r.add_record("q1", title="Adaptive Query Processing", year=2001)
    pubs_r.add_record("q2", title="Schema Matching", year=1995)
    return ScriptEngine(smm=smm)


class TestSymmetrizeClosure:
    def test_symmetrize(self, engine):
        engine.context.add_mapping("M", Mapping.from_correspondences(
            "L.Publication", "L.Publication", [("p1", "p2", 0.8)]))
        result = engine.run("$S = symmetrize(M)")
        assert result.get("p2", "p1") == 0.8

    def test_closure_builds_clusters(self, engine):
        engine.context.add_mapping("M", Mapping.from_correspondences(
            "L.Publication", "L.Publication",
            [("a", "b", 1.0), ("b", "c", 1.0)]))
        result = engine.run("$C = closure(M)")
        assert ("a", "c") in result.pairs()

    def test_closure_rejects_cross_source(self, engine):
        engine.context.add_mapping("M", Mapping.from_correspondences(
            "L.Publication", "R.Publication", [("p1", "q1", 1.0)]))
        with pytest.raises(ScriptRuntimeError) as excinfo:
            engine.run("$C = closure(M)")
        assert "self-mapping" in str(excinfo.value.__cause__ or excinfo.value)

    def test_dedup_pipeline_in_script(self, engine):
        """symmetrize + closure compose into the §5.6 dedup workflow."""
        result = engine.run(
            '$Raw = attrMatch(L.Publication, L.Publication, Trigram, 0.9, '
            '"[title]", "[title]")\n'
            "$Sym = symmetrize($Raw)\n"
            "$Clusters = closure($Sym)\n"
            "size($Clusters)"
        )
        assert result >= 0.0


class TestMultiAttrMatch:
    def test_title_and_year(self, engine):
        result = engine.run(
            '$M = multiAttrMatch(L.Publication, R.Publication, Trigram, '
            '0.9, "[title],[year]")')
        # p1/q1 agree on both; p2/q2 disagree on year -> below 0.9 avg
        assert ("p1", "q1") in result.pairs()
        assert ("p2", "q2") not in result.pairs()

    def test_separate_range_attributes(self, engine):
        result = engine.run(
            '$M = multiAttrMatch(L.Publication, R.Publication, Trigram, '
            '0.5, "[title],[year]", "[title],[year]")')
        assert len(result) >= 1

    def test_mismatched_lists_rejected(self, engine):
        with pytest.raises(ScriptRuntimeError):
            engine.run(
                '$M = multiAttrMatch(L.Publication, R.Publication, Trigram, '
                '0.5, "[title],[year]", "[title]")')

    def test_arity(self, engine):
        with pytest.raises(ScriptRuntimeError):
            engine.run("$M = multiAttrMatch(L.Publication, R.Publication)")
