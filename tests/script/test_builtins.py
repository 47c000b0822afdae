"""Tests for script builtins."""

import pytest

from repro.core.mapping import Mapping
from repro.model.repository import MappingRepository
from repro.model.smm import SourceMappingModel
from repro.script.errors import ScriptRuntimeError
from repro.script.interpreter import ScriptEngine


@pytest.fixture
def engine():
    smm = SourceMappingModel()
    authors_l = smm.create_source("L", "Author")
    authors_r = smm.create_source("R", "Author")
    authors_l.add_record("a1", name="John Smith", year=2001)
    authors_l.add_record("a2", name="Jane Miller", year=2002)
    authors_r.add_record("b1", name="John Smith", year=2001)
    authors_r.add_record("b2", name="Jane Miler", year=2003)
    return ScriptEngine(smm=smm, repository=MappingRepository())


class TestAttrMatch:
    def test_basic(self, engine):
        mapping = engine.run(
            '$M = attrMatch(L.Author, R.Author, Trigram, 0.5, '
            '"[name]", "[name]")')
        assert mapping.get("a1", "b1") == 1.0
        assert mapping.get("a2", "b2") > 0.5

    def test_threshold_respected(self, engine):
        mapping = engine.run(
            '$M = attrMatch(L.Author, R.Author, Trigram, 0.99, '
            '"[name]", "[name]")')
        assert ("a2", "b2") not in mapping.pairs()

    def test_arity_error(self, engine):
        with pytest.raises(ScriptRuntimeError):
            engine.run("$M = attrMatch(L.Author)")

    def test_source_type_checked(self, engine):
        with pytest.raises(ScriptRuntimeError):
            engine.run('$M = attrMatch(Min, R.Author, Trigram, 0.5, "[name]")')


class TestMergeComposeSelect:
    def test_merge_with_function_symbol(self, engine):
        first = Mapping.from_correspondences("L.Author", "R.Author",
                                             [("a1", "b1", 1.0)])
        second = Mapping.from_correspondences("L.Author", "R.Author",
                                              [("a1", "b1", 0.5)])
        engine.context.add_mapping("First", first)
        engine.context.add_mapping("Second", second)
        merged = engine.run("$M = merge(First, Second, Average)")
        assert merged.get("a1", "b1") == pytest.approx(0.75)

    def test_merge_prefermap(self, engine):
        first = Mapping.from_correspondences("L.Author", "R.Author",
                                             [("a1", "b1", 1.0)])
        second = Mapping.from_correspondences("L.Author", "R.Author",
                                              [("a1", "b2", 0.9),
                                               ("a2", "b2", 0.8)])
        engine.context.add_mapping("First", first)
        engine.context.add_mapping("Second", second)
        merged = engine.run("$M = merge(First, Second, PreferMap1)")
        assert merged.pairs() == {("a1", "b1"), ("a2", "b2")}

    def test_compose_defaults(self, engine):
        left = Mapping.from_correspondences("L.Author", "X", [("a1", "x", 1.0)])
        right = Mapping.from_correspondences("X", "R.Author", [("x", "b1", 0.8)])
        engine.context.add_mapping("Left", left)
        engine.context.add_mapping("Right", right)
        composed = engine.run("$C = compose(Left, Right)")
        assert composed.get("a1", "b1") == pytest.approx(0.8)

    def test_select_threshold_number(self, engine):
        mapping = Mapping.from_correspondences("L.Author", "R.Author",
                                               [("a1", "b1", 0.9),
                                                ("a2", "b2", 0.4)])
        engine.context.add_mapping("M", mapping)
        selected = engine.run("$S = select(M, 0.5)")
        assert selected.pairs() == {("a1", "b1")}

    def test_select_best_n(self, engine):
        mapping = Mapping.from_correspondences("L.Author", "R.Author",
                                               [("a1", "b1", 0.9),
                                                ("a1", "b2", 0.5)])
        engine.context.add_mapping("M", mapping)
        selected = engine.run('$S = select(M, "best-1")')
        assert selected.pairs() == {("a1", "b1")}

    def test_select_identity_constraint(self, engine):
        mapping = Mapping.from_correspondences("L.Author", "L.Author",
                                               [("a1", "a1", 1.0),
                                                ("a1", "a2", 0.8)])
        engine.context.add_mapping("M", mapping)
        selected = engine.run('$S = select(M, "[domain.id]<>[range.id]")')
        assert selected.pairs() == {("a1", "a2")}

    def test_select_attribute_constraint(self, engine):
        mapping = Mapping.from_correspondences("L.Author", "R.Author",
                                               [("a1", "b1", 1.0),
                                                ("a2", "b2", 1.0)])
        engine.context.add_mapping("M", mapping)
        selected = engine.run(
            '$S = select(M, "[domain.year]-[range.year]<=0.5")')
        assert selected.pairs() == {("a1", "b1")}


class TestUtilities:
    def test_inverse(self, engine):
        engine.context.add_mapping("M", Mapping.from_correspondences(
            "L.Author", "R.Author", [("a1", "b1", 0.9)]))
        inverted = engine.run("$I = inverse(M)")
        assert inverted.get("b1", "a1") == 0.9

    def test_identity(self, engine):
        identity = engine.run("$I = identity(L.Author)")
        assert identity.get("a1", "a1") == 1.0

    def test_store_and_load(self, engine):
        engine.context.add_mapping("M", Mapping.from_correspondences(
            "L.Author", "R.Author", [("a1", "b1", 0.9)]))
        engine.run('store(M, "persisted")')
        loaded = engine.run('$L = load("persisted")')
        assert loaded.get("a1", "b1") == 0.9

    def test_store_requires_repository(self):
        engine = ScriptEngine()
        engine.context.add_mapping("M", Mapping("A", "B"))
        with pytest.raises(ScriptRuntimeError):
            engine.run('store(M, "x")')

    def test_bestn_builtin(self, engine):
        engine.context.add_mapping("M", Mapping.from_correspondences(
            "L.Author", "R.Author",
            [("a1", "b1", 0.9), ("a1", "b2", 0.5)]))
        best = engine.run("$B = bestN(M, 1)")
        assert best.pairs() == {("a1", "b1")}

    def test_size(self, engine):
        engine.context.add_mapping("M", Mapping.from_correspondences(
            "L.Author", "R.Author", [("a1", "b1", 0.9)]))
        assert engine.run("size(M)") == 1.0
