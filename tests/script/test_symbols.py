"""A script symbol is whatever the registries know — nothing else.

The interpreter keeps no table of its own: these tests walk the
similarity registry, ``get_combination``'s aliases and compose's
aggregates, so a name added to (or dropped from) one of them is added
to (or dropped from) the script language with it.
"""

import pytest

from repro.core.mapping import Mapping
from repro.core.operators.compose import (
    _PATH_AGGREGATES,
    compose,
    normalize_aggregate,
)
from repro.core.operators.functions import _ALIASES, get_combination
from repro.core.operators.merge import merge
from repro.model.smm import SourceMappingModel
from repro.script.errors import ScriptRuntimeError
from repro.script.interpreter import ScriptEngine
from repro.sim import registry
from repro.sim.base import SimilarityFunction


@pytest.fixture
def engine():
    smm = SourceMappingModel()
    authors_l = smm.create_source("L", "Author")
    authors_r = smm.create_source("R", "Author")
    authors_l.add_record("a1", name="John Smith")
    authors_l.add_record("a2", name="Jane Miller")
    authors_r.add_record("b1", name="John Smith")
    authors_r.add_record("b2", name="Jane Miler")
    engine = ScriptEngine(smm=smm)
    first = Mapping.from_correspondences(
        "L.Author", "R.Author",
        [("a1", "b1", 1.0), ("a2", "b2", 0.8)])
    second = Mapping.from_correspondences(
        "L.Author", "R.Author",
        [("a1", "b1", 0.6), ("a1", "b2", 1.0), ("a2", "b1", 0.4)])
    engine.context.add_mapping("First", first)
    engine.context.add_mapping("Second", second)
    engine.context.add_mapping("Back", second.inverse())
    return engine


class TestSimilarities:
    @pytest.mark.parametrize("name", registry.available_similarities())
    def test_every_registered_name_is_a_symbol(self, engine, name):
        assert engine.resolve_identifier(name.capitalize()) == name
        mapping = engine.run(
            f'$M = attrMatch(L.Author, R.Author, {name.capitalize()}, '
            '0.5, "[name]")')
        assert isinstance(mapping, Mapping)

    def test_a_plugged_in_similarity_is_a_symbol(self, engine):
        class SameInitial(SimilarityFunction):
            name = "same_initial"

            def _score(self, a, b):
                return 1.0 if str(a)[:1] == str(b)[:1] else 0.0

        with pytest.raises(ScriptRuntimeError):
            engine.resolve_identifier("Same_Initial")
        registry.register_similarity("Same_Initial",
                                     lambda **kw: SameInitial())
        try:
            assert engine.resolve_identifier("Same_Initial") == "same_initial"
            mapping = engine.run(
                '$M = attrMatch(L.Author, R.Author, Same_Initial, 1.0, '
                '"[name]")')
        finally:
            del registry._FACTORIES["same_initial"]
        assert mapping.pairs() == {("a1", "b1"), ("a1", "b2"),
                                   ("a2", "b1"), ("a2", "b2")}


class TestCombinationsAndAggregates:
    @pytest.mark.parametrize("alias", sorted(_ALIASES))
    def test_every_combination_alias(self, engine, alias):
        symbol = engine.resolve_identifier(alias.title())
        assert symbol == get_combination(alias).name
        scripted = engine.run(f"$M = merge(First, Second, {alias.title()})")
        first, second = (engine.resolve_identifier(name)
                         for name in ("First", "Second"))
        assert scripted.to_rows() == merge([first, second], alias).to_rows()

    @pytest.mark.parametrize("spelling",
                             sorted(_PATH_AGGREGATES)
                             + ["relative_left", "Relative-Right"])
    def test_every_compose_aggregate(self, engine, spelling):
        assert engine.resolve_identifier(spelling.title()) == \
            normalize_aggregate(spelling)
        scripted = engine.run(
            f"$C = compose(First, Back, Min, {spelling.title()})")
        first, back = (engine.resolve_identifier(name)
                       for name in ("First", "Back"))
        assert scripted.to_rows() == \
            compose(first, back, "min", spelling).to_rows()

    def test_the_aliases_the_old_table_missed_are_walked(self):
        assert {"intersect", "union", "avg-0"} <= set(_ALIASES)

    def test_weighted_is_known_but_needs_weights(self, engine):
        assert engine.resolve_identifier("Weighted") == "weighted"
        assert engine.resolve_identifier("Weighted0") == "weighted0"

    def test_best_n(self, engine):
        assert engine.run("$B = select(First, Best1)").to_rows() == \
            engine.run('$B = select(First, "best-1")').to_rows()


class TestPreferMap:
    @pytest.mark.parametrize("symbol, index",
                             [("PreferMap1", 0), ("PreferMap2", 1),
                              ("PreferMap", 0), ("Prefer", 0)])
    def test_script_equals_python(self, engine, symbol, index):
        first, second = (engine.resolve_identifier(name)
                         for name in ("First", "Second"))
        expected = merge([first, second], "prefer", prefer=index).to_rows()
        assert merge([first, second], symbol).to_rows() == expected
        assert engine.run(
            f"$M = merge(First, Second, {symbol})").to_rows() == expected

    def test_index_outside_the_inputs(self, engine):
        with pytest.raises(ValueError):
            engine.run("$M = merge(First, Second, PreferMap3)")

    @pytest.mark.parametrize("name", ["Preferences", "PreferMapX",
                                      "Bestest", "Trigrams"])
    def test_near_misses_are_unknown_identifiers(self, engine, name):
        with pytest.raises(ScriptRuntimeError, match="known symbol"):
            engine.resolve_identifier(name)
