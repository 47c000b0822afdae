"""Tests for the script interpreter."""

import pytest

from repro.core.mapping import Mapping, MappingKind
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.operators.selection import BestNSelection
from repro.core.workflow import MatchContext, MatchWorkflow
from repro.model.cache import MappingCache
from repro.model.smm import SourceMappingModel
from repro.script.errors import ScriptRuntimeError
from repro.script.interpreter import ScriptEngine


@pytest.fixture
def engine():
    smm = SourceMappingModel()
    pubs_a = smm.create_source("L", "Publication")
    pubs_b = smm.create_source("R", "Publication")
    pubs_a.add_record("p1", title="Adaptive Query Processing")
    pubs_a.add_record("p2", title="Schema Matching")
    pubs_b.add_record("q1", title="Adaptive Query Processing")
    pubs_b.add_record("q2", title="Schema Matching")
    smm.register_mapping(
        "L-R",
        Mapping.from_correspondences("L.Publication", "R.Publication",
                                     [("p1", "q1", 1.0), ("p2", "q2", 0.7)]),
    )
    return ScriptEngine(smm=smm)


class TestResolution:
    def test_mapping_identifier(self, engine):
        assert len(engine.resolve_identifier("L-R")) == 2

    def test_source_identifier(self, engine):
        source = engine.resolve_identifier("L.Publication")
        assert source.name == "L.Publication"

    def test_symbol_identifiers(self, engine):
        assert engine.resolve_identifier("Average") == "avg"
        assert engine.resolve_identifier("RelativeLeft") == "relative_left"
        assert engine.resolve_identifier("Min") == "min"

    def test_prefermap_symbol(self, engine):
        # a symbol like any other: merge parses the (1-based) index
        assert engine.resolve_identifier("PreferMap1") == "prefermap1"
        assert engine.resolve_identifier("PreferMap2") == "prefermap2"

    def test_identity_pattern(self, engine):
        identity = engine.resolve_identifier("L.PublicationPublication")
        assert identity.get("p1", "p1") == 1.0
        assert identity.is_self_mapping()

    def test_unknown_identifier(self, engine):
        with pytest.raises(ScriptRuntimeError):
            engine.resolve_identifier("No.Such.Thing")


class TestExecution:
    def test_assignment_and_variables(self, engine):
        engine.run("$X = L-R")
        assert len(engine.variables["X"]) == 2

    def test_last_value_returned(self, engine):
        result = engine.run("$X = L-R\nsize($X)")
        assert result == 2.0

    def test_undefined_variable(self, engine):
        with pytest.raises(ScriptRuntimeError):
            engine.run("$Y = $Missing")

    def test_unknown_function(self, engine):
        with pytest.raises(ScriptRuntimeError):
            engine.run("$X = frobnicate(L-R)")

    def test_procedure_definition_and_call(self, engine):
        result = engine.run(
            "PROCEDURE double($M)\n"
            "  $Out = merge($M, $M, Max)\n"
            "  RETURN $Out\n"
            "END\n"
            "$R = double(L-R)\n"
            "size($R)"
        )
        assert result == 2.0

    def test_procedure_locals_do_not_leak(self, engine):
        engine.run(
            "PROCEDURE probe($M)\n"
            "  $Local = $M\n"
            "  RETURN $Local\n"
            "END\n"
            "$X = probe(L-R)"
        )
        assert "Local" not in engine.variables

    def test_procedure_arity_checked(self, engine):
        engine.run("PROCEDURE two($A, $B)\nRETURN $A\nEND")
        with pytest.raises(ScriptRuntimeError):
            engine.call("two", Mapping("A", "B"))

    def test_procedure_without_return_gives_none(self, engine):
        result = engine.run("PROCEDURE silent($A)\n$X = $A\nEND\n"
                            "$Y = silent(L-R)")
        assert result is None

    def test_call_from_python(self, engine):
        mapping = engine.resolve_identifier("L-R")
        assert engine.call("size", mapping) == 2.0


class TestSharedContext:
    """Scripts and workflows are one tier: one environment, one trace."""

    def test_engine_holds_the_context_it_is_given(self, engine):
        context = MatchContext()
        assert ScriptEngine(context).context is context
        assert engine.context.smm is not None  # built from **environment
        with pytest.raises(TypeError):
            ScriptEngine(context, smm=SourceMappingModel())

    def test_workflow_and_script_resolve_each_other(self, engine):
        context = engine.context
        MatchWorkflow("first").add_matcher(
            "titles", AttributeMatcher("title", threshold=0.5),
            "L.Publication", "R.Publication").run(context)
        # the script reads the workflow's result by name ...
        strong = engine.run("$Strong = select(titles, 0.8)")
        assert strong is context.resolve_mapping("Strong")
        # ... and a later workflow reads the script's
        best = MatchWorkflow("second").add_select(
            "best", "Strong", BestNSelection(1)).run(context)
        assert best.pairs() == {("p1", "q1"), ("p2", "q2")}
        assert len(context.trace) == 3
        assert context.trace[0].startswith("matcher ")
        assert context.trace[1] == \
            "select(titles, 0.8) -> Strong (2 correspondences)"
        assert context.trace[2] == \
            "select(Strong) -> best (2 correspondences)"

    def test_script_sees_the_mapping_cache(self):
        cache = MappingCache()
        cached = Mapping.from_correspondences("A", "B", [("a", "b", 1.0)])
        cache.put("Shared", cached)
        engine = ScriptEngine(cache=cache)
        assert engine.run("$X = Shared") is cached
        assert cache.stats()["hits"] == 1

    def test_only_top_level_mapping_assignments_are_steps(self, engine):
        engine.run(
            "PROCEDURE probe($M)\n"
            "  $Local = inverse($M)\n"
            "  RETURN $Local\n"
            "END\n"
            "$X = probe(L-R)\n"
            "$N = size($X)\n"
            "size(L-R)"
        )
        context = engine.context
        assert set(context.workspace) == {"X"}
        assert context.trace == ["probe(L-R) -> X (2 correspondences)"]
        assert engine.variables["N"] == 2.0
        with pytest.raises(ScriptRuntimeError):
            engine.resolve_identifier("Local")
        with pytest.raises(ScriptRuntimeError):
            engine.resolve_identifier("N")


class TestPaperScript:
    def test_nhmatch_as_user_procedure_matches_builtin(self, engine):
        asso = Mapping.from_correspondences(
            "L.Publication", "L.Publication",
            [("p1", "p2", 1.0), ("p2", "p1", 1.0)],
            kind=MappingKind.ASSOCIATION)
        engine.context.add_mapping("Asso", asso)
        engine.run(
            "PROCEDURE myMatch ( $Asso1, $Same, $Asso2)\n"
            "   $Temp = compose ( $Asso1 , $Same , Min, Average )\n"
            "   $Result = compose ( $Temp , $Asso2 , Min, Relative )\n"
            "   RETURN $Result\n"
            "END\n"
            "$Mine = myMatch(Asso, L.PublicationPublication, Asso)\n"
            "$Builtin = nhMatch(Asso, L.PublicationPublication, Asso)\n"
        )
        assert engine.variables["Mine"].to_rows() == \
            engine.variables["Builtin"].to_rows()
