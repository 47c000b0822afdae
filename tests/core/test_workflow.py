"""Tests for match workflows and the match context."""

import pytest

from repro.core.mapping import Mapping, MappingKind
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.matchers.base import MatcherError
from repro.core.matchers.neighborhood import neighborhood_match
from repro.core.operators.selection import NotIdentity, ThresholdSelection
from repro.core.operators.setops import symmetrize, transitive_closure
from repro.core.workflow import (
    CombineStep,
    MatchContext,
    MatcherStep,
    MatchWorkflow,
    SelectStep,
    StoreStep,
    WorkflowError,
)
from repro.model.cache import MappingCache
from repro.model.repository import MappingRepository
from repro.model.source import LogicalSource, ObjectType, PhysicalSource


@pytest.fixture
def sources():
    domain = LogicalSource(PhysicalSource("L"), ObjectType("Publication"))
    range_ = LogicalSource(PhysicalSource("R"), ObjectType("Publication"))
    domain.add_record("a1", title="Adaptive Query Processing", year=2001)
    domain.add_record("a2", title="Schema Matching", year=2002)
    range_.add_record("b1", title="Adaptive Query Processing", year=2001)
    range_.add_record("b2", title="Schema Matching", year=2002)
    range_.add_record("b3", title="Unrelated Work", year=1999)
    return domain, range_


@pytest.fixture
def context(sources):
    domain, range_ = sources
    ctx = MatchContext()
    ctx.add_source(domain)
    ctx.add_source(range_)
    return ctx


class TestMatchContext:
    def test_source_resolution(self, context):
        assert context.resolve_source("L.Publication") is not None

    def test_unknown_source(self, context):
        with pytest.raises(WorkflowError):
            context.resolve_source("Ghost.Publication")

    def test_mapping_resolution_order(self, context):
        provided = Mapping.from_correspondences(
            "L.Publication", "R.Publication", [("a1", "b1", 1.0)])
        context.add_mapping("input", provided)
        assert context.resolve_mapping("input") is provided
        # workspace shadows provided mappings
        shadow = Mapping("L.Publication", "R.Publication")
        context.publish("input", shadow)
        assert context.resolve_mapping("input") is shadow

    def test_mapping_objects_pass_through(self, context):
        mapping = Mapping("A", "B")
        assert context.resolve_mapping(mapping) is mapping

    def test_repository_fallback(self, sources):
        repository = MappingRepository()
        stored = Mapping.from_correspondences(
            "L.Publication", "R.Publication", [("a1", "b1", 0.9)])
        repository.save("persisted", stored)
        ctx = MatchContext(repository=repository)
        assert len(ctx.resolve_mapping("persisted")) == 1

    def test_unknown_mapping(self, context):
        with pytest.raises(WorkflowError):
            context.resolve_mapping("ghost")

    def test_find_is_resolve_without_the_error(self, context):
        assert context.find_source("L.Publication") is \
            context.resolve_source("L.Publication")
        assert context.find_source("Ghost.Publication") is None
        provided = Mapping("L.Publication", "R.Publication")
        context.add_mapping("input", provided)
        for name in ("input", "ghost"):
            before = context.cache.stats()
            found = context.find_mapping(name)
            between = context.cache.stats()
            try:
                resolved = context.resolve_mapping(name)
            except WorkflowError:
                resolved = None
            after = context.cache.stats()
            assert found is resolved
            # both walk the cache once: one miss each, provided or absent
            assert between["misses"] - before["misses"] == 1
            assert after["misses"] - between["misses"] == 1
            assert after["hits"] == before["hits"]
        context.publish("input", provided)
        before = context.cache.stats()
        assert context.find_mapping("input") is provided
        assert context.cache.stats() == before  # workspace shadows the cache

    def test_record_publishes_and_traces(self, context):
        mapping = Mapping.from_correspondences(
            "L.Publication", "R.Publication", [("a1", "b1", 1.0)])
        context.record("step one", "out", mapping)
        context.record("step two", None, mapping)
        assert context.resolve_mapping("out") is mapping
        assert context.cache.get("out") is mapping
        assert list(context.workspace) == ["out"]
        assert context.trace == ["step one -> out (1 correspondences)",
                                 "step two (1 correspondences)"]


class TestWorkflowSteps:
    def test_matcher_step(self, context):
        step = MatcherStep("titles", AttributeMatcher("title", threshold=0.8),
                           "L.Publication", "R.Publication")
        mapping = step.run(context)
        assert ("a1", "b1") in mapping.pairs()
        assert context.resolve_mapping("titles") is mapping

    def test_combine_step_merge_with_selection(self, context):
        first = Mapping.from_correspondences(
            "L.Publication", "R.Publication",
            [("a1", "b1", 1.0), ("a2", "b3", 0.4)])
        second = Mapping.from_correspondences(
            "L.Publication", "R.Publication", [("a1", "b1", 0.8)])
        context.add_mapping("first", first)
        context.add_mapping("second", second)
        step = CombineStep("merged", "merge", ["first", "second"],
                           {"function": "avg"},
                           [ThresholdSelection(0.5)])
        merged = step.run(context)
        assert merged.pairs() == {("a1", "b1")}

    def test_combine_step_compose(self, context):
        left = Mapping.from_correspondences("L.Publication", "X",
                                            [("a1", "x", 1.0)])
        right = Mapping.from_correspondences("X", "R.Publication",
                                             [("x", "b1", 0.9)])
        step = CombineStep("composed", "compose", [left, right],
                           {"f": "min", "g": "max"})
        composed = step.run(context)
        assert composed.get("a1", "b1") == pytest.approx(0.9)

    @pytest.mark.parametrize("operator, given", [
        ("compose", 1), ("compose", 3), ("neighborhood", 2),
        ("inverse", 2), ("symmetrize", 0), ("closure", 2)])
    def test_fixed_arity_checked(self, context, operator, given):
        step = CombineStep("bad", operator, [Mapping("A", "A")] * given, {})
        with pytest.raises(WorkflowError, match=f"{operator} expects"):
            step.run(context)

    def test_one_input_operators(self, context):
        pairs = Mapping.from_correspondences(
            "L.Publication", "L.Publication",
            [("a1", "a2", 0.9), ("a2", "a3", 0.7)])
        context.add_mapping("pairs", pairs)
        workflow = (MatchWorkflow("dups")
                    .add_inverse("back", "pairs")
                    .add_symmetrize("both", "pairs")
                    .add_closure("clusters", "both"))
        workflow.run(context)
        rows = {name: context.resolve_mapping(name).to_rows()
                for name in ("back", "both", "clusters")}
        assert rows == {
            "back": pairs.inverse().to_rows(),
            "both": symmetrize(pairs).to_rows(),
            "clusters": transitive_closure(symmetrize(pairs)).to_rows()}
        assert context.trace[-1] == \
            "closure(both) -> clusters (6 correspondences)"

    def test_reads_names_not_objects(self):
        by_value = Mapping("A", "B")
        matcher = AttributeMatcher("title")
        assert MatcherStep("m", matcher, "A", "B").reads() == []
        assert MatcherStep("m", matcher, "A", "B",
                           candidates=[("a", "b")]).reads() == []
        assert MatcherStep("m", matcher, "A", "B",
                           candidates=by_value).reads() == []
        assert MatcherStep("m", matcher, "A", "B",
                           candidates="blocked").reads() == ["blocked"]
        assert CombineStep("c", "merge", ["x", by_value, "y"]).reads() \
            == ["x", "y"]
        assert SelectStep("s", "x", []).reads() == ["x"]
        assert SelectStep("s", by_value, []).reads() == []
        assert StoreStep("x", "stored").reads() == ["x"]
        assert StoreStep(by_value, "stored").reads() == []

    def test_unknown_operator(self, context):
        step = CombineStep("bad", "cross", [Mapping("A", "B")], {})
        with pytest.raises(WorkflowError):
            step.run(context)

    def test_select_step(self, context):
        mapping = Mapping.from_correspondences(
            "L.Publication", "L.Publication",
            [("a1", "a1", 1.0), ("a1", "a2", 0.7)])
        context.add_mapping("selfmap", mapping)
        step = SelectStep("deduped", "selfmap", [NotIdentity()])
        assert step.run(context).pairs() == {("a1", "a2")}

    def test_store_step(self, sources):
        repository = MappingRepository()
        ctx = MatchContext(repository=repository)
        mapping = Mapping.from_correspondences("A", "B", [("a", "b", 1.0)])
        ctx.add_mapping("result", mapping)
        StoreStep("result", "final").run(ctx)
        assert "final" in repository
        # traced like any step, but a store names no result to publish
        assert ctx.trace == ["store 'final' (1 correspondences)"]
        assert ctx.workspace == {} and len(ctx.cache) == 0

    def test_store_without_repository(self, context):
        context.add_mapping("m", Mapping("A", "B"))
        with pytest.raises(WorkflowError):
            StoreStep("m", "out").run(context)


class TestMatchWorkflow:
    def test_fluent_workflow_end_to_end(self, context):
        workflow = (
            MatchWorkflow("pub-match")
            .add_matcher("titles", AttributeMatcher("title", threshold=0.5),
                         "L.Publication", "R.Publication")
            .add_matcher("years",
                         AttributeMatcher("year", similarity="exact",
                                          threshold=1.0),
                         "L.Publication", "R.Publication")
            .add_merge("merged", ["titles", "years"], function="avg0",
                       selections=[ThresholdSelection(0.8)])
        )
        result = workflow.run(context)
        assert result.pairs() == {("a1", "b1"), ("a2", "b2")}

    def test_result_name_override(self, context):
        workflow = MatchWorkflow("named", result="titles")
        workflow.add_matcher("titles",
                             AttributeMatcher("title", threshold=0.9),
                             "L.Publication", "R.Publication")
        workflow.add_select("weak", "titles", ThresholdSelection(0.99))
        result = workflow.run(context)
        assert result is context.resolve_mapping("titles")

    def test_empty_workflow_rejected(self, context):
        with pytest.raises(WorkflowError):
            MatchWorkflow("empty").run(context)

    def test_trace_records_steps(self, context):
        workflow = (
            MatchWorkflow("traced")
            .add_matcher("titles", AttributeMatcher("title", threshold=0.9),
                         "L.Publication", "R.Publication")
            .add_merge("merged", ["titles", "titles"], function="max")
            .add_select("strong", "merged", ThresholdSelection(0.95))
        )
        workflow.run(context)
        # one line per step, in order
        assert context.trace == [
            "matcher attr[title~trigram@0.9] L.Publication->R.Publication"
            " -> titles (2 correspondences)",
            "merge(titles, titles) -> merged (2 correspondences)",
            "select(merged) -> strong (2 correspondences)",
        ]

    def test_workflow_as_matcher(self, sources, context):
        domain, range_ = sources
        workflow = MatchWorkflow("inner").add_matcher(
            "titles", AttributeMatcher("title", threshold=0.9),
            "L.Publication", "R.Publication")
        matcher = workflow.as_matcher("L.Publication", "R.Publication",
                                      base_context=context)
        mapping = matcher.match(domain, range_)
        assert ("a1", "b1") in mapping.pairs()

    def test_workflow_name_required(self):
        with pytest.raises(ValueError):
            MatchWorkflow("")

    def test_cache_shared_between_steps(self, context):
        workflow = MatchWorkflow("cached").add_matcher(
            "titles", AttributeMatcher("title", threshold=0.5),
            "L.Publication", "R.Publication")
        workflow.run(context)
        assert context.cache.get("titles") is not None


class TestNeighborhoodStep:
    """The workflow step, the function and the script builtin are one
    operator (``CombineStep`` calls ``neighborhood_match``)."""

    @pytest.mark.parametrize("params, symbol", [
        ({}, ""), ({"g2": "relative_left"}, ", RelativeLeft")])
    def test_three_notations_agree(self, dataset, params, symbol):
        from repro.script import ScriptEngine

        same = dataset.gold.get("authors", "DBLP.Author", "GS.Author")
        context = MatchContext(smm=dataset.smm, mappings={"Same": same})
        step = (MatchWorkflow("nh").add_neighborhood(
            "pubs", "DBLP.PubAuthor", "Same", "GS.AuthorPub", **params)
            .output(context, "pubs"))
        direct = neighborhood_match(dataset.dblp.pub_author, same,
                                    dataset.gs.author_pub, **params)
        script = ScriptEngine(context).run(
            f"nhMatch(DBLP.PubAuthor, Same, GS.AuthorPub{symbol})")
        assert step.to_rows() == direct.to_rows() == script.to_rows() != []
        assert step.kind is MappingKind.SAME
        assert context.trace == [
            "neighborhood(DBLP.PubAuthor, Same, GS.AuthorPub) -> pubs "
            f"({len(direct)} correspondences)"]

    def test_mismatched_association_ends(self, dataset):
        same = dataset.gold.get("authors", "DBLP.Author", "GS.Author")
        context = MatchContext(smm=dataset.smm, mappings={"Same": same})
        for inputs in (["DBLP.AuthorPub", "Same", "GS.AuthorPub"],
                       ["DBLP.PubAuthor", "Same", "GS.PubAuthor"]):
            with pytest.raises(MatcherError):
                CombineStep("bad", "neighborhood", inputs).run(context)


def _outputs(trace):
    """The output names of a trace, one per step run, in order."""
    return [line.split(" -> ")[1].split(" (")[0] for line in trace]


class TestOutput:
    """``MatchWorkflow.output``: demand-driven, nothing runs twice."""

    @pytest.fixture
    def workflow(self):
        return (
            MatchWorkflow("demand")
            .add_matcher("titles", AttributeMatcher("title", threshold=0.5),
                         "L.Publication", "R.Publication")
            .add_matcher("years",
                         AttributeMatcher("year", similarity="exact",
                                          threshold=1.0),
                         "L.Publication", "R.Publication")
            .add_select("strong", "titles", ThresholdSelection(0.9))
            .add_merge("merged", ["strong", "years"], function="avg0"))

    def test_only_the_dependency_cone_runs(self, context, workflow):
        strong = workflow.output(context, "strong")
        assert strong.pairs() == {("a1", "b1"), ("a2", "b2")}
        # ``years`` and ``merged`` are declared, not asked for
        assert _outputs(context.trace) == ["titles", "strong"]

    def test_a_held_output_is_not_run_again(self, context, workflow):
        merged = workflow.output(context, "merged")
        ran = list(context.trace)
        assert len(ran) == 4
        assert workflow.output(context, "merged") is merged
        assert workflow.output(context, "titles") is \
            context.resolve_mapping("titles")
        assert context.trace == ran
        # ... nor what another context left in the shared cache
        later = MatchContext(cache=context.cache)
        assert workflow.output(later, "merged") is merged
        assert later.trace == []

    def test_provided_inputs_are_held(self, context, workflow):
        provided = Mapping.from_correspondences(
            "L.Publication", "R.Publication", [("a1", "b3", 1.0)])
        context.add_mapping("titles", provided)
        assert workflow.output(context, "strong").pairs() == {("a1", "b3")}
        assert len(context.trace) == 1

    def test_evicted_outputs_are_recomputed(self, sources, workflow):
        cache = MappingCache(max_entries=1)
        contexts = [MatchContext(cache=cache, sources={
            source.name: source for source in sources}) for _ in range(3)]
        merged = workflow.output(contexts[0], "merged")
        assert len(cache) == 1 and len(contexts[0].trace) == 4
        # a fresh workspace: only ``merged`` survived in the cache
        assert workflow.output(contexts[1], "merged") is merged
        strong = workflow.output(contexts[1], "strong")
        assert len(contexts[1].trace) == 2 and "strong" in cache
        # ``strong`` comes from the cache, ``years`` evicts it before
        # the merge step reads it: what was found stays held
        again = workflow.output(contexts[2], "merged")
        assert again.to_rows() == merged.to_rows()
        assert contexts[2].resolve_mapping("strong") is strong
        assert _outputs(contexts[2].trace) == ["years", "merged"]

    def test_unknown_name(self, context, workflow):
        with pytest.raises(WorkflowError, match="unknown mapping 'ghost'"):
            workflow.output(context, "ghost")
        workflow.add_select("weak", "ghost", ThresholdSelection(0.1))
        with pytest.raises(WorkflowError, match="unknown mapping 'ghost'"):
            workflow.output(context, "weak")

    def test_output_declared_twice(self, context, workflow):
        workflow.add_select("strong", "titles", ThresholdSelection(0.8))
        with pytest.raises(WorkflowError, match="declares 'strong' 2 times"):
            workflow.output(context, "strong")
        with pytest.raises(WorkflowError, match="declares 'strong' 2 times"):
            workflow.output(context, "merged")
        # ``run`` keeps its sequential meaning: the later step wins
        assert len(workflow.run(MatchContext(
            sources=context._sources))) == 2
