"""Tests for match workflows and the match context."""

import pytest

from repro.core.mapping import Mapping
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.operators.selection import NotIdentity, ThresholdSelection
from repro.core.workflow import (
    CombineStep,
    MatchContext,
    MatcherStep,
    MatchWorkflow,
    SelectStep,
    StoreStep,
    WorkflowError,
)
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

    def test_compose_arity_checked(self, context):
        step = CombineStep("bad", "compose", [Mapping("A", "B")], {})
        with pytest.raises(WorkflowError):
            step.run(context)

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
