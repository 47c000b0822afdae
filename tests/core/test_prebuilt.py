"""Tests for the declared evaluation workflow (``repro.core.prebuilt``)."""

import pytest

from repro.core.mapping import Mapping
from repro.core.prebuilt import evaluation_workflow
from repro.core.workflow import MatchContext, WorkflowError

#: the one input no step produces (§4.3's trivial same-mapping)
PROVIDED = "DBLP.AuthorAuthor"


@pytest.fixture(scope="module")
def workflow(dataset):
    return evaluation_workflow(dataset.smm)


@pytest.fixture(scope="module")
def context(dataset):
    authors = dataset.dblp.authors
    return MatchContext(smm=dataset.smm, mappings={
        PROVIDED: Mapping.identity(authors.name, authors.ids())})


class TestDeclarations:
    def test_every_input_is_declared_earlier_registered_or_provided(
            self, dataset, workflow):
        known = set(dataset.smm.mapping_names()) | {PROVIDED}
        for step in workflow.steps:
            missing = [ref for ref in step.reads() if ref not in known]
            assert not missing, f"{step.output} reads {missing} too early"
            assert step.output not in known, f"{step.output} declared twice"
            known.add(step.output)

    def test_outputs_name_what_and_the_two_sources(self, workflow):
        for step in workflow.steps:
            what, left, right = step.output.split("|")
            assert what and {left, right} <= {"DBLP", "ACM", "GS"}

    def test_the_identity_has_to_be_provided(self, dataset, workflow):
        with pytest.raises(WorkflowError, match=PROVIDED):
            workflow.output(MatchContext(smm=dataset.smm),
                            "author_duplicates|DBLP|DBLP")


class TestStrategies:
    """The F1 floors of the strategies (tiny scale)."""

    def test_publications_by_attributes(self, workflow, context, workbench):
        mapping = workflow.output(context, "pub_attributes|DBLP|ACM")
        quality = workbench.score(mapping, "publications", "DBLP", "ACM")
        assert quality.f1 >= 0.9
        # the cone ran, and only the cone
        for name in ("fuzzy_title|DBLP|ACM", "fuzzy_pub_authors|DBLP|ACM",
                     "year|DBLP|ACM"):
            assert name in context.workspace
        assert "pub_same|DBLP|ACM" not in context.workspace

    def test_venues_via_neighborhood(self, workflow, context, workbench):
        mapping = workflow.output(context, "venue_same|DBLP|ACM")
        quality = workbench.score(mapping, "venues", "DBLP", "ACM")
        assert quality.f1 >= 0.85

    def test_authors_via_neighborhood(self, workflow, context, workbench):
        mapping = workflow.output(context, "author_same|DBLP|ACM")
        quality = workbench.score(mapping, "authors", "DBLP", "ACM")
        assert quality.f1 >= 0.8

    def test_duplicate_authors_surface(self, dataset, workflow, context):
        mapping = workflow.output(context, "author_duplicates|DBLP|DBLP")
        assert all(a != b for a, b in mapping.pairs())
        gold = dataset.gold.get("author-duplicates", "DBLP.Author",
                                "DBLP.Author")
        ranked = sorted(mapping, key=lambda c: -c.similarity)
        top = {tuple(sorted((c.domain, c.range)))
               for c in ranked[:4 * len(gold.pairs())]}
        gold_pairs = {tuple(sorted(pair)) for pair in gold.pairs()}
        assert len(top & gold_pairs) / len(gold_pairs) >= 0.4
