"""Tests for the experiment workbench (the declared workflow over one
mapping cache)."""

import pytest

from repro.core.mapping import Mapping
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.workflow import MatcherStep, WorkflowError
from repro.eval import experiments
from repro.eval.experiments import Workbench
from repro.eval.experiments.common import ensure_workbench


class TestCaching:
    def test_fuzzy_title_cached(self, workbench):
        first = workbench.fuzzy_title("DBLP", "ACM")
        second = workbench.fuzzy_title("DBLP", "ACM")
        assert first is second

    def test_the_threshold_is_applied_to_the_floor_mapping(self, workbench):
        fuzzy = workbench.fuzzy_title("DBLP", "ACM")
        same = workbench.pub_same("DBLP", "ACM")
        assert len(fuzzy) > len(same) > 0
        assert min(similarity for _, _, similarity in same) >= 0.8
        assert min(similarity for _, _, similarity in fuzzy) >= 0.4

    def test_venue_selections_share_one_neighborhood(self, workbench):
        best1 = workbench.venue_same()
        threshold = workbench.mapping("venue_same_50|DBLP|ACM")
        assert best1 is workbench.venue_same()
        assert best1.to_rows() != [] and threshold is not best1
        assert sum("venue_nh|DBLP|ACM (" in line
                   for line in workbench.trace) == 1

    def test_accessors_are_name_lookups(self, workbench):
        assert workbench.gs_author_same("ACM") is \
            workbench.mapping("author_same|ACM|GS")
        with pytest.raises(WorkflowError, match="fuzzy_title.GS.ACM"):
            workbench.fuzzy_title("GS", "ACM")

    def test_constructing_runs_nothing(self, dataset):
        workbench = Workbench(dataset)
        assert workbench.trace == [] and len(workbench.cache) == 0
        assert workbench.cache.stats()["misses"] == 0


def _outputs(trace):
    return [line.split(" -> ")[1].split(" (")[0] for line in trace]


class TestEachStepRunsOnce:
    def test_a_pass_runs_every_declared_step_exactly_once(self, dataset,
                                                          monkeypatch):
        """Tables 2-10 and the extension share steps (the parent ran
        14 attribute matchers where 12 are distinct, and table 10 ran
        tables 4-8 again): a declared step runs for the first table
        that needs it, and for nobody after."""
        matched = []
        match = AttributeMatcher.match

        def counting(self, domain, range, *, candidates=None):
            matched.append(self)
            return match(self, domain, range, candidates=candidates)

        monkeypatch.setattr(AttributeMatcher, "match", counting)
        workbench = Workbench(dataset)
        runners = [getattr(experiments, f"run_table{n}")
                   for n in range(2, 10)]
        for runner in runners:
            runner(workbench)
        before_table10 = list(workbench.trace)
        experiments.run_table10(workbench)
        assert workbench.trace == before_table10
        experiments.run_self_mapping_extension(workbench)

        steps = workbench.workflow.steps
        # one trace line per declared step: nothing repeated, and no
        # declaration that no table reaches
        assert sorted(_outputs(workbench.trace)) == \
            sorted(step.output for step in steps)
        assert sorted(map(id, matched)) == sorted(
            id(step.matcher) for step in steps
            if isinstance(step, MatcherStep))
        assert workbench.cache.stats()["hits"] > 0

        ran = list(workbench.trace)
        for runner in runners + [experiments.run_table10,
                                 experiments.run_self_mapping_extension]:
            runner(workbench)
        assert workbench.trace == ran and len(matched) == 12


class TestResolution:
    def test_bundle_lookup(self, workbench):
        assert workbench.bundle("DBLP").name == "DBLP"
        with pytest.raises(KeyError):
            workbench.bundle("IEEE")

    def test_gold_resolution(self, workbench):
        gold = workbench.gold("publications", "DBLP", "ACM")
        assert isinstance(gold, Mapping)
        assert gold.domain == "DBLP.Publication"

    def test_score_matches_manual_evaluate(self, workbench):
        from repro.eval import evaluate
        mapping = workbench.pub_same("DBLP", "ACM")
        direct = evaluate(mapping, workbench.gold("publications",
                                                  "DBLP", "ACM"))
        via_workbench = workbench.score(mapping, "publications",
                                        "DBLP", "ACM")
        assert direct == via_workbench

    def test_venue_kinds(self, workbench):
        kinds = workbench.venue_kind_of_dblp_venue()
        assert set(kinds.values()) <= {"conference", "journal"}
        pub_kinds = workbench.venue_kind_of_pub("DBLP")
        assert set(pub_kinds.values()) <= {"conference", "journal"}
        assert len(pub_kinds) == len(workbench.bundle("DBLP").publications)


class TestEnsureWorkbench:
    def test_idempotent_on_workbench(self, workbench):
        assert ensure_workbench(workbench) is workbench

    def test_wraps_dataset(self, dataset):
        workbench = ensure_workbench(dataset)
        assert isinstance(workbench, Workbench)
        assert workbench.dataset is dataset


class TestGsAuthorSame:
    def test_person_name_mapping_quality(self, workbench):
        mapping = workbench.gs_author_same("DBLP")
        gold = workbench.gold("authors", "DBLP", "GS")
        quality = workbench.score(mapping, "authors", "DBLP", "GS")
        assert quality.f1 > 0.8
        assert gold  # sanity: gold non-empty
