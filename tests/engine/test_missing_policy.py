"""Regression suite for the single-attribute missing-value policy.

``AttributeMatcher(missing="zero")`` was validated and documented but
silently dead: the policy never reached the :class:`MatchRequest`, and
the engine's ``score > 0`` filter made zero-scored pairs unobservable
anyway.  These tests pin the fixed contract:

* ``"zero"`` emits 0.0-score correspondences for missing-value pairs
  at ``threshold == 0`` — on the scalar path, the vectorized kernel
  path (in one slice or in many) and the sharded path, identically;
* ``"skip"`` stays byte-identical to the pre-fix behavior (missing
  pairs simply produce nothing);
* any positive threshold filters the zeros, so results there are
  unchanged by the policy.
"""

from __future__ import annotations

import pytest

from repro import AttributeMatcher
from repro.core.matchers.base import MatcherError
from repro.engine import BatchMatchEngine, EngineConfig
from repro.engine.request import AttributeSpec, MatchRequest
from repro.model.source import LogicalSource, ObjectType, PhysicalSource

SERIAL = BatchMatchEngine(EngineConfig(workers=1, chunk_size=16))
#: inline, each slice two of the nine pairs: missing and scored
#: pairs share slices, and the slices cut across both
SLICED = BatchMatchEngine(EngineConfig(workers=1, chunk_size=2))
SHARDED = BatchMatchEngine(EngineConfig(workers=4, chunk_size=16))
ENGINES = [SERIAL, SLICED, SHARDED]
ENGINE_IDS = ["serial", "sliced", "sharded"]


def _sources():
    domain = LogicalSource(PhysicalSource("L"), ObjectType("Publication"))
    range_ = LogicalSource(PhysicalSource("R"), ObjectType("Publication"))
    domain.add_record("a0", title="alpha beta gamma")
    domain.add_record("a1", title=None)
    domain.add_record("a2", title="delta epsilon")
    range_.add_record("b0", title="alpha beta gamma")
    range_.add_record("b1", title=None)
    range_.add_record("b2", title="unrelated zeta")
    return domain, range_


class TestZeroPolicy:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_zero_emits_missing_pairs_at_threshold_zero(self, engine):
        domain, range_ = _sources()
        matcher = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.0, missing="zero",
                                   engine=engine)
        mapping = matcher.match(domain, range_)
        # every pair with a missing side scores exactly 0.0
        expected_missing = {("a1", "b0"), ("a1", "b1"), ("a1", "b2"),
                            ("a0", "b1"), ("a2", "b1")}
        zero_pairs = {(a, b) for a, b, score in mapping.to_rows()
                      if score == 0.0}
        assert expected_missing <= zero_pairs
        for id_a, id_b in expected_missing:
            assert mapping.get(id_a, id_b) == 0.0

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_zero_and_skip_agree_on_positive_scores(self, engine):
        domain, range_ = _sources()
        zero = AttributeMatcher("title", similarity="trigram",
                                threshold=0.0, missing="zero",
                                engine=engine).match(domain, range_)
        skip = AttributeMatcher("title", similarity="trigram",
                                threshold=0.0, missing="skip",
                                engine=engine).match(domain, range_)
        assert {row for row in zero.to_rows() if row[2] > 0.0} \
            == set(skip.to_rows())

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_positive_threshold_hides_the_policy(self, engine):
        domain, range_ = _sources()
        zero = AttributeMatcher("title", similarity="trigram",
                                threshold=0.4, missing="zero",
                                engine=engine).match(domain, range_)
        skip = AttributeMatcher("title", similarity="trigram",
                                threshold=0.4, missing="skip",
                                engine=engine).match(domain, range_)
        assert zero.to_rows() == skip.to_rows()
        assert all(score > 0.0 for _, _, score in zero.to_rows())

    def test_serial_parallel_sharded_identical(self, dataset):
        """The policy is part of the request, so every execution path
        must apply it identically on a realistic workload."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        rows = None
        for engine in ENGINES:
            matcher = AttributeMatcher("year", similarity="year",
                                       threshold=0.0, missing="zero",
                                       engine=engine)
            result = matcher.match(dblp, acm).to_rows()
            if rows is None:
                rows = result
            assert result == rows

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_kernel_and_generic_paths_agree(self, engine,
                                            scalar_engine):
        """trigram rides the bit kernel; the same request scored by the
        scalar reference must surface the same rows."""
        domain, range_ = _sources()
        fast = AttributeMatcher("title", similarity="trigram",
                                threshold=0.0, missing="zero",
                                engine=engine).match(domain, range_)
        slow = AttributeMatcher("title", similarity="trigram",
                                threshold=0.0, missing="zero",
                                engine=scalar_engine).match(domain, range_)
        assert fast.to_rows() == slow.to_rows()

    def test_zero_policy_self_matching_stays_symmetric(self):
        domain, _ = _sources()
        matcher = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.0, missing="zero",
                                   engine=SHARDED)
        mapping = matcher.match(domain, domain)
        assert mapping.get("a1", "a0") == 0.0
        assert mapping.get("a0", "a1") == 0.0


class TestSkipPolicyUnchanged:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_skip_emits_nothing_for_missing(self, engine):
        domain, range_ = _sources()
        mapping = AttributeMatcher("title", similarity="trigram",
                                   threshold=0.0, missing="skip",
                                   engine=engine).match(domain, range_)
        assert all("a1" != a and "b1" != b for a, b in mapping.pairs())

    def test_skip_seed_scenario_unchanged(self, dataset):
        """The default policy's results on the seed workload are the
        pre-fix results (missing pairs produce nothing, zeros are
        filtered)."""
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        rows = None
        for engine in ENGINES:
            matcher = AttributeMatcher("title", similarity="trigram",
                                       threshold=0.4, engine=engine)
            result = matcher.match(dblp, acm).to_rows()
            if rows is None:
                rows = result
            assert result == rows
        assert all(score >= 0.4 for _, _, score in rows)


class TestRequestValidation:
    def test_request_rejects_unknown_policy(self):
        domain, range_ = _sources()
        from repro.sim.ngram import TrigramSimilarity
        with pytest.raises(ValueError):
            MatchRequest(domain=domain, range=range_,
                         specs=[AttributeSpec("title", "title",
                                              TrigramSimilarity())],
                         missing="ignore")

    def test_matcher_rejects_unknown_policy(self):
        with pytest.raises(MatcherError):
            AttributeMatcher("title", missing="ignore")

    def test_matcher_threads_policy_onto_request(self):
        matcher = AttributeMatcher("title", missing="zero")
        assert matcher.missing == "zero"
        captured = {}

        class Capture:
            def execute(self, request):
                captured["missing"] = request.missing
                from repro.core.mapping import Mapping
                return Mapping("L", "R")

        matcher.engine = Capture()
        domain, range_ = _sources()
        matcher.match(domain, range_)
        assert captured["missing"] == "zero"
