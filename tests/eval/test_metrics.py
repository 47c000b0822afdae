"""Tests for evaluation metrics."""

from dataclasses import asdict

import pytest
import reference_metrics as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import Mapping
from repro.eval.metrics import (
    evaluate,
    evaluate_pairs,
    f_measure,
    precision_recall_f1,
)


class TestFMeasure:
    def test_harmonic_mean(self):
        assert f_measure(1.0, 1.0) == 1.0
        assert f_measure(0.5, 1.0) == pytest.approx(2 / 3)

    def test_zero_case(self):
        assert f_measure(0.0, 0.0) == 0.0


class TestPrecisionRecall:
    def test_perfect(self):
        gold = {("a", "b"), ("c", "d")}
        assert precision_recall_f1(gold, gold) == (1.0, 1.0, 1.0)

    def test_half_precision(self):
        predicted = {("a", "b"), ("x", "y")}
        gold = {("a", "b"), ("c", "d")}
        precision, recall, f1 = precision_recall_f1(predicted, gold)
        assert precision == 0.5 and recall == 0.5 and f1 == 0.5

    def test_empty_prediction(self):
        assert precision_recall_f1(set(), {("a", "b")}) == (0.0, 0.0, 0.0)

    def test_empty_gold(self):
        precision, recall, f1 = precision_recall_f1({("a", "b")}, set())
        assert recall == 0.0


class TestEvaluate:
    def test_counts(self):
        predicted = Mapping.from_correspondences("A", "B", [
            ("a1", "b1", 1.0), ("a2", "bX", 0.9)])
        gold = Mapping.from_correspondences("A", "B", [
            ("a1", "b1", 1.0), ("a3", "b3", 1.0)])
        quality = evaluate(predicted, gold)
        assert quality.true_positives == 1
        assert quality.predicted == 2 and quality.gold == 2
        assert quality.precision == 0.5 and quality.recall == 0.5

    def test_similarities_ignored(self):
        predicted = Mapping.from_correspondences("A", "B", [("a", "b", 0.1)])
        gold = Mapping.from_correspondences("A", "B", [("a", "b", 1.0)])
        assert evaluate(predicted, gold).f1 == 1.0

    def test_restrict_filters_both_sides(self):
        predicted = Mapping.from_correspondences("A", "B", [
            ("conf1", "x", 1.0), ("jour1", "y", 1.0)])
        gold = Mapping.from_correspondences("A", "B", [
            ("conf1", "x", 1.0), ("jour1", "z", 1.0)])
        conference_only = evaluate(predicted, gold,
                                   restrict=lambda p: p[0].startswith("conf"))
        assert conference_only.f1 == 1.0
        assert conference_only.gold == 1

    def test_as_row(self):
        predicted = Mapping.from_correspondences("A", "B", [("a", "b", 1.0)])
        row = evaluate(predicted, predicted).as_row()
        assert row["f1"] == 1.0 and row["tp"] == 1

    def test_evaluate_pairs_direct(self):
        quality = evaluate_pairs({("a", "b")}, {("a", "b"), ("c", "d")})
        assert quality.recall == 0.5


# ----------------------------------------------------------------------
# the columnar evaluate against the set-based one (``reference_metrics``)
# ----------------------------------------------------------------------

_rows = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                           st.sampled_from([0.25, 0.5, 1.0])), max_size=30)


def _mapping(domain, range_, rows):
    return Mapping.from_correspondences(
        domain, range_, [(f"a{a}", f"b{b}", sim) for a, b, sim in rows])


class TestEvaluateAgainstSetReference:
    @settings(max_examples=200, deadline=None)
    @given(predicted=_rows, gold=_rows,
           gold_names=st.sampled_from([("E.A", "E.B"), ("Gold.A", "E.B"),
                                       ("Gold.A", "Gold.B")]),
           restricted=st.sampled_from([None, "even", "none"]),
           columnar=st.booleans())
    def test_every_field_equal(self, predicted, gold, gold_names, restricted,
                               columnar):
        """Empty sides, a restricted universe, gold under other source
        names (its codes mean other ids there), gold ids the predicted
        mapping's spaces never saw — and either form of the table."""
        predicted = _mapping("E.A", "E.B", predicted)
        gold = _mapping(*gold_names, gold)
        if columnar:
            predicted, gold = predicted.copy(), gold.copy()
        restrict = {
            None: None,
            "even": lambda pair: int(pair[0][1:]) % 2 == 0,
            "none": lambda pair: False,
        }[restricted]
        assert asdict(evaluate(predicted, gold, restrict=restrict)) == \
            asdict(reference.evaluate(predicted, gold, restrict=restrict))

    def test_foreign_gold_compares_ids_not_codes(self):
        """Gold interned under another name in another order: code 0
        is a different id on each side."""
        gold = Mapping.from_correspondences(
            "Other.A", "Other.B", [("z", "z", 1.0), ("a1", "b1", 1.0)])
        predicted = Mapping.from_correspondences(
            "Mine.A", "Mine.B", [("a1", "b1", 0.9), ("q", "q", 0.9)])
        quality = evaluate(predicted, gold)
        assert (quality.true_positives, quality.predicted, quality.gold) \
            == (1, 2, 2)
