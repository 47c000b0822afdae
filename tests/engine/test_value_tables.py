"""Value codes and score tables: a table answers what its kernel scores.

A bound column that carries both sides' value codes
(:func:`repro.engine.columns.value_codes`) can fill a table over the
distinct value pairs (:meth:`_Column.tabulate`) and answer
``score_rows`` from it.  The table is filled by the column kind's own
``kernel_rows``, so the two paths must agree bit for bit — for every
similarity of the registry, with missing values, the literal text
``"None"``, repeated values and values that differ as objects but not
as texts.  Who decides is the engine's plan: a grid of as many cells as
the request has rows is tabulated, one cell more is not; a composed
kernel evaluates tabled columns first, which — like any other
evaluation order — must not change what survives.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import TokenBlocking
from repro.core.operators.functions import (
    CombinationFunction,
    get_combination,
)
from repro.engine import BatchMatchEngine, EngineConfig, columns
from repro.engine.columns import (
    ScalarColumn,
    build_column,
    survivors,
    value_codes,
)
from repro.engine.request import AttributeSpec, MatchRequest
from repro.engine.vectorized import MultiSpecKernel, request_kernel
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim import available_similarities, get_similarity
from repro.sim.base import SimilarityFunction
from repro.sim.edit import LevenshteinSimilarity
from repro.sim.ngram import DiceNGram, TrigramSimilarity

REFERENCE = ["Adaptive Query Processing", "adaptive query optimization",
             None, "None", "Rahm, Erhard", "E. Rahm", "2004", 2004, 2004.0,
             "1", 1, 1.0, "", "adaptive query optimization", None, "a"]
QUERIES = ["adaptive query procesing", None, "None", "Erhard Rahm", 2003,
           "2004", "1.0", 1, "", "VLDB 2004", "adaptive query procesing"]


class Containment(SimilarityFunction):
    """Asymmetric: the share of ``a``'s characters found in ``b``."""

    name = "containment"

    def _score(self, a: str, b: str) -> float:
        return sum(1 for char in a if char in b) / len(a) if a else 0.0


class TestValueCodes:
    def test_codes_follow_the_coerced_text(self):
        codes, rows, texts = value_codes(
            [1, "1", 1.0, None, "None", "1.0", None, "x", 1])
        # 1 and "1" are one text, 1.0 and "1.0" another; None is
        # missing and not the text "None"
        assert codes.tolist() == [0, 0, 1, -1, 2, 1, -1, 3, 0]
        assert rows.tolist() == [0, 2, 4, 7]
        assert texts == ["1", "1.0", "None", "x"]

    def test_a_missing_value_before_its_literal_text(self):
        codes, rows, texts = value_codes([None, "None", None])
        assert codes.tolist() == [-1, 0, -1]
        assert rows.tolist() == [1] and texts == ["None"]

    @pytest.mark.parametrize("values", [[], [None, None]])
    def test_nothing_to_code(self, values):
        codes, rows, texts = value_codes(values)
        assert codes.tolist() == [-1] * len(values)
        assert codes.dtype == rows.dtype == np.int64
        assert len(rows) == 0 and texts == []

    def test_the_scalar_column_packs_from_kept_codes(self):
        kept = value_codes(REFERENCE)
        column = ScalarColumn(get_similarity("exact"), REFERENCE, kept)
        assert column.range is kept
        fresh = ScalarColumn(get_similarity("exact"), REFERENCE).range
        assert fresh.codes.tolist() == kept.codes.tolist()
        assert fresh.texts == kept.texts \
            == [str(REFERENCE[row]) for row in kept.rows.tolist()]


def _bound(sim, reference, queries):
    sim.prepare([str(value) for value in reference + queries
                 if value is not None])
    column = build_column(sim, reference).bind(queries)
    column.codes = (value_codes(queries), value_codes(reference))
    return column


def _every_pair(queries, reference):
    return (np.repeat(np.arange(len(queries)), len(reference)),
            np.tile(np.arange(len(reference)), len(queries)))


class TestTableEqualsKernel:
    def test_the_registry_has_nineteen_names(self):
        assert len(available_similarities()) == 19

    @pytest.mark.parametrize("flipped", [False, True],
                             ids=["reference-range", "reference-domain"])
    @pytest.mark.parametrize("name", available_similarities())
    def test_bitwise_for_every_similarity(self, name, flipped):
        reference, queries = (QUERIES, REFERENCE) if flipped \
            else (REFERENCE, QUERIES)
        column = _bound(get_similarity(name), reference, queries)
        rows_a, rows_b = _every_pair(queries, reference)
        kernel = column.kernel_rows(rows_a, rows_b)
        assert column.score_rows(rows_a, rows_b).tobytes() == kernel.tobytes()
        column.tabulate()
        scores = column.score_rows(rows_a, rows_b)
        assert scores.dtype == np.float64
        assert scores.tobytes() == kernel.tobytes()
        # missing values score exact +0.0, "None" the text does not
        assert not scores[column.missing_rows(rows_a, rows_b)].any()
        shuffled = np.random.default_rng(7).permutation(len(rows_a))[:40]
        assert column.score_rows(rows_a[shuffled], rows_b[shuffled]) \
            .tobytes() == kernel[shuffled].tobytes()
        assert column.score_rows(rows_a[:0], rows_b[:0]).shape == (0,)

    def test_both_orientations_of_an_asymmetric_similarity(self):
        forward = _bound(Containment(), REFERENCE, QUERIES)
        backward = _bound(Containment(), QUERIES, REFERENCE)
        rows_a, rows_b = _every_pair(QUERIES, REFERENCE)
        plain = (forward.kernel_rows(rows_a, rows_b),
                 backward.kernel_rows(rows_b, rows_a))
        assert plain[0].tobytes() != plain[1].tobytes()
        forward.tabulate()
        backward.tabulate()
        assert forward.score_rows(rows_a, rows_b).tobytes() \
            == plain[0].tobytes()
        assert backward.score_rows(rows_b, rows_a).tobytes() \
            == plain[1].tobytes()

    @pytest.mark.parametrize("name", ["trigram", "tfidf", "year"])
    def test_self_matching_alias_shares_one_coding(self, name):
        sim = get_similarity(name)
        sim.prepare([str(v) for v in REFERENCE if v is not None])
        column = build_column(sim, REFERENCE).bind(REFERENCE)
        assert column.domain is column.range
        codes = value_codes(REFERENCE)
        column.codes = (codes, codes)
        rows_a, rows_b = _every_pair(REFERENCE, REFERENCE)
        kernel = column.kernel_rows(rows_a, rows_b)
        column.tabulate()
        assert column.score_rows(rows_a, rows_b).tobytes() == kernel.tobytes()

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("name", ["trigram", "tfidf", "exact"])
    def test_a_table_fills_in_kernel_sized_blocks(self, name, block,
                                                  monkeypatch):
        """No ``kernel_rows`` call over the grid gathers more than
        :data:`SLICE_ROWS` pairs — a block may end mid-row — and
        the table is bitwise the one a single call over the grid
        fills."""
        if block is not None:
            monkeypatch.setattr(columns, "SLICE_ROWS", block)
        reference = [f"stream join {index:03d}" for index in range(150)] \
            + REFERENCE
        queries = [f"streams joined {index:03d}" for index in range(60)] \
            + QUERIES
        column = _bound(get_similarity(name), reference, queries)
        kernel_rows = column.kernel_rows
        calls = []

        def recording(rows_a, rows_b):
            calls.append(len(rows_a))
            return kernel_rows(rows_a, rows_b)

        column.kernel_rows = recording
        column.tabulate()
        (codes_a, rows_a, _), (codes_b, rows_b, _) = column.codes
        cells = len(rows_a) * len(rows_b)
        assert cells > columns.SLICE_ROWS
        assert sum(calls) == cells
        assert max(calls) == columns.SLICE_ROWS
        one_call = np.zeros((len(rows_a) + 1, len(rows_b) + 1))
        one_call[:-1, :-1] = kernel_rows(
            np.repeat(rows_a, len(rows_b)), np.tile(rows_b, len(rows_a))
        ).reshape(len(rows_a), len(rows_b))
        assert column.table[2].tobytes() == one_call.ravel().tobytes()

    def test_an_all_missing_side_tabulates_to_zeros(self):
        column = _bound(get_similarity("exact"), [None, None], ["a", None])
        column.tabulate()
        rows_a, rows_b = _every_pair(["a", None], [None, None])
        assert column.score_rows(rows_a, rows_b).tolist() == [0.0] * 4

    def test_binding_again_starts_without_codes_or_table(self):
        column = _bound(get_similarity("exact"), REFERENCE, QUERIES)
        column.tabulate()
        again = column.bind(["2004", "zzz"])
        assert again.codes is None and again.table is None
        assert again.score_rows(np.asarray([0, 1]), np.asarray([6, 6])) \
            .tolist() == [1.0, 0.0]


# ----------------------------------------------------------------------
# who decides: the engine's plan
# ----------------------------------------------------------------------

def _source(name, records):
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for index, attributes in enumerate(records):
        source.add_record(f"{name.lower()}{index}", **attributes)
    return source


def _publications(n_domain=48, n_range=40):
    venues = ["VLDB", "SIGMOD", "ICDE", None, "vldb journal", "None"]

    def records(count, shift):
        return [dict(title=f"adaptive stream join zebra{(i + shift) % 31:03d}"
                           f" part {i % 4}",
                     venue=venues[(i + shift) % len(venues)],
                     year=None if i % 11 == 0 else 1995 + (i + shift) % 6)
                for i in range(count)]

    return (_source("Dom", records(n_domain, 0)),
            _source("Ran", records(n_range, 3)))


def _multi_request(domain, range_, **kwargs):
    return MatchRequest(
        domain=domain, range=range_, threshold=0.5,
        specs=[AttributeSpec("title", "title", TrigramSimilarity()),
               AttributeSpec("venue", "venue", get_similarity("tfidf")),
               AttributeSpec("year", "year", get_similarity("year"))],
        combiner=get_combination("weighted", weights=[1.0, 2.0, 0.5]),
        **kwargs)


class TestThePlanDecides:
    def test_a_grid_of_exactly_the_planned_rows_is_tabulated(self):
        domain, range_ = _publications()
        spec = AttributeSpec("year", "year", LevenshteinSimilarity())
        request = MatchRequest(domain=domain, range=range_, specs=[spec],
                               threshold=0.0)
        cells = 6 * 6  # distinct years on either side
        assert request_kernel(request, cells - 1).table is None
        assert request_kernel(request, cells).table is not None
        assert request_kernel(request).table is None  # cost unknown

    @pytest.mark.parametrize("extra, tabled", [(0, True), (-1, False)])
    def test_engine_counts_the_candidates(self, extra, tabled):
        domain, range_ = _publications()
        pairs = [(a, b) for a in domain.ids()[1:] for b in range_.ids()]
        pairs = pairs[:36 + extra]
        engine = BatchMatchEngine(EngineConfig(profile=True))
        spec = AttributeSpec("year", "year", LevenshteinSimilarity())
        result = engine.execute(MatchRequest(
            domain=domain, range=range_, specs=[spec], threshold=0.0,
            candidates=pairs))
        assert engine.profile_summary()["columns"] == [
            {"kind": "ScalarColumn", "distinct": [6, 6], "table": tabled}]
        streamed = engine.execute(MatchRequest(
            domain=domain, range=range_, specs=[spec], threshold=0.0,
            candidates=iter(pairs)))
        assert engine.profile_summary()["columns"][0]["table"] is False
        assert list(streamed) == list(result) and len(result)

    def test_a_kept_column_stays_tabulated(self):
        domain, range_ = _publications()
        engine = BatchMatchEngine(EngineConfig(profile=True))

        def run(**kwargs):
            mapping = engine.execute(MatchRequest(
                domain=domain, range=range_, threshold=0.3,
                specs=[AttributeSpec("venue", "venue", DiceNGram())],
                **kwargs))
            return mapping, engine.profile_summary()["columns"][0]["table"]

        few = [(domain.ids()[0], range_.ids()[0])]
        _, tabled = run(candidates=few)
        assert tabled is False
        full, tabled = run()  # 48 x 40 rows over a 5 x 5 grid
        assert tabled is True
        confined, tabled = run(candidates=few)
        assert tabled is True  # found on the kept column
        assert set(confined) <= set(full)

    def test_mixed_request_serial_and_sharded_agree(self, scalar_reference):
        domain, range_ = _publications(96, 80)
        rows = {}
        for label, config in [
                ("serial", dict(workers=1)), ("sharded", dict(workers=2))]:
            engine = BatchMatchEngine(EngineConfig(
                chunk_size=256, profile=True, **config))
            fresh = (domain.subset(domain.ids()),
                     range_.subset(range_.ids()))
            rows[label] = engine.execute(_multi_request(
                *fresh, blocking=TokenBlocking(max_df=0.9))).to_rows()
            columns = engine.profile_summary()["columns"]
            # tabled venue and year first, the title kernel last
            assert [(column["kind"], column["table"]) for column in columns] \
                == [("TfIdfColumn", True), ("ScalarColumn", True),
                    ("NGramColumn", False)]
        assert rows["serial"] == rows["sharded"]
        assert rows["serial"] == scalar_reference(_multi_request(
            domain, range_, blocking=TokenBlocking(max_df=0.9))).to_rows()
        assert rows["serial"]


# ----------------------------------------------------------------------
# evaluation order
# ----------------------------------------------------------------------

class _Third(CombinationFunction):
    """A custom combiner: no bound formula, so no prefilter."""

    def combine(self, scores):
        present = [score for score in scores if score is not None]
        return sum(present) / 3.0 if present else None


_DOMAIN, _RANGE = _publications(30, 26)
_ROWS = _every_pair(_DOMAIN.ids(), _RANGE.ids())
_COMBINERS = {
    name: get_combination(name) for name in
    ("avg", "avg0", "min", "min0", "max")}
_COMBINERS["weighted"] = get_combination("weighted", weights=[1.0, 2.0, 0.5])
_COMBINERS["weighted0"] = get_combination("weighted0",
                                          weights=[1.0, 2.0, 0.5])
_COMBINERS["custom"] = _Third()


@settings(max_examples=40, deadline=None)
@given(combiner=st.sampled_from(sorted(_COMBINERS)),
       threshold=st.sampled_from([None, 0.0, 0.2, 0.5, 0.8, 1.0]),
       tabled=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_survivors_are_the_same_under_every_evaluation_order(
        combiner, threshold, tabled):
    request = _multi_request(_DOMAIN, _RANGE)
    columns = request_kernel(request).columns
    for column, table in zip(columns, tabled):
        column.table = None
        if table:
            column.tabulate()
    floor = 0.0 if threshold is None else threshold
    outcomes = set()
    for order in permutations(range(3)):
        kernel = MultiSpecKernel(columns, _COMBINERS[combiner],
                                 threshold=threshold)
        # tabled columns first, the rest as the specs list them
        assert kernel.order == sorted(range(3),
                                      key=lambda j: not tabled[j])
        kernel.order = list(order)
        scores = kernel.score_rows(*_ROWS)
        if combiner == "custom" or not floor:
            assert kernel.prefiltered == 0  # every row, as it is
            outcomes.add(scores.tobytes())
        else:
            outcomes.add(tuple(part.tobytes() for part in
                               survivors(kernel, *_ROWS, floor)))
    assert len(outcomes) == 1
    plain = MultiSpecKernel(columns, _COMBINERS[combiner], threshold=None)
    for column in columns:
        column.table = None
    if combiner == "custom" or not floor:
        assert outcomes == {plain.score_rows(*_ROWS).tobytes()}
    else:
        assert outcomes == {tuple(part.tobytes() for part in
                                  survivors(plain, *_ROWS, floor))}
