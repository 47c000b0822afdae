"""The value-coded scalar column against the per-row loop
(``reference_pack.ReferenceScalarColumn``).

:class:`repro.engine.columns.ScalarColumn` packs each side as codes
over its distinct texts and scores a slice's *distinct* value pairs
once.  For every similarity that gets the scalar column it must score
bitwise what the old loop over candidate rows scored — with missing
values, repeated values, either side as the reference, and a memo so
small that it resets in the middle of a slice.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_pack import ReferenceScalarColumn

from repro.engine.columns import ScalarColumn, ValuePairMemo, column_config
from repro.sim import available_similarities, get_similarity

SCALAR_NAMES = [name for name in available_similarities()
                if column_config(get_similarity(name)) is None]

REFERENCE = ["Adaptive Query Processing", "adaptive query optimization",
             None, "Rahm, Erhard", "E. Rahm", "2004", 2004, "1999", "",
             "adaptive query optimization", "VLDB 2004", None, "a"]
QUERIES = ["adaptive query procesing", "Erhard Rahm", None, "2004", 2003,
           "Rahm, E.", "", "VLDB", "adaptive query procesing", "1999.0"]


def _columns(name, reference, queries, limit):
    built = []
    for cls in (ScalarColumn, ReferenceScalarColumn):
        sim = get_similarity(name)
        sim.prepare([str(v) for v in reference + queries if v is not None])
        column = cls(sim, reference)
        column.memo = ValuePairMemo(sim, limit=limit)
        built.append(column.bind(queries))
    return built


def test_the_registry_has_fourteen_scalar_names():
    assert len(SCALAR_NAMES) == 14


@pytest.mark.parametrize("limit", [1 << 20, 3])
@pytest.mark.parametrize("flipped", [False, True],
                         ids=["reference-range", "reference-domain"])
@pytest.mark.parametrize("name", SCALAR_NAMES)
def test_value_coded_equals_row_loop(name, flipped, limit):
    reference, queries = (QUERIES, REFERENCE) if flipped \
        else (REFERENCE, QUERIES)
    coded, looped = _columns(name, reference, queries, limit)
    rng = np.random.default_rng(7)
    for count in (0, 1, 200):
        rows_a = rng.integers(0, len(queries), count).astype(np.int32)
        rows_b = rng.integers(0, len(reference), count).astype(np.int32)
        scores = coded.score_rows(rows_a, rows_b)
        assert scores.dtype == np.float64
        assert scores.tobytes() == looped.score_rows(rows_a, rows_b).tobytes()
        assert np.array_equal(coded.missing_rows(rows_a, rows_b),
                              looped.missing_rows(rows_a, rows_b))
    if limit == 3:
        # the memo was outgrown inside the 200-row slice and reset
        assert len(coded.memo._scores) <= 3


def test_self_binding_aliases_the_coded_side():
    sim = get_similarity("exact")
    column = ScalarColumn(sim, REFERENCE)
    kernel = column.bind(REFERENCE)
    assert kernel.domain is column.range
    rows = np.arange(len(REFERENCE), dtype=np.int32)
    expected = [0.0 if value is None else 1.0 for value in REFERENCE]
    assert kernel.score_rows(rows, rows).tolist() == expected


def test_all_missing_side_scores_zero():
    kernel = ScalarColumn(get_similarity("exact"), [None, None]).bind(["a"])
    assert kernel.score_rows(np.asarray([0, 0]), np.asarray([0, 1])) \
        .tolist() == [0.0, 0.0]
