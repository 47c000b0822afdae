"""The array q-gram packer against the per-gram loops (``reference_pack``).

:func:`repro.sim.ngram.gram_arrays` is the only way a q-gram column is
packed — engine requests, the serve index's reference side and every
page it binds.  Four statements hold it to the old loops:

* the arrays *are* ``set(qgrams(...))`` row by row (a hypothesis
  property and a table of awkward values);
* a column packed from them has the oracle's sizes and pairwise
  overlaps and scores bitwise equal — for every ``(q, pad)`` that
  ``column_config`` admits and every method;
* over generated unigram vocabularies of 63 / 64 / 65 / 128 / 129
  grams — bit 63, word boundaries, a last partial word — with
  query-only grams, ``""`` and ``None``, the scores are the scalar
  ones as int64 views (the float32 overlap sum is exact), and a
  vocabulary past :data:`~repro.engine.columns.MAX_GRAMS` packs no
  column at all;
* the packed bytes depend on the values only: equal under two string
  hash seeds, and a snapshot in the old (hash-order) vocabulary still
  restores and scores the same.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_pack import ReferenceNGramColumn
from repro.engine import columns
from repro.engine.columns import (
    NGramColumn,
    ScalarColumn,
    build_column,
    import_column,
)
from repro.sim.ngram import NGramSimilarity, gram_arrays
from repro.sim.tokenize import clear_memo, qgrams

#: what the packer must survive: ASCII, accents that decompose, letters
#: that do not (``ø``, CJK, a supplementary-plane ideograph),
#: punctuation only, empty, missing, shorter than every ``q`` tried,
#: a lone surrogate (JSON can deliver one), repeated grams, duplicates
REFERENCE = [
    "Adaptive Query Processing", "adaptive query optimization",
    "Café Müller", "Søren Kierkegård", "数据库系统概论", "数据 集成 𠀋",
    "?!...", "", None, "a", "ab", "abc", "aaaaaaa", "x y", "\ud800z",
    "The Potter's Wheel: An Interactive Data Cleaning System",
    "adaptive query optimization",
]
QUERIES = [
    "adaptive query procesing", "cafe muller", "Sören Kierkegard",
    "数据库", None, "", "zzzz", "b", "ba", "Potter's wheel", "ø", "# #",
    "q" * 40, "abc",
]


def _scalar_bits(sim, queries, reference, rows_a, rows_b):
    return np.array([sim.similarity(queries[a], reference[b])
                     for a, b in zip(rows_a.tolist(), rows_b.tolist())],
                    dtype=np.float64).view(np.int64)


def _every_pair(queries, reference):
    return (grid.ravel() for grid in np.meshgrid(
        np.arange(len(queries)), np.arange(len(reference)), indexing="ij"))


def _row_sets(arrays, count):
    sets = [set() for _ in range(count)]
    for row, code in zip(arrays.rows.tolist(), arrays.codes.tolist()):
        gram = arrays.grams[code]
        assert gram not in sets[row], "entries must be row-unique"
        sets[row].add(gram)
    return sets


def _expected_sets(values, q, pad):
    return [set() if value is None else set(qgrams(str(value), q, pad=pad))
            for value in values]


@pytest.mark.parametrize("pad", [True, False], ids=["pad", "nopad"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
class TestGramArrays:
    def test_rows_are_the_qgram_sets(self, q, pad):
        for values in (REFERENCE, QUERIES, [], [None], ["", "?"]):
            arrays = gram_arrays(values, q, pad)
            expected = _expected_sets(values, q, pad)
            assert _row_sets(arrays, len(values)) == expected
            assert arrays.sizes.tolist() == [len(grams) for grams in expected]
            assert arrays.sizes.dtype == np.int64
            assert (np.diff(arrays.rows) >= 0).all()
            # the order that makes packed bytes seed-independent
            assert arrays.grams == sorted(set().union(*expected))

    @pytest.mark.parametrize("method", ["dice", "jaccard", "overlap"])
    def test_column_equals_the_loop_packed_oracle(self, q, pad, method):
        sim = NGramSimilarity(q, method=method, pad=pad)
        column = build_column(sim, REFERENCE)
        assert type(column) is NGramColumn
        kernel = column.bind(QUERIES)
        oracle = ReferenceNGramColumn(sim, REFERENCE).bind(QUERIES)
        assert set(column._vocabulary) == set(oracle._vocabulary)
        for side in ("domain", "range"):
            assert np.array_equal(getattr(kernel, side)[1],
                                  getattr(oracle, side)[1])
        rows_a, rows_b = _every_pair(QUERIES, REFERENCE)

        def overlaps(bound):
            return np.bitwise_count(
                bound.domain[0][rows_a] & bound.range[0][rows_b]).sum(axis=1)

        assert np.array_equal(overlaps(kernel), overlaps(oracle))
        scores = kernel.score_rows(rows_a, rows_b)
        assert scores.tobytes() == oracle.score_rows(rows_a, rows_b).tobytes()
        assert np.array_equal(kernel.score_bound_rows(rows_a, rows_b),
                              oracle.score_bound_rows(rows_a, rows_b))
        # ... which are the scalar scores, pair by pair, sign bits too
        assert np.array_equal(scores.view(np.int64), _scalar_bits(
            sim, QUERIES, REFERENCE, rows_a, rows_b))

    def test_kept_features_pack_like_fresh_ones(self, q, pad):
        sim = NGramSimilarity(q, pad=pad)
        fresh = build_column(sim, REFERENCE).bind(QUERIES)
        kept = build_column(sim, REFERENCE,
                            gram_arrays(REFERENCE, q, pad)) \
            .bind(QUERIES, gram_arrays(QUERIES, q, pad))
        assert kept.export()[0] == fresh.export()[0]
        for side in ("domain", "range"):
            for mine, theirs in zip(getattr(kept, side),
                                    getattr(fresh, side)):
                assert mine.tobytes() == theirs.tobytes()


#: reference vocabulary sizes: one short of a packed word, a word, one
#: past it, two words, one past two
VOCABULARIES = [63, 64, 65, 128, 129]
#: unigrams no value normalizes away; the last three are query-only
LETTERS = [chr(0x4E00 + index) for index in range(max(VOCABULARIES) + 3)]


@st.composite
def unigram_corpora(draw):
    """``(vocabulary size, reference values, query values)`` over
    unigrams: every vocabulary letter is dealt to some reference row,
    so the packed vocabulary is exactly the drawn size.  Queries copy,
    permute and draw rows, some with letters no reference row holds,
    beside ``""`` and ``None`` on both sides."""
    size = draw(st.sampled_from(VOCABULARIES))
    letters = draw(st.permutations(LETTERS[:size]))
    rows = draw(st.integers(min_value=1, max_value=9))
    reference = [letters[start::rows] + draw(st.lists(
        st.sampled_from(letters), max_size=4)) for start in range(rows)]
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["copy", "permuted", "drawn"]))
        if kind == "drawn":
            queries.append(draw(st.lists(st.sampled_from(
                letters + LETTERS[-3:]), max_size=140)))
        else:
            row = draw(st.sampled_from(reference))
            queries.append(draw(st.permutations(row))
                           if kind == "permuted" else row)
    return (size, ["".join(row) for row in reference] + ["", None],
            ["".join(row) for row in queries] + ["", None])


@settings(max_examples=60, deadline=None)
@given(corpus=unigram_corpora(),
       method=st.sampled_from(["dice", "jaccard", "overlap"]))
def test_generated_vocabularies_score_like_the_similarity(corpus, method):
    """The float32 row sum of the overlap counts, at and across the
    packed words' bit boundaries: bitwise the scalar scores."""
    size, reference, queries = corpus
    sim = NGramSimilarity(1, method=method, pad=False)
    kernel = build_column(sim, reference).bind(queries)
    assert type(kernel) is NGramColumn
    assert len(kernel._vocabulary) == size
    rows_a, rows_b = _every_pair(queries, reference)
    scores = kernel.score_rows(rows_a, rows_b)
    assert scores.dtype == np.float64
    assert np.array_equal(scores.view(np.int64), _scalar_bits(
        sim, queries, reference, rows_a, rows_b))


def test_a_vocabulary_past_exact_counts_falls_back_to_scalar(monkeypatch):
    """A side whose rows could hold ``MAX_GRAMS`` grams would sum its
    counts inexactly: ``build_column`` sends it to the scalar column,
    which scores the same."""
    sim = NGramSimilarity(3)
    rows_a, rows_b = _every_pair(QUERIES, REFERENCE)
    packed = build_column(sim, REFERENCE)
    scores = packed.bind(QUERIES).score_rows(rows_a, rows_b)
    size = len(packed._vocabulary)
    monkeypatch.setattr(columns, "MAX_GRAMS", size + 1)
    assert type(build_column(sim, REFERENCE)) is NGramColumn
    monkeypatch.setattr(columns, "MAX_GRAMS", size)
    scalar = build_column(sim, REFERENCE)
    assert type(scalar) is ScalarColumn
    assert np.array_equal(
        scalar.bind(QUERIES).score_rows(rows_a, rows_b).view(np.int64),
        scores.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.one_of(
           st.none(),
           st.text(max_size=12),
           st.text(alphabet="ab #é𠀋", max_size=6)), max_size=8),
       q=st.integers(min_value=1, max_value=5), pad=st.booleans())
def test_array_grams_are_the_qgram_sets(values, q, pad):
    arrays = gram_arrays(values, q, pad)
    assert _row_sets(arrays, len(values)) == _expected_sets(values, q, pad)


def test_rejects_a_non_positive_q_like_qgrams():
    with pytest.raises(ValueError):
        gram_arrays(["abc"], 0, True)


def test_an_alphabet_too_wide_for_one_code_is_reranked():
    """``|alphabet| ** q`` past 63 bits: the window codes are re-ranked
    between digits instead of wrapping around."""
    letters = "".join(map(chr, list(range(0x3400, 0x9FA6))
                          + list(range(0x20000, 0x2A6D7))))
    assert len(set(letters)) ** 4 > 2 ** 63
    values = [letters, letters[1000:1010], letters[:3], None]
    arrays = gram_arrays(values, 4, False)
    assert _row_sets(arrays, len(values)) == _expected_sets(values, 4, False)


#: the last code point, which ``normalize`` drops (it is no word
#: character), and the highest one it keeps: beside ASCII, a letter
#: table spanning the code points present would run to 200 k entries
TOP, HIGH = "\U0010FFFF", "\U0003134A"


@pytest.mark.parametrize("pad", [True, False], ids=["pad", "nopad"])
@pytest.mark.parametrize("q", [1, 2, 3, 5])
@pytest.mark.parametrize("values", [
    [TOP, TOP * 4, f"ab{TOP}c {TOP}", None, "abc"],
    [HIGH, HIGH * 4, f"ab{HIGH}c {HIGH}", f"{TOP}{HIGH}", None, "abc"],
    # one letter, and one the fill (code point 0) joins when unpadded
    ["aaaaaa", "aaa", "a a", None, ""],
    ["aaaaaa"],
    # one value: the shape of a serve page that binds one query
    ["Adaptive query processing for 数据"],
], ids=["top-code-point", "high-code-point", "one-letter", "one-letter-one-value",
        "one-value-page"])
def test_edge_alphabets_are_the_qgram_sets(values, q, pad):
    arrays = gram_arrays(values, q, pad)
    expected = _expected_sets(values, q, pad)
    assert _row_sets(arrays, len(values)) == expected
    assert arrays.sizes.tolist() == [len(grams) for grams in expected]
    assert arrays.grams == sorted(set().union(*expected))
    for name, dtype in (("rows", np.int32), ("codes", np.int32),
                        ("sizes", np.int64)):
        assert getattr(arrays, name).dtype == dtype, name


@pytest.mark.parametrize("page", [
    ["数据 integration"], [f"{HIGH} abc"], [f"{TOP} abc"]],
    ids=["cjk", "high-code-point", "top-code-point"])
def test_a_one_value_page_allocates_by_its_size(page):
    """The rank tables follow the data: a page with one CJK character
    does not allocate a table over every code point, nor a page with
    the highest one ``normalize`` keeps a table up to it."""
    import tracemalloc

    gram_arrays(page, 3, True)  # numpy's one-time setup
    tracemalloc.start()
    try:
        arrays = gram_arrays(page, 3, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _row_sets(arrays, 1) == _expected_sets(page, 3, True)
    assert peak < 1 << 19, peak


def test_a_one_value_page_scores_like_the_similarity():
    """What the serve index binds per query: one value, packed over a
    reference vocabulary it shares a few grams with."""
    sim = NGramSimilarity(3)
    for page in (["adaptive query procesing"], ["数据库"], [HIGH], [TOP],
                 [None]):
        kernel = build_column(sim, REFERENCE).bind(page)
        rows_a, rows_b = _every_pair(page, REFERENCE)
        assert np.array_equal(
            kernel.score_rows(rows_a, rows_b).view(np.int64),
            _scalar_bits(sim, page, REFERENCE, rows_a, rows_b))


def test_the_memo_does_not_enter_the_arrays():
    first = gram_arrays(REFERENCE, 3, True)
    clear_memo()
    second = gram_arrays(REFERENCE, 3, True)
    assert first.grams == second.grams
    for mine, theirs in zip(first[:3], second[:3]):
        assert np.array_equal(mine, theirs)


# ----------------------------------------------------------------------
# packed bytes are a function of the values
# ----------------------------------------------------------------------

_EXPORT = """
import hashlib, json, sys
from repro.engine.columns import build_column
from repro.sim.ngram import NGramSimilarity
values = json.loads(sys.argv[1])
meta, arrays = build_column(NGramSimilarity(3), values).export()
print(json.dumps([meta, {name: hashlib.sha256(array.tobytes()).hexdigest()
                         for name, array in arrays.items()}]))
"""


def test_export_is_equal_under_two_hash_seeds(under_hash_seeds):
    """The vocabulary used to take its order from iterating frozensets,
    so a serve snapshot's ``meta["vocabulary"]`` and ``range_bits``
    bytes differed from one interpreter to the next."""
    first, second = under_hash_seeds(_EXPORT, json.dumps(REFERENCE))
    assert first == second
    meta, digests = json.loads(first)
    assert meta["vocabulary"] == sorted(meta["vocabulary"])
    assert set(digests) == {"range_bits", "range_sizes"}


@pytest.mark.parametrize("method", ["dice", "jaccard", "overlap"])
def test_a_snapshot_in_the_old_vocabulary_order_restores(method):
    """Positions come from ``meta["vocabulary"]``, whatever its order:
    a snapshot written before the vocabulary was sorted loads and
    scores like a freshly packed column."""
    sim = NGramSimilarity(3, method=method)
    meta, arrays = ReferenceNGramColumn(sim, REFERENCE).export()
    assert meta["vocabulary"] != sorted(meta["vocabulary"])
    # through JSON, as the snapshot manifest stores it
    restored = import_column(sim, json.loads(json.dumps(meta)), arrays,
                             REFERENCE)
    assert type(restored) is NGramColumn
    fresh = build_column(sim, REFERENCE)
    rows_a, rows_b = (grid.ravel() for grid in np.meshgrid(
        np.arange(len(QUERIES)), np.arange(len(REFERENCE)), indexing="ij"))
    assert restored.bind(QUERIES).score_rows(rows_a, rows_b).tobytes() \
        == fresh.bind(QUERIES).score_rows(rows_a, rows_b).tobytes()
    assert restored.export()[0] == meta


# ----------------------------------------------------------------------
# who keeps the extraction
# ----------------------------------------------------------------------

def test_a_source_extracts_an_attribute_once_for_all_its_partners(
        dataset, monkeypatch, scalar_reference):
    """DBLP's titles are extracted for DBLP→ACM and found for DBLP→GS —
    whatever the method, the threshold or the similarity object."""
    from repro.blocking import TokenBlocking
    from repro.engine import (AttributeSpec, BatchMatchEngine, MatchRequest,
                              vectorized)

    dblp, acm, gs = (source.subset(source.ids()) for source in (
        dataset.dblp.publications, dataset.acm.publications,
        dataset.gs.publications))
    extracted = []

    def counting(values, q, pad):
        extracted.append((len(values), q, pad))
        return gram_arrays(values, q, pad)

    monkeypatch.setattr(vectorized, "gram_arrays", counting)
    engine = BatchMatchEngine()
    for range_, method in ((acm, "dice"), (gs, "dice"), (gs, "jaccard")):
        request = MatchRequest(
            domain=dblp, range=range_, threshold=0.5,
            specs=[AttributeSpec("title", "title",
                                 NGramSimilarity(3, method=method))],
            blocking=TokenBlocking(max_df=0.5))
        assert list(engine.execute(request)) \
            == list(scalar_reference(request))
    assert sorted(extracted) == sorted(
        (len(source), 3, True) for source in (dblp, acm, gs))
    assert ("gram-arrays", "title", 3, True) in dblp._derived
    # a different (q, pad) is a different extraction
    engine.execute(MatchRequest(
        domain=dblp, range=acm, threshold=0.5,
        specs=[AttributeSpec("title", "title", NGramSimilarity(2))],
        blocking=TokenBlocking(max_df=0.5)))
    assert len(extracted) == 5
