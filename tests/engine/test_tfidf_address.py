"""The TF/IDF column's partner weights by direct address, gated bit for bit.

:meth:`repro.engine.columns._Side.partners` finds a token's weight in a
row from the row's ``uint64`` bit words: the word's set bits below the
token's, plus the entries before the word.  Three standing checks:

* every token-blocked DBLP × ACM title pair at tiny and small, in both
  orientations, scores in ``kernel_rows`` exactly what
  ``TfIdfCosineSimilarity.similarity`` returns (compared as int64
  views, so ``-0.0`` and NaN payloads would count);
* generated corpora over reference vocabularies of 63 / 64 / 65 / 128 /
  129 tokens — bit 63, word boundaries and last partial words — with
  query tokens outside the vocabulary, equal-length rank ties and
  empty rows, in both orientations;
* the probe reads the very weights the binary search it replaced read
  (``reference_pack.searchsorted_partners``), on the same inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_pack import searchsorted_partners

from repro.blocking import TokenBlocking
from repro.datagen import build_dataset
from repro.engine.columns import TfIdfColumn, build_column
from repro.sim.tfidf import TfIdfCosineSimilarity


def _bits(scores) -> np.ndarray:
    return np.asarray(scores, dtype=np.float64).view(np.int64)


def _assert_partners_match(kernel: TfIdfColumn) -> None:
    """Both bound sides: every ``(row, token)`` cell of the reference
    vocabulary, probe vs binary search."""
    vocab_size = len(kernel._vocabulary)
    for side in (kernel.domain, kernel.range):
        rows, tokens = (grid.ravel() for grid in np.meshgrid(
            np.arange(len(side.lengths), dtype=np.int64),
            np.arange(vocab_size, dtype=np.int64), indexing="ij"))
        probed = side.partners(rows, tokens)
        assert np.array_equal(
            _bits(probed),
            _bits(searchsorted_partners(side, vocab_size, rows, tokens)))
        assert np.count_nonzero(probed) == len(side.sorted_data)


def _assert_kernel_is_scalar(sim, domain_values, range_values,
                             rows_a, rows_b) -> TfIdfColumn:
    kernel = build_column(sim, range_values).bind(domain_values)
    assert type(kernel) is TfIdfColumn
    expected = [sim.similarity(domain_values[a], range_values[b])
                for a, b in zip(rows_a.tolist(), rows_b.tolist())]
    assert np.array_equal(_bits(kernel.kernel_rows(rows_a, rows_b)),
                          _bits(expected))
    return kernel


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_token_blocked_titles_score_like_the_similarity(scale):
    dataset = build_dataset(scale, seed=7)
    dblp, acm = dataset.dblp.publications, dataset.acm.publications
    pairs = list(TokenBlocking().candidates(
        dblp, acm, domain_attribute="title", range_attribute="title"))
    row_a = {id: row for row, id in enumerate(dblp.ids())}
    row_b = {id: row for row, id in enumerate(acm.ids())}
    rows_a = np.fromiter((row_a[a] for a, _ in pairs), dtype=np.int64)
    rows_b = np.fromiter((row_b[b] for _, b in pairs), dtype=np.int64)
    titles_a = dblp.attribute_values("title")
    titles_b = acm.attribute_values("title")
    sim = TfIdfCosineSimilarity()
    sim.prepare(titles_a + titles_b)
    forward = _assert_kernel_is_scalar(sim, titles_a, titles_b,
                                       rows_a, rows_b)
    backward = _assert_kernel_is_scalar(sim, titles_b, titles_a,
                                        rows_b, rows_a)
    for kernel in (forward, backward):
        _assert_partners_match(kernel)
    assert len(pairs) > (500 if scale == "tiny" else 100_000)


#: reference vocabulary sizes: one short of a word, a word, one past
#: it, two words, one past two
VOCABULARIES = [63, 64, 65, 128, 129]
#: query tokens no reference row holds
UNSEEN = ["zq0", "zq1", "zq2"]


@st.composite
def corpora(draw):
    """``(reference values, query values)``.

    Every vocabulary word is dealt to some reference row, so the packed
    vocabulary is exactly the drawn size; rows also draw extra (and
    repeated) words.  Query rows are copies of reference rows (equal
    texts), their permutations (equal lengths, other texts), drawn rows
    with unseen tokens, and empty values.
    """
    words = [f"w{index}" for index in range(draw(st.sampled_from(
        VOCABULARIES)))]
    order = draw(st.permutations(words))
    rows = draw(st.integers(min_value=2, max_value=9))
    reference = [order[start::rows] for start in range(rows)]
    for row in reference:
        row.extend(draw(st.lists(st.sampled_from(words), max_size=4)))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["copy", "permuted", "drawn"]))
        if kind == "drawn":
            queries.append(draw(st.lists(st.sampled_from(words + UNSEEN),
                                         max_size=12)))
        else:
            row = list(draw(st.sampled_from(reference)))
            queries.append(draw(st.permutations(row))
                           if kind == "permuted" else row)
    texts = [" ".join(row) for row in reference]
    query_texts = [" ".join(row) for row in queries]
    if draw(st.booleans()):
        texts += ["", None]
    if draw(st.booleans()):
        query_texts += ["", None]
    return texts, query_texts


@settings(max_examples=60, deadline=None)
@given(corpora())
# a query side with no packed entry at all: nothing for partners to take
@example(([" ".join(f"w{index}" for index in range(start, 63, 2))
           for start in (0, 1)], [""]))
def test_generated_vocabularies_score_like_the_similarity(corpus):
    reference, queries = corpus
    sim = TfIdfCosineSimilarity()
    sim.prepare(reference + queries)
    rows_q, rows_r = (grid.ravel() for grid in np.meshgrid(
        np.arange(len(queries), dtype=np.int64),
        np.arange(len(reference), dtype=np.int64), indexing="ij"))
    kernel = _assert_kernel_is_scalar(sim, queries, reference,
                                      rows_q, rows_r)
    assert len(kernel._vocabulary) in VOCABULARIES
    _assert_partners_match(kernel)
    _assert_kernel_is_scalar(sim, reference, queries, rows_r, rows_q)
