"""Token postings built by the column against the per-value loop.

:func:`repro.blocking.token_blocking.token_postings` flattens every
value's memoized token tuple, ranks the tokens in the sorted
vocabulary and sorts ``(row, rank)`` keys once.  The loop it replaced
walked the values one by one — ``sorted(set(word_tokens(...)))``, the
short tokens dropped, a list append per row — and is kept here as the
oracle: the postings must equal it exactly (codes in first-occurrence
order, ``indptr``, ``rows``, dtypes), and so must the blocks a
self-match and a two-source join build from them.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import TokenBlocking
from repro.blocking.pair_generator import Postings, join_postings, keep_first
from repro.blocking.token_blocking import token_postings
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.tokenize import word_tokens


def oracle_postings(values, min_length):
    """The per-value loop ``TokenBlocking`` built its postings with."""
    tokens, rows = [], []
    for row, value in enumerate(values):
        if value is not None:
            found = [token for token in sorted(set(word_tokens(str(value))))
                     if len(token) >= min_length]
            tokens += found
            rows += [row] * len(found)
    return Postings.of(tokens, rows)


def assert_same_postings(mine, theirs):
    assert list(mine.codes.items()) == list(theirs.codes.items())
    for name in ("indptr", "rows"):
        got, want = getattr(mine, name), getattr(theirs, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


#: words around every ``min_token_length`` tried, accents that
#: decompose and one that does not, digits, punctuation, repeats
WORDS = ["a", "ab", "abc", "Über", "uber", "café", "cafe", "ø", "x9",
         "2024", "data", "Data", "the", "of", "Potter's", "wheel", "—", ""]
VALUES = st.one_of(
    st.none(),
    st.just(""),
    st.lists(st.sampled_from(WORDS), max_size=7).map(" ".join),
    st.text(max_size=16),
    st.integers(0, 300))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, max_size=12),
       min_length=st.integers(1, 4))
def test_postings_equal_the_per_value_loop(values, min_length):
    assert_same_postings(token_postings(values, min_length),
                         oracle_postings(values, min_length))


def _source(name, values):
    source = LogicalSource(PhysicalSource(name), ObjectType("Publication"))
    for number, value in enumerate(values):
        source.add_record(f"{name}{number}", title=value)
    return source


def _batches_equal(mine, theirs):
    for name in ("rows_a", "rows_b", "blocks"):
        assert np.array_equal(getattr(mine, name), getattr(theirs, name))
    assert np.array_equal(mine.first.words, theirs.first.words)


@settings(max_examples=120, deadline=None)
@given(left=st.lists(VALUES, min_size=1, max_size=10),
       right=st.lists(VALUES, min_size=1, max_size=10),
       min_length=st.integers(1, 4), self_match=st.booleans())
def test_joins_build_the_loops_blocks(left, right, min_length, self_match):
    """The blocks ``TokenBlocking`` joins from the column-built
    postings — one source against itself, or two sources — are the
    ones the loop's postings join to, first-block bits included."""
    domain = _source("A", left)
    range_ = domain if self_match else _source("B", right)
    blocking = TokenBlocking(min_token_length=min_length, max_df=1.0)
    shards = blocking.shards(domain, range_, n_shards=1,
                             domain_attribute="title",
                             range_attribute="title")
    population = len(domain) + (0 if self_match else len(range_))
    cutoff = max(2, int(1.0 * population))
    expected = keep_first(join_postings(
        oracle_postings(left, min_length),
        None if self_match else oracle_postings(right, min_length),
        lambda a, b: ((a if self_match else a + b) <= cutoff)
        & (a <= 1000) & (b <= 1000)))
    if not len(expected.blocks):
        assert not shards or not len(shards[0].batch().blocks)
        return
    _batches_equal(shards[0].batch(), expected)


_POSTINGS = """
import json, sys
from repro.blocking.token_blocking import token_postings
postings = token_postings(json.loads(sys.argv[1]), 3)
print(json.dumps([list(postings.codes), postings.indptr.tolist(),
                  postings.rows.tolist()]))
"""


def test_postings_are_equal_under_two_hash_seeds(under_hash_seeds):
    """Token codes order every block list: a set's iteration order
    must not reach them."""
    values = ["Adaptive Query Processing", None, "", "query adaptive",
              "Über Café data", "the of a", "zeta alpha beta gamma delta",
              "Potter's Wheel: an interactive data cleaning system"]
    first, second = under_hash_seeds(_POSTINGS, json.dumps(values))
    assert first == second
    codes = json.loads(first)[0]
    assert codes[:3] == ["adaptive", "processing", "query"]
