"""The source<->code bridge (:func:`repro.core.mapping.source_codes`)
and the per-attribute value codes kept beside it.

A source keeps ``(id space, codes in row order, rows by code)`` like
its posting lists and packed columns; the engine loads survivors and
reads candidate mappings through it.  These suites pin its lifetime:
it goes when the source grows, a subset starts without one, and the
codes it dealt stay valid whatever else happens to the name's id space
— another source of the name growing it, or every mapping over the
name being collected between two requests.  The value codes
(:func:`repro.engine.columns.value_codes`, under ``("value-codes",
attribute)``) live and die the same way.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np

from repro import AttributeMatcher
from repro.core.mapping import Mapping, id_space, source_codes
from repro.model.source import LogicalSource, ObjectType, PhysicalSource


def _source(name: str, ids, prefix: str = "title") -> LogicalSource:
    source = LogicalSource(PhysicalSource(name), ObjectType("Pub"))
    for id in ids:
        source.add_record(id, title=f"{prefix} {id} adaptive query")
    return source


MATCHER = AttributeMatcher("title", similarity="trigram", threshold=0.2)


def _decoded(bridge):
    return [bridge.space.ids[code] for code in bridge.codes.tolist()]


def test_bridge_is_rows_codes_and_their_inverse():
    source = _source("Br", ["x", "y", "z"])
    bridge = source_codes(source)
    assert bridge is source_codes(source)
    assert bridge.space is id_space(source.name)
    assert _decoded(bridge) == source.ids() == list(bridge.index)
    assert bridge.rows_of(bridge.codes).tolist() == [0, 1, 2]
    assert bridge.rows_of(np.asarray([-1, 10_000])).tolist() == [-1, -1]


def test_add_after_a_match_drops_the_bridge():
    left, right = _source("AddL", ["a", "b"]), _source("AddR", ["c", "d"])
    first = MATCHER.match(left, right)
    before = source_codes(right)
    right.add_record("e", title="title a adaptive query")
    assert ("id-codes",) not in right._derived
    after = source_codes(right)
    assert after is not before and after.space is before.space
    assert _decoded(after) == ["c", "d", "e"]
    # codes dealt before the growth still name the same ids
    assert after.codes[:2].tolist() == before.codes.tolist()
    second = MATCHER.match(left, right)
    assert {row for row in second if row[1] != "e"} == set(first)
    assert any(row[1] == "e" for row in second)


def test_subset_starts_without_a_bridge():
    source = _source("Sub", ["a", "b", "c", "d"])
    full = source_codes(source)
    part = source.subset(["d", "b"])
    assert part._derived == {}
    bridge = source_codes(part)
    assert bridge.space is full.space
    assert _decoded(bridge) == ["d", "b"]
    # rows of the full source's codes, as the subset numbers them
    assert bridge.rows_of(full.codes).tolist() == [-1, 1, -1, 0]


def test_codes_outlive_another_source_growing_the_space():
    """Two sources under one name: the later one interns new ids into
    the shared space.  The first bridge's codes still decode, and a
    code past its ``rows`` table reads as unknown, not out of range."""
    first = _source("Shared", ["a", "b"])
    bridge = source_codes(first)
    second = _source("Shared", ["b", "c", "d"])
    grown = source_codes(second)
    assert grown.space is bridge.space
    assert _decoded(bridge) == ["a", "b"] and _decoded(grown) == ["b", "c", "d"]
    assert bridge.rows_of(grown.codes).tolist() == [1, -1, -1]
    assert grown.rows_of(bridge.codes).tolist() == [-1, 0]
    candidates = Mapping.from_correspondences(
        "Shared.Pub", "Shared.Pub", [("a", "d", 1.0), ("a", "b", 1.0),
                                     ("c", "b", 1.0)])
    confined = MATCHER.match(first, first, candidates=candidates)
    assert {(a, b) for a, b, _ in confined} == {("a", "b"), ("b", "a")}


def test_codes_stay_valid_after_every_mapping_was_collected():
    """The bridge holds the space strongly: with every mapping over
    the name gone between two requests, the next one must not be dealt
    a fresh space whose codes mean other ids."""
    left = _source("GcL", ["a", "b", "c"])
    right = _source("GcR", ["c", "b", "a"], prefix="title")
    rows = MATCHER.match(left, right).to_rows()
    space = source_codes(right).space
    gc.collect()
    # new ids of the name, interned while no mapping is alive
    Mapping.from_correspondences("GcL.Pub", "GcR.Pub", [("q", "r", 1.0)])
    gc.collect()
    assert id_space("GcR.Pub") is space
    again = MATCHER.match(left, right)
    assert again.columns().range_space is space
    assert again.to_rows() == rows


def test_value_codes_are_kept_per_attribute_and_die_with_the_contents():
    left, right = _source("VcL", ["a", "b", "a2"]), _source("VcR", ["c", "d"])
    MATCHER.match(left, right)
    key = ("value-codes", "title")
    kept = left._derived[key]
    assert kept.codes.tolist() == [0, 1, 2] and key in right._derived
    # coded once per source attribute: another similarity, another
    # partner and a self-match all find the same object
    other = _source("VcO", ["e"])
    AttributeMatcher("title", similarity="levenshtein",
                     threshold=0.2).match(left, other)
    AttributeMatcher("title", similarity="tfidf",
                     threshold=0.2).match(left, left)
    assert left._derived[key] is kept
    assert key not in pickle.loads(pickle.dumps(left))._derived
    assert left.subset(["a", "b"])._derived == {}
    left.add_record("z", title="title a adaptive query")
    assert key not in left._derived
    MATCHER.match(left, right)
    assert left._derived[key].codes.tolist() == [0, 1, 2, 0]
