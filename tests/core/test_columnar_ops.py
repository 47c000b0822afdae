"""The array kernels against the dict-walking oracle (``reference_ops``).

Equality is ``list(new) == list(reference)``: the same correspondences
in the same iteration order with the same float bits — for every
combination function x path aggregate of compose, every selection x
side, merge under the documented order rule, and the derived-mapping
helpers.  Plus the two things the column form adds: both forms stay in
step under mutation, and nothing follows ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import reference_ops as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import (
    Mapping,
    MappingKind,
    SourceCodes,
    distinct_keys,
    source_codes,
)
from repro.core.operators.compose import compose
from repro.core.operators.functions import (
    AvgFunction,
    CombinationFunction,
    WeightedFunction,
    ordered_sum,
)
from repro.core.operators.merge import merge
from repro.core.operators.selection import (
    Best1DeltaSelection,
    BestNSelection,
    ThresholdSelection,
)
from repro.core.operators.setops import difference, symmetrize
from repro.engine.columns import value_codes
from repro.model.source import LogicalSource, ObjectType, PhysicalSource


AGGREGATES = ["avg", "min", "max", "sum", "relative", "relative_left",
              "relative_right"]
SIDES = ["domain", "range", "both"]


class Product(CombinationFunction):
    """A user-supplied function: product of the present values, dropping
    weak evidence — exercises ``None`` results on both operators."""

    name = "product"

    def combine(self, values):
        present = [value for value in values if value is not None]
        if not present or min(present) < 0.2:
            return None
        result = 1.0
        for value in present:
            result *= value
        return result


def _combiners(arity: int):
    return [
        "avg", "avg0", "min", "min0", "max",
        WeightedFunction([0.3 + 0.1 * i for i in range(arity)]),
        WeightedFunction([0.7] + [0.1] * (arity - 1), missing_as_zero=True),
        Product(),
    ]


# few distinct ids => long rows and many paths per pair; few distinct
# similarities => ties at every cut-off, beside full-precision floats
_sims = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]),
                  st.floats(0.0, 1.0, allow_nan=False))


def _rows(left: str, right: str, width: int = 6, max_size: int = 40):
    ids = st.integers(0, width - 1)
    return st.lists(st.tuples(ids.map(lambda i: f"{left}{i}"),
                              ids.map(lambda i: f"{right}{i}"), _sims),
                    max_size=max_size)


@st.composite
def _mappings(draw, domain="A", range_="B", left="a", right="b", **kwargs):
    mapping = Mapping.from_correspondences(
        domain, range_, draw(_rows(left, right, **kwargs)),
        kind=draw(st.sampled_from(list(MappingKind))))
    # either form as the operators' input: dict (as built) or columns
    return mapping.copy() if draw(st.booleans()) else mapping


def _same(new: Mapping, old: Mapping) -> None:
    assert list(new) == list(old)
    assert (new.domain, new.range, new.kind) == \
        (old.domain, old.range, old.kind)


# ----------------------------------------------------------------------
# compose
# ----------------------------------------------------------------------

class TestCompose:
    @settings(max_examples=150, deadline=None)
    @given(map1=_mappings("A", "C", "a", "c", width=4),
           map2=_mappings("C", "B", "c", "b", width=4),
           f=st.sampled_from(_combiners(2)),
           g=st.sampled_from(AGGREGATES))
    def test_equals_reference(self, map1, map2, f, g):
        _same(compose(map1, map2, f, g), reference.compose(map1, map2, f, g))

    @pytest.mark.parametrize("g", AGGREGATES)
    @pytest.mark.parametrize("f", _combiners(2), ids=repr)
    def test_long_path_groups_sum_left_to_right(self, f, g):
        """20 paths per output pair: a pairwise (``reduceat``) or
        compensated (3.12 ``sum``) total differs in the last bits."""
        rng = np.random.default_rng(5)
        map1 = Mapping.from_correspondences("A", "C", [
            (f"a{i}", f"c{j}", float(rng.random()))
            for i in range(3) for j in range(20)])
        map2 = Mapping.from_correspondences("C", "B", [
            (f"c{j}", f"b{k}", float(rng.random()))
            for j in range(20) for k in range(3)])
        _same(compose(map1, map2, f, g), reference.compose(map1, map2, f, g))

    def test_empty_and_disjoint_inputs(self):
        empty = Mapping("A", "C")
        map2 = Mapping.from_correspondences("C", "B", [("c1", "b1", 0.5)])
        assert list(compose(empty, map2)) == []
        assert list(compose(map2.inverse(), Mapping("C", "X"))) == []
        # ids absent from the other side: nothing joins
        map1 = Mapping.from_correspondences("A", "C", [("a1", "c9", 0.5)])
        assert list(compose(map1, map2)) == []

    def test_avg_is_not_compensated(self):
        """0.1 ten times: left to right gives 0.9999999999999999,
        a compensated sum (builtin ``sum`` from 3.12) exactly 1.0."""
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert AvgFunction().combine([0.1] * 10) == 0.9999999999999999 / 10
        columns = [np.full(1, 0.1) for _ in range(10)]
        assert float(ordered_sum(columns)[0]) == 0.9999999999999999


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------

class TestMerge:
    @settings(max_examples=150, deadline=None)
    @given(inputs=st.lists(_mappings(), min_size=2, max_size=3),
           pick=st.integers(0, 7))
    def test_equals_reference(self, inputs, pick):
        function = _combiners(len(inputs))[pick]
        new = merge(inputs, function)
        old = reference.merge(inputs, function)
        assert new.to_rows() == old.to_rows()
        # the order rule: pairs by first occurrence over the inputs in
        # input order, regrouped by domain
        assert list(new) == list(old)

    @settings(max_examples=60, deadline=None)
    @given(inputs=st.lists(_mappings(), min_size=2, max_size=3),
           data=st.data())
    def test_prefer_equals_reference(self, inputs, data):
        index = data.draw(st.integers(0, len(inputs) - 1))
        assert list(merge(inputs, "prefer", prefer=index)) == \
            list(reference.merge_prefer(inputs, index))

    def test_custom_function_out_of_range_is_rejected(self):
        class Double(CombinationFunction):
            def combine(self, values):
                return 2.0 * max(v for v in values if v is not None)

        inputs = [Mapping.from_correspondences("A", "B", [("a", "b", 0.9)]),
                  Mapping.from_correspondences("A", "B", [("a", "c", 0.1)])]
        with pytest.raises(ValueError):
            merge(inputs, Double())


# ----------------------------------------------------------------------
# selection and derived mappings
# ----------------------------------------------------------------------

class TestSelection:
    @settings(max_examples=100, deadline=None)
    @given(mapping=_mappings(), cut=_sims, strict=st.booleans())
    def test_threshold(self, mapping, cut, strict):
        _same(ThresholdSelection(cut, strict=strict).apply(mapping),
              reference.threshold(mapping, cut, strict=strict))

    @settings(max_examples=150, deadline=None)
    @given(mapping=_mappings(), n=st.integers(1, 3),
           side=st.sampled_from(SIDES))
    def test_best_n(self, mapping, n, side):
        _same(BestNSelection(n, side=side).apply(mapping),
              reference.best_n(mapping, n, side))

    @settings(max_examples=150, deadline=None)
    @given(mapping=_mappings(), delta=st.sampled_from([0.0, 0.1, 0.25, 1.0]),
           relative=st.booleans(), side=st.sampled_from(SIDES))
    def test_best1_delta(self, mapping, delta, relative, side):
        _same(Best1DeltaSelection(delta, relative=relative,
                                  side=side).apply(mapping),
              reference.best1_delta(mapping, delta, relative, side))


class TestDerived:
    @settings(max_examples=100, deadline=None)
    @given(mapping=_mappings("A", "A", "x", "x"), data=st.data())
    def test_inverse_copy_take_identity_restrict(self, mapping, data):
        _same(mapping.inverse(), reference.inverse(mapping))
        _same(mapping.copy(), mapping)
        _same(mapping.without_identity(), reference.without_identity(mapping))
        keep = data.draw(st.lists(st.booleans(), min_size=len(mapping),
                                  max_size=len(mapping)))
        assert list(mapping.take(np.asarray(keep, dtype=bool))) == \
            [row for row, kept in zip(mapping, keep) if kept]
        ids = data.draw(st.lists(st.sampled_from(
            [f"x{i}" for i in range(7)]), max_size=4))
        _same(mapping.restrict_domain(ids),
              reference.restrict(mapping, ids, "domain"))
        _same(mapping.restrict_range(iter(ids)),
              reference.restrict(mapping, ids, "range"))

    def test_without_identity_across_sources_compares_ids(self):
        mapping = Mapping.from_correspondences(
            "A", "B", [("x", "x", 1.0), ("x", "y", 0.5)])
        assert list(mapping.copy().without_identity()) == [("x", "y", 0.5)]

    @settings(max_examples=60, deadline=None)
    @given(left=_mappings("A", "A", "x", "x"),
           right=_mappings("A", "A", "x", "x"))
    def test_difference_and_symmetrize(self, left, right):
        assert list(difference(left, right)) == \
            [row for row in left if right.get(row.domain, row.range) is None]
        mirrored = left.copy()
        for domain_id, range_id, similarity in left:
            mirrored.add(range_id, domain_id, similarity)
        assert list(symmetrize(left)) == list(mirrored)

    def test_pickle_round_trip_keeps_rows_and_order(self):
        mapping = Mapping.from_correspondences(
            "A", "B", [("a2", "b1", 0.5), ("a1", "b1", 0.25),
                       ("a2", "b0", 1.0)], kind=MappingKind.ASSOCIATION,
            name="m").copy()
        clone = pickle.loads(pickle.dumps(mapping))
        _same(clone, mapping)
        assert clone.name == "m"


# ----------------------------------------------------------------------
# first occurrences without np.unique
# ----------------------------------------------------------------------

_KEYS = st.one_of(
    st.lists(st.integers(0, 2 ** 62), max_size=60),
    st.lists(st.integers(0, 6), max_size=60),  # mostly repeats
    st.lists(st.integers(0, 2 ** 62), max_size=40, unique=True),
    st.lists(st.just(2 ** 62), max_size=10))


class TestDistinctKeys:
    @settings(max_examples=200, deadline=None)
    @given(keys=_KEYS)
    def test_equals_the_np_unique_body(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        for got, expected in zip(distinct_keys(keys),
                                 reference.distinct_keys(keys)):
            assert np.array_equal(got, expected)

    def test_ties_of_a_large_sort(self):
        """Past numpy's small-array insertion sort the unstable sort
        really reorders equal keys; first rows must not follow it."""
        keys = np.random.default_rng(3).integers(0, 50, 20000)
        for got, expected in zip(distinct_keys(keys),
                                 reference.distinct_keys(keys)):
            assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.one_of(st.none(), st.integers(0, 5),
                                     st.sampled_from(["1", "b", "None"])),
                           max_size=40))
    def test_value_codes_first_rows(self, values):
        coded = value_codes(values)
        present = np.flatnonzero(coded.codes >= 0)
        assert np.array_equal(
            coded.rows,
            present[reference.first_rows(coded.codes[present])])


# ----------------------------------------------------------------------
# from_columns: the engine's survivor hand-off
# ----------------------------------------------------------------------

def _bridge(name: str, ids) -> SourceCodes:
    """The row<->code bridge of a source called ``name`` holding ``ids``."""
    physical, object_type = name.split(".")
    source = LogicalSource(PhysicalSource(physical), ObjectType(object_type))
    for id in ids:
        source.add_record(id)
    return source_codes(source)


class TestFromColumns:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                   _sims), max_size=40))
    def test_is_add_rows_over_row_indices(self, rows):
        """Duplicate survivors keep the max at their first position;
        rows regroup by domain first occurrence."""
        domain_ids = [f"a{i}" for i in range(6)]
        range_ids = [f"b{i}" for i in range(6)]
        expected = Mapping.from_correspondences(
            "S.A", "S.B",
            [(domain_ids[a], range_ids[b], s) for a, b, s in rows])
        columns = [np.asarray(column) for column in zip(*rows)] \
            or [np.zeros(0, dtype=np.int32)] * 2 + [np.zeros(0)]
        loaded = Mapping.from_columns(
            "S.A", "S.B", _bridge("S.A", domain_ids),
            _bridge("S.B", range_ids), *columns, name="loaded")
        _same(loaded, expected)
        assert loaded.name == "loaded"

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_validates_like_add(self, bad):
        with pytest.raises(ValueError):
            Mapping.from_columns("S.A", "S.B", _bridge("S.A", ["a"]),
                                 _bridge("S.B", ["b"]), np.asarray([0, 0]),
                                 np.asarray([0, 0]), np.asarray([0.5, bad]))

    def test_mirrored_adds_every_row_the_other_way_round(self):
        """A self-match's survivors, between two objects of one name:
        the range's rows are not the domain's, so ids — not rows —
        swap sides."""
        domain, range_ = ["p", "q", "r"], ["r", "q"]
        loaded = Mapping.from_columns(
            "S.A", "S.A", _bridge("S.A", domain), _bridge("S.A", range_),
            np.asarray([0, 1, 0]), np.asarray([0, 0, 1]),
            np.asarray([0.5, 0.7, 0.9]), mirrored=True)
        _same(loaded, Mapping.from_correspondences("S.A", "S.A", [
            ("p", "r", 0.5), ("r", "p", 0.5), ("q", "r", 0.7),
            ("r", "q", 0.7), ("p", "q", 0.9), ("q", "p", 0.9)]))

    def test_identity_collapses_repeated_ids(self):
        assert list(Mapping.identity("A", ["x", "y", "x"])) == \
            [("x", "x", 1.0), ("y", "y", 1.0)]


# ----------------------------------------------------------------------
# the two forms never go stale
# ----------------------------------------------------------------------

def _assert_forms_agree(mapping: Mapping, rows) -> None:
    fresh = Mapping.from_correspondences(mapping.domain, mapping.range, rows)
    assert list(mapping) == list(fresh) == [tuple(row) for row in rows]
    assert len(mapping) == len(rows)
    assert mapping.by_domain == fresh.by_domain
    assert mapping.by_range == fresh.by_range
    columns = mapping.columns()
    decoded = list(zip(
        (columns.domain_space.ids[code] for code in columns.domain.tolist()),
        (columns.range_space.ids[code] for code in columns.range.tolist()),
        columns.sims.tolist()))
    assert decoded == [tuple(row) for row in rows]
    assert columns.domain.dtype == columns.range.dtype == np.int32


@pytest.mark.parametrize("warm", ["columns", "views", "both"])
def test_mutation_invalidates_every_derived_form(warm):
    mapping = Mapping.from_correspondences(
        "A", "B", [("a1", "b1", 0.5), ("a1", "b2", 0.25), ("a2", "b1", 1.0)])

    def touch():
        if warm in ("columns", "both"):
            mapping.columns()
        if warm in ("views", "both"):
            assert mapping.by_domain is not None and mapping.by_range
        if warm == "columns":  # the column form alone: no dict held
            return mapping.copy()
        return mapping

    rows = [("a1", "b1", 0.5), ("a1", "b2", 0.25), ("a2", "b1", 1.0)]
    mapping = touch()
    mapping.add("a3", "b1", 0.75)
    rows.append(("a3", "b1", 0.75))
    _assert_forms_agree(mapping, rows)

    mapping = touch()
    mapping.add("a1", "b1", 0.9)  # on_conflict="max": the larger wins
    mapping.add("a1", "b2", 0.1)  # ... and the smaller is ignored
    rows[0] = ("a1", "b1", 0.9)
    _assert_forms_agree(mapping, rows)

    mapping = touch()
    mapping.add("a1", "b1", 0.2, on_conflict="replace")
    rows[0] = ("a1", "b1", 0.2)
    _assert_forms_agree(mapping, rows)

    mapping = touch()
    with pytest.raises(ValueError):
        mapping.add("a1", "b1", 0.3, on_conflict="error")
    _assert_forms_agree(mapping, rows)

    mapping = touch()
    assert mapping.remove("a1", "b2") and not mapping.remove("a1", "b2")
    del rows[1]
    _assert_forms_agree(mapping, rows)

    mapping = touch()
    mapping.add_rows([("a2", "b3", 0.5), ("a4", "b1", 0.125),
                      ("a2", "b3", 0.625)])
    rows = [rows[0], rows[1], ("a2", "b3", 0.625), rows[2],
            ("a4", "b1", 0.125)]
    _assert_forms_agree(mapping, rows)

    mapping = touch()
    assert mapping.remove("a4", "b1")  # the last row of its domain
    _assert_forms_agree(mapping, rows[:-1])
    assert "a4" not in mapping.domain_ids()


def test_copy_is_independent_in_both_forms():
    original = Mapping.from_correspondences("A", "B", [("a", "b", 0.5)])
    duplicate = original.copy()
    duplicate.add("a", "c", 1.0)
    original.add("z", "b", 0.25)
    assert list(original) == [("a", "b", 0.5), ("z", "b", 0.25)]
    assert list(duplicate) == [("a", "b", 0.5), ("a", "c", 1.0)]


# ----------------------------------------------------------------------
# nothing follows the string-hash seed
# ----------------------------------------------------------------------

_HASH_SEED_SCRIPT = """
import json
from repro.datagen import build_dataset
from repro.eval.experiments import Workbench, run_table9
from repro.core.mapping import Mapping
from repro.core.operators.merge import merge

workbench = Workbench(build_dataset("tiny", seed=7))
left = Mapping.from_correspondences("A", "B", [
    (f"a{i % 7}", f"b{i % 5}", (i % 10) / 10) for i in range(30)])
right = Mapping.from_correspondences("A", "B", [
    (f"a{i % 5}", f"b{i % 11}", (i % 4) / 4) for i in range(40)])
merged = merge([left, right], "max")
print(json.dumps({
    "table9": run_table9(workbench).data,
    "merged": [list(row) for row in merged],
    "restricted": [list(row) for row in merged.restrict_domain(
        {f"a{i}" for i in range(7)})],
}))
"""


def test_output_order_does_not_follow_hash_seed(under_hash_seeds):
    first, second = under_hash_seeds(_HASH_SEED_SCRIPT)
    assert first == second
    assert '"candidates"' in first
