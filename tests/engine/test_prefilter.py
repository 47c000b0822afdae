"""Per-spec threshold prefilter: byte-identical survivors, every combiner.

:func:`repro.engine.vectorized.request_kernel` threads the
request's threshold into :class:`MultiSpecKernel`, which drops a pair
as soon as no remaining column could lift its combined score over the
threshold (per-combiner score upper bounds).  The load-bearing
property: under the engine's survivor filter (``score >= threshold``
and ``score > 0``) the prefiltered path keeps exactly the rows the
unfiltered path keeps, with byte-identical floats — for every built-in
combiner (avg/min/max/weighted, including the ``-0`` policies), across
missing-value policies.  How many rows each combiner drops is pinned,
and a fixture whose first two columns each drop rows compacts what the
kernel carries over the alive rows twice.  Custom combiner subclasses
have no bound formula and must fall back to the unfiltered path
unchanged.
"""

import random
from typing import Optional, Sequence

import numpy
import pytest

from repro.core.operators.functions import (
    CombinationFunction,
    get_combination,
)
from repro.engine.request import AttributeSpec, MatchRequest
from repro.engine.vectorized import MultiSpecKernel, request_kernel
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.edit import LevenshteinSimilarity
from repro.sim.ngram import DiceNGram, TrigramSimilarity

WORDS = [f"tok{i}" for i in range(40)]


def _sources(seed=3, n_domain=50, n_range=70):
    rng = random.Random(seed)

    def record(source, id, i):
        source.add_record(
            id,
            title=" ".join(rng.sample(WORDS, 4)),
            venue=" ".join(rng.sample(WORDS, 2)) if i % 7 else None,
            year=str(1990 + i % 30) if i % 5 else None)

    domain = LogicalSource(PhysicalSource("A"), ObjectType("Publication"))
    range_ = LogicalSource(PhysicalSource("B"), ObjectType("Publication"))
    for i in range(n_domain):
        record(domain, f"d{i}", i)
    for i in range(n_range):
        record(range_, f"r{i}", i * 3 + 1)
    return domain, range_


def _specs():
    return [AttributeSpec("title", "title", TrigramSimilarity()),
            AttributeSpec("venue", "venue", DiceNGram()),
            AttributeSpec("year", "year", LevenshteinSimilarity())]


def _all_rows(domain, range_):
    rows_a = numpy.repeat(
        numpy.arange(len(domain.ids()), dtype=numpy.int64),
        len(range_.ids()))
    rows_b = numpy.tile(
        numpy.arange(len(range_.ids()), dtype=numpy.int64),
        len(domain.ids()))
    return rows_a, rows_b


def _ragged_sources(seed=1, n_domain=40, n_range=50):
    """Three attributes of one, four or eight words: q-gram caps well
    below 1 wherever the two sides' lengths differ."""
    rng = random.Random(seed)

    def value(i):
        if i % 9 == 0:
            return None
        return " ".join(rng.sample(WORDS, rng.choice([1, 1, 4, 8])))

    domain = LogicalSource(PhysicalSource("A"), ObjectType("Publication"))
    range_ = LogicalSource(PhysicalSource("B"), ObjectType("Publication"))
    for i in range(n_domain):
        domain.add_record(f"d{i}", x=value(i), y=value(i + 1),
                          z=value(i + 2))
    for i in range(n_range):
        range_.add_record(f"r{i}", x=value(i + 4), y=value(i + 5),
                          z=value(i + 3))
    return domain, range_


def _ragged_specs():
    return [AttributeSpec(name, name, DiceNGram()) for name in "xyz"]


def _recording(score_rows, lengths):
    def recorded(rows_a, rows_b):
        lengths.append(len(rows_a))
        return score_rows(rows_a, rows_b)
    return recorded


def _assert_survivors_identical(combiner, missing, threshold,
                                sources=_sources, specs=_specs,
                                lengths=None):
    """The prefiltered kernel against the unfiltered one; ``lengths``
    receives the rows each of its column calls scored."""
    domain, range_ = sources()
    request = MatchRequest(domain, range_, specs=specs(),
                           combiner=combiner, missing=missing,
                           threshold=threshold)
    filtered = request_kernel(request)
    unfiltered = request_kernel(request)
    unfiltered._prefilter = None  # force the unfiltered reference path
    rows_a, rows_b = _all_rows(domain, range_)
    scores_u = unfiltered.score_rows(rows_a, rows_b)
    if lengths is not None:  # the two kernels share the kept columns
        for column in filtered.columns:
            column.score_rows = _recording(column.score_rows, lengths)
    scores_f = filtered.score_rows(rows_a, rows_b)
    keep_f = (scores_f >= threshold) & (scores_f > 0.0)
    keep_u = (scores_u >= threshold) & (scores_u > 0.0)
    assert numpy.array_equal(keep_f, keep_u)
    # byte-identical floats for every survivor
    assert numpy.array_equal(
        scores_f[keep_f].view(numpy.uint64),
        scores_u[keep_u].view(numpy.uint64))
    return filtered


BUILTINS = ["avg", "avg0", "min", "min0", "max", "weighted", "weighted0"]
THRESHOLDS = [0.3, 0.6, 0.9]
#: rows each combiner's prefilter drops on the fixture at each of
#: :data:`THRESHOLDS` (the year column is scalar, capped at 1.0: max
#: can never rule a row out)
PREFILTERED = {"avg": (0, 1016, 3500), "avg0": (0, 1996, 3500),
               "min": (414, 3475, 3500), "min0": (1291, 3495, 3500),
               "max": (0, 0, 0), "weighted": (0, 2917, 3500),
               "weighted0": (0, 3221, 3500)}


def _combiner(name):
    if name.startswith("weighted"):
        return get_combination(name, weights=[0.5, 0.3, 0.2])
    return get_combination(name)


class TestBuiltinCombiners:
    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("missing", ["skip", "zero"])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_survivors_byte_identical(self, name, missing, threshold):
        kernel = _assert_survivors_identical(_combiner(name), missing,
                                             threshold)
        assert kernel._prefilter is not None  # prefilter was active
        assert kernel.prefiltered \
            == PREFILTERED[name][THRESHOLDS.index(threshold)]

    @pytest.mark.parametrize("name", ["avg", "weighted"])
    def test_prefilter_actually_drops_rows(self, name):
        kernel = _assert_survivors_identical(_combiner(name), "skip", 0.6)
        assert kernel.prefiltered > 0


    @pytest.mark.parametrize("name", BUILTINS)
    def test_rows_compact_across_two_steps(self, name):
        """The first evaluated column drops some rows and the second
        others, so everything carried over the alive rows is compacted
        twice; some rows survive all three columns.  Avg's skip bound
        stays at 2/3 or more after one column, whatever it scored."""
        lengths = []
        kernel = _assert_survivors_identical(
            _combiner(name), "skip", 0.8 if name == "avg" else 0.6,
            sources=_ragged_sources, specs=_ragged_specs, lengths=lengths)
        first, second, third = lengths
        assert first == 40 * 50 > second > third > 0
        assert kernel.prefiltered == first - third


class _MedianCombiner(CombinationFunction):
    """A custom per-row combiner with no vectorized bound formula."""

    name = "median"

    def combine(self, values: Sequence[Optional[float]]) \
            -> Optional[float]:
        present = sorted(value for value in values if value is not None)
        if not present:
            return None
        return present[len(present) // 2]


class TestFallbacks:
    def test_custom_combiner_disables_prefilter(self):
        kernel = _assert_survivors_identical(_MedianCombiner(), "skip",
                                             0.5)
        assert kernel._prefilter is None
        assert kernel.prefiltered == 0

    def test_zero_threshold_disables_prefilter(self):
        domain, range_ = _sources()
        request = MatchRequest(domain, range_, specs=_specs(),
                               combiner=_combiner("avg"), threshold=0.0)
        kernel = request_kernel(request)
        assert kernel._prefilter is None

    def test_mismatched_weight_count_disables_prefilter(self):
        domain, range_ = _sources()
        combiner = get_combination("weighted", weights=[0.6, 0.4])
        request = MatchRequest(domain, range_, specs=_specs()[:2],
                               combiner=combiner, threshold=0.5)
        kernel = request_kernel(request)
        assert isinstance(kernel, MultiSpecKernel)
        assert kernel._prefilter is not None
        # break the alignment: three columns, two weights — the bound
        # formula no longer applies, so the prefilter must disable
        # itself (combine() semantics stay whatever the scalar path
        # defines; the kernel must not guess)
        request3 = MatchRequest(domain, range_, specs=_specs(),
                                combiner=combiner, threshold=0.5)
        kernel3 = request_kernel(request3)
        assert kernel3._prefilter is None

    def test_single_column_has_no_prefilter(self):
        domain, range_ = _sources()
        request = MatchRequest(domain, range_, specs=_specs()[:1],
                               combiner=_combiner("avg"), threshold=0.5)
        kernel = request_kernel(request)
        if isinstance(kernel, MultiSpecKernel):
            assert kernel._prefilter is None
