"""Request-level kernels over the column layer.

:mod:`repro.engine.columns` scores one attribute; this module turns a
whole request into one ``score_rows(domain_rows, range_rows)``
kernel::

    build_column(sim, reference values)         one column per spec
      -> bind_columns(columns, query values)    bind each; compose
        -> kernel.score_rows(rows_a, rows_b)
          -> survivors(...)                     the one filter

A single-attribute request's kernel *is* its bound column.  A
multi-attribute request composes the bound columns
(:class:`MultiSpecKernel`): all columns share the ``source.ids()`` row
order and are evaluated on the same candidate row arrays, missing
values are masked as ``None`` slots, and the request's
:class:`~repro.core.operators.functions.CombinationFunction` is
applied column-wise (vectorized for the exact avg/min/max/weighted
classes, including their ``-0`` missing-as-zero policies; per-row for
custom combiners) — bit-identical to per-pair combination of the
scalar similarities.  Specs without a packed column — and specs with
a side over the memory budget — ride as
:class:`~repro.engine.columns.ScalarColumn`\\ s, alone or beside packed
ones, so every request has a kernel and the engine one way to score.

The batch engine and its sharded runner (:func:`request_kernel`: the
columns of one source pair are prepared, packed and bound once and
kept by the sources, each request only composes them) and the serve
index (its persistent columns and a page's buffer columns, bound by
:func:`bind_columns` per page of queries) all go through these
functions.  Candidate pairs cross process boundaries as int index
arrays (~8 bytes/pair) instead of string tuples, and on the sharded
path the payload contract is *shard indices in, surviving ``(rows_a,
rows_b, scores)`` arrays out* (see :mod:`repro.engine.shards`).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_not
from typing import Optional, Sequence

import numpy as _np

from repro.core.operators.functions import (
    AvgFunction,
    CombinationFunction,
    MaxFunction,
    MinFunction,
    WeightedFunction,
    combine_columns,
)
from repro.engine.columns import (
    ScalarColumn,
    build_column,
    column_config,
    value_codes,
)
from repro.engine.request import AttributeSpec
from repro.model.source import LogicalSource
from repro.sim.ngram import gram_arrays


class MultiSpecKernel:
    """Composed kernel for multi-attribute requests.

    One bound column per attribute spec — a packed column where one
    exists, a :class:`~repro.engine.columns.ScalarColumn` otherwise —
    all aligned on the same row order and evaluated on the same
    candidate row arrays.  Missing values (the columns' own masks) are
    masked into ``None`` slots and the :class:`CombinationFunction` is
    applied column-wise (``combine_columns``), so the combined
    scores are bit-identical to the scalar multi-attribute loop; pairs
    the combiner drops surface as 0.0 and fall to the ``score > 0``
    filter.

    When a positive ``threshold`` is supplied and the combiner is one
    of the exact built-in classes, ``score_rows`` evaluates columns
    *progressively*: after each column, rows whose best achievable
    combined score (a per-combiner upper bound assuming every
    unevaluated column contributes its ``score_bound_rows`` cap — the
    q-gram gram-count bound, the TF/IDF emptiness cap, the ``[0, 1]``
    score contract for scalar columns) falls below the threshold by
    the safety slack are dropped from the remaining columns'
    evaluation.  Dropped rows return 0.0 — below the positive
    threshold, exactly where their true combined score already was —
    and survivors are re-combined from the full per-column scores, so
    the output is bit-identical to the unfiltered path; custom
    combiner subclasses disable the prefilter entirely.

    *Evaluation* order is not spec order: columns answering from a
    table (:meth:`~repro.engine.columns._Column.tabulate`) go first —
    they cost a lookup a row, and whatever they rule out never reaches
    a kernel — the rest follow as the specs list them
    (:attr:`order`).  The bounds are stated over "evaluated" and
    "remaining" columns, so any order drops only rows that cannot
    reach the threshold; *combine* order is always spec order.
    """

    #: absolute slack for prefilter bound comparisons: bounds are a
    #: few float operations over values in [0, 1], so accumulated
    #: rounding error sits orders of magnitude below this.  The slack
    #: can only make the filter keep extra rows (settled by the exact
    #: combine + threshold mask), never drop a surviving one.
    PREFILTER_SLACK = 1e-9

    def __init__(self, columns, combiner: CombinationFunction, *,
                 threshold: Optional[float] = None) -> None:
        self.columns = list(columns)
        self.combiner = combiner
        #: column indices in prefilter evaluation order: tabled first
        self.order = sorted(range(len(self.columns)),
                            key=lambda j: self.columns[j].table is None)
        #: rows dropped by the progressive prefilter, cumulative
        self.prefiltered = 0
        # prefilter only for the exact built-in classes, whose bound
        # formulas below are proven; a subclass may combine arbitrarily
        cls = type(combiner)
        eligible = cls in (AvgFunction, MinFunction, MaxFunction) or (
            cls is WeightedFunction
            and len(combiner.weights) == len(self.columns))
        self._prefilter = (threshold if threshold is not None
                           and threshold > 0.0 and eligible
                           and len(self.columns) > 1 else None)
        # self-matching block expansion may flip pair orientation; only
        # safe when every column is (all packed columns are)
        self.orientation_symmetric = all(
            column.orientation_symmetric for column in self.columns)

    def score_rows(self, domain_rows, range_rows):
        """Combined float64 scores; dropped (``None``) combos are 0.0."""
        if self._prefilter is not None:
            return self._score_rows_prefiltered(domain_rows, range_rows)
        scores = [column.score_rows(domain_rows, range_rows)
                  for column in self.columns]
        present = [~column.missing_rows(domain_rows, range_rows)
                   for column in self.columns]
        return combine_columns(self.combiner, scores, present)[0]

    def _caps_after(self, domain_rows, range_rows):
        """What the bound formula reads of the unevaluated columns'
        score caps: entry ``k`` aggregates evaluation steps ``k+1..``.

        A column's ``score_bound_rows`` is an exact float upper bound
        on its ``score_rows`` (the q-gram gram-count bound, the TF/IDF
        emptiness cap, 1.0 for scalar columns).  The avg and weighted
        skip-mode bounds read no cap (``None`` entries), and no formula
        reads the first evaluated column's.
        """
        combiner = self.combiner
        cls = type(combiner)
        weights = combiner.weights if cls is WeightedFunction else None
        count = len(domain_rows)
        after = [None] * len(self.order)
        if cls is MaxFunction or (cls is MinFunction
                                  and not combiner.missing_as_zero):
            join, running = _np.maximum, _np.zeros(count)
        elif cls is MinFunction:
            join, running = _np.minimum, _np.full(count, _np.inf)
        elif combiner.missing_as_zero:
            join, running = _np.add, _np.zeros(count)
        else:
            return after
        for k in range(len(self.order) - 1, 0, -1):
            column = self.columns[self.order[k]]
            cap = _np.minimum(
                column.score_bound_rows(domain_rows, range_rows), 1.0)
            if weights is not None:
                cap = weights[self.order[k]] * cap
            running = join(running, cap)
            after[k - 1] = running
        return after

    def _score_rows_prefiltered(self, domain_rows, range_rows):
        """Progressive column evaluation under the threshold prefilter.

        Columns are evaluated in :attr:`order`.  Per combiner class the
        bound on a row's best achievable final score after a step
        (``S``/``c`` the sum/count of present scores so far, ``r`` the
        number of columns still to evaluate, caps as in
        :meth:`_caps_after`):

        * avg (skip):  ``(S + r) / (c + r)`` — monotone since every
          score is at most 1;
        * avg (-0):    ``(S + sum(remaining caps)) / n``;
        * min (skip):  current min when anything is present, else the
          largest remaining cap (one present column is the best case);
        * min (-0):    0 once any evaluated column was missing, else
          ``min(current min, smallest remaining cap)``;
        * max:         ``max(current max, largest remaining cap, 0)``;
        * weighted (skip): ``(N + Wr) / (D + Wr)`` with ``N``/``D``
          the present weighted sum / weight mass and ``Wr`` the
          remaining weight mass (monotone mediant, scores at most 1);
        * weighted (-0):   ``(N + sum(remaining w*cap)) / W_total``.

        A row is dropped only when its bound misses the threshold by
        :data:`PREFILTER_SLACK`, which dwarfs every float error above,
        so no row the exact combine would score at or over the
        threshold is ever dropped — under any evaluation order; the
        survivors are combined in spec order.
        """
        domain_rows = _np.asarray(domain_rows)
        range_rows = _np.asarray(range_rows)
        count = len(domain_rows)
        columns = self.columns
        order = self.order
        n = len(columns)
        combiner = self.combiner
        cls = type(combiner)
        cutoff = self._prefilter - self.PREFILTER_SLACK
        after = self._caps_after(domain_rows, range_rows)
        if cls is WeightedFunction:
            weights = combiner.weights
            weight_total = sum(weights)
        # every array below holds the alive rows only, compacted by one
        # ``keep`` index whenever a step drops some
        alive = _np.arange(count, dtype=_np.int64)
        rows_a, rows_b = domain_rows, range_rows
        scores = [None] * n
        present = [None] * n
        acc_sum = _np.zeros(count, dtype=_np.float64)
        acc_den = _np.zeros(count, dtype=_np.float64)
        acc_count = _np.zeros(count, dtype=_np.int64)
        acc_min = _np.full(count, _np.inf, dtype=_np.float64)
        acc_max = _np.full(count, -_np.inf, dtype=_np.float64)
        for k, j in enumerate(order):
            if not len(alive):
                break
            column = columns[j]
            s = scores[j] = column.score_rows(rows_a, rows_b)
            p = present[j] = ~column.missing_rows(rows_a, rows_b)
            if k == n - 1:
                break
            if cls is AvgFunction:
                acc_sum += _np.where(p, s, 0.0)
                acc_count += p
                if combiner.missing_as_zero:
                    bound = (acc_sum + after[k]) / n
                else:
                    r = n - 1 - k
                    bound = (acc_sum + r) / (acc_count + r)
            elif cls is MinFunction:
                acc_min = _np.minimum(acc_min, _np.where(p, s, _np.inf))
                acc_count += p
                if combiner.missing_as_zero:
                    bound = _np.where(acc_count == k + 1,
                                      _np.minimum(acc_min, after[k]), 0.0)
                else:
                    bound = _np.where(acc_count > 0, acc_min, after[k])
            elif cls is MaxFunction:
                acc_max = _np.maximum(acc_max, _np.where(p, s, -_np.inf))
                bound = _np.maximum(_np.maximum(acc_max, after[k]), 0.0)
            else:  # WeightedFunction with matching weights
                acc_sum += _np.where(p, weights[j] * s, 0.0)
                if combiner.missing_as_zero:
                    bound = (acc_sum + after[k]) / weight_total
                else:
                    acc_den += _np.where(p, weights[j], 0.0)
                    wr = sum(weights[i] for i in order[k + 1:])
                    den = acc_den + wr
                    positive = den > 0.0
                    bound = _np.where(
                        positive,
                        (acc_sum + wr) / _np.where(positive, den, 1.0),
                        0.0)
            keep = bound >= cutoff
            if keep.all():
                continue
            keep = _np.flatnonzero(keep)
            alive, rows_a, rows_b = alive[keep], rows_a[keep], rows_b[keep]
            acc_sum, acc_den, acc_count, acc_min, acc_max = (
                acc[keep] for acc in
                (acc_sum, acc_den, acc_count, acc_min, acc_max))
            for i in order[:k + 1]:
                scores[i], present[i] = scores[i][keep], present[i][keep]
            after[k + 1:] = [None if caps is None else caps[keep]
                             for caps in after[k + 1:]]
        self.prefiltered += count - len(alive)
        out = _np.zeros(count, dtype=_np.float64)
        if len(alive):
            out[alive] = combine_columns(combiner, scores, present)[0]
        return out


def bind_columns(built, query_values: Sequence[Sequence[object]],
                 combiner: Optional[CombinationFunction],
                 threshold: Optional[float]):
    """Bind every column to its query values: the request's kernel.

    Without a ``combiner`` (single attribute) that is the bound column
    itself; with one, the bound columns compose into a
    :class:`MultiSpecKernel` whose progressive prefilter is driven by
    ``threshold`` (``None`` disables it).
    """
    kernels = [column.bind(values)
               for column, values in zip(built, query_values)]
    if combiner is None:
        return kernels[0]
    return MultiSpecKernel(kernels, combiner, threshold=threshold)


def _corpus(request, spec: AttributeSpec):
    """What ``spec``'s similarity is prepared on: both sides' values
    but ``None``."""
    corpus = request.domain.attribute_column(spec.attribute)
    if request.range is not request.domain:
        corpus = corpus + request.range.attribute_column(
            spec.range_attribute)
    return list(compress(corpus, map(is_not, corpus, repeat(None))))


def prepare_similarities(request) -> None:
    """Give every spec's similarity its corpus-level state.

    In spec order, so of two specs sharing one similarity object the
    later corpus wins — on every execution path alike.
    """
    for spec in request.specs:
        spec.similarity.prepare(_corpus(request, spec))


def _kept_features(source: LogicalSource, attribute: str,
                   values: Sequence[object], similarity):
    """``(what similarity's column packs from, value codes)`` of
    ``values``, both kept by ``source``.

    The value codes (:func:`~repro.engine.columns.value_codes`) are a
    function of one source's one attribute; so are the gram arrays a
    q-gram column packs from, given ``(q, pad)`` — neither depends on
    the partner, the method or the similarity object, so DBLP's titles
    are extracted once for DBLP→ACM and DBLP→GS alike.  Every other
    column kind is handed the codes: the scalar column packs from
    them.
    """
    codes = source.derived(("value-codes", attribute),
                           lambda: value_codes(values))
    config = column_config(similarity)
    if config is None or config[0] != "ngram":
        return codes, codes
    _, q, _, pad = config
    return source.derived(("gram-arrays", attribute, q, pad),
                          lambda: gram_arrays(values, q, pad)), codes


def _bound_column(request, spec: AttributeSpec):
    """``spec``'s column: range side packed, domain side bound, each
    from the value list and the features its source keeps, carrying
    both sides' value codes.  Self-matching on one attribute binds the
    very list it packed, which aliases the packed side.

    A domain side over the memory budget sends both sides to the
    scalar column, where :func:`~repro.engine.columns.build_column`
    sends an oversized range side.
    """
    domain_values = request.domain.attribute_column(spec.attribute)
    range_values = request.range.attribute_column(spec.range_attribute)
    similarity = spec.similarity
    domain_features, domain_codes = _kept_features(
        request.domain, spec.attribute, domain_values, similarity)
    range_features, range_codes = _kept_features(
        request.range, spec.range_attribute, range_values, similarity)
    try:
        column = build_column(similarity, range_values, range_features
                              ).bind(domain_values, domain_features)
    except MemoryError:
        column = ScalarColumn(similarity, range_values, range_codes
                              ).bind(domain_values, domain_codes)
    column.codes = (domain_codes, range_codes)
    return column


def _prepared_column(request, spec: AttributeSpec):
    """:func:`_bound_column` of ``spec``'s freshly prepared similarity."""
    spec.similarity.prepare(_corpus(request, spec))
    return _bound_column(request, spec)


def _kept_column(request, spec: AttributeSpec, config):
    """``spec``'s packed column, prepared and bound once per source pair.

    A packed column is a pure function of the two sources, the two
    attribute names and ``config``
    (:func:`~repro.engine.columns.column_config`): that is its key in
    the domain source's memo (:meth:`LogicalSource.derived`, scoped to
    the range source), and a hit skips ``prepare`` along with the
    packing.  The memo keeps arrays only
    (:meth:`~repro.engine.columns._Column.release`): the parent's
    retained bytes are bytes every forked worker maps too.  Raises
    ``MemoryError``, keeping nothing, when a side is over the budget:
    a scalar column scores through its similarity *object*, which no
    key describes.
    """
    def build():
        kernel = _prepared_column(request, spec)
        if not kernel.vectorized:
            raise MemoryError("a packed side exceeds the budget")
        kernel.release()
        return kernel

    return request.domain.derived(
        ("bound-column", spec.attribute, spec.range_attribute) + config,
        build, partner=request.range)


def _spec_column(request, spec: AttributeSpec):
    """``spec``'s bound column, its similarity prepared: the kept
    packed one where the similarity packs and fits the budget, a
    :class:`~repro.engine.columns.ScalarColumn` built for this request
    otherwise."""
    config = column_config(spec.similarity)
    if config is not None:
        try:
            return _kept_column(request, spec, config)
        except MemoryError:
            pass  # over budget, nothing kept: the scalar column below
    return _prepared_column(request, spec)


def request_kernel(request, cells: int = 0):
    """The kernel scoring ``request``'s row pairs.

    One bound column per spec — range side packed, domain side bound,
    both in ``source.ids()`` row order — each built right after its
    similarity was prepared; packed columns are built once per source
    pair (:func:`_kept_column`).  Specs sharing one similarity
    *object* opt the request out of that: they are all prepared first,
    so the shared instance scores with its last corpus — what per-pair
    scoring does with it — which no per-spec key describes.

    ``cells`` is what the caller's plan allows a score table to hold:
    a column whose distinct values span no more cells than that is
    tabulated — in place, so a kept column stays tabulated for later
    requests — and composed kernels evaluate it first.
    """
    specs = request.specs
    if len({id(spec.similarity) for spec in specs}) < len(specs):
        prepare_similarities(request)
        kernels = [_bound_column(request, spec) for spec in specs]
    else:
        kernels = [_spec_column(request, spec) for spec in specs]
    for column in kernels:
        domain_codes, range_codes = column.codes
        if column.table is None and \
                len(domain_codes.rows) * len(range_codes.rows) <= cells:
            column.tabulate()
    if request.combiner is None:
        return kernels[0]
    return MultiSpecKernel(kernels, request.combiner,
                           threshold=request.threshold)
