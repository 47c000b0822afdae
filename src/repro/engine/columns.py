"""The scoring core: packed reference columns, bound per query side.

Everything that scores row pairs — every batch engine request, alone
or inside the composed multi-attribute kernel, and the serve tier's
:class:`~repro.serve.index.IncrementalIndex` — instantiates this one
layer::

    build_column(sim, reference_values)   # pack the reference side once
        .bind(query_values)               # attach a query side: a kernel
        .score_rows(query_rows, reference_rows)
    survivors(kernel, rows_a, rows_b, threshold)   # the one filter

Both packing calls take the values' ``features`` where the caller keeps
them — a source's :func:`~repro.sim.ngram.gram_arrays`, extracted once
per attribute however many partners it is matched against — and
extract them from the values otherwise (the serve index, per page).

A *column* packs one attribute's reference-side values.  ``bind``
returns the same column with a query side attached — a *kernel*
exposing ``score_rows`` / ``score_bound_rows`` /
``orientation_symmetric`` plus the two missing-value masks.  The batch
engine binds a request's domain values once (self-matching passes the
reference list itself, which aliases the packed side instead of
packing twice); the serve index keeps its columns across requests and
binds every page of queries.

``score_rows`` is defined once, on :class:`_Column`.  A score is a
function of the coerced value pair, so a bound column that carries
both sides' :func:`value_codes` can answer from a *table* — one score
per pair of distinct values, filled by the column's own per-kind
kernel (``kernel_rows``, which ``tests/engine/test_kernel_surface.py``
requires of every kind beside ``score_bound_rows``) over one
representative row per value — and does so once the engine
found the grid smaller than the request (:meth:`_Column.tabulate`).
Without a table ``score_rows`` *is* ``kernel_rows``.

Three columns exist, chosen by :func:`build_column`:

* :class:`NGramColumn` — q-gram sets as bit rows of a packed
  ``uint64`` matrix, scattered from the values' gram arrays in one
  ``bitwise_or.at``; a chunk scores with a gather, a bitwise AND,
  ``np.bitwise_count`` and an exact float32 row sum;
* :class:`TfIdfColumn` — prepared TF/IDF vectors as CSR arrays, chunks
  scored as sparse dot products (ragged gather, partner weights by
  direct address into bit rows, ``bincount`` segment sums);
* :class:`ScalarColumn` — the fallback for every other similarity,
  and the serve index's column for its buffer rows: value codes plus
  the memoized ``score_batch`` (:class:`ValuePairMemo`).

Bit-exactness.  The kernels evaluate the *same* arithmetic expressions
as the scalar ``_score`` implementations in the same order, so column,
batched and per-pair scoring agree to the last bit.  The query side is
packed over the *reference* vocabulary, which is exact as well:
q-grams absent from it can never overlap a reference row, so they
count toward the row's gram-set *size* but set no bit; TF/IDF query
entries for unseen tokens contribute exact ``+0.0`` terms to the dot
product (all weights are non-negative, so skipping them cannot flip a
``-0.0``) while the expansion tie-break still compares the *logical*
vector sizes and full lexicographic text order.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from itertools import compress, repeat
from operator import is_
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.base import SimilarityFunction
from repro.sim.ngram import GramArrays, NGramSimilarity, gram_arrays
from repro.sim.tfidf import TfIdfCosineSimilarity

import numpy

_np: Any = numpy  # arrays are typed ``Any`` throughout this module

ValuePair = Tuple[str, str]
#: ``(JSON meta, named arrays)`` — a column's on-disk form
ColumnState = Tuple[Dict[str, Any], Dict[str, Any]]

#: refuse to pack one side of a column into more than this many bytes;
#: :func:`build_column` then falls back to the scalar column
MAX_INDEX_BYTES = 512 * 1024 * 1024

#: refuse to pack a q-gram side whose rows could hold this many grams:
#: :meth:`NGramColumn.kernel_rows` sums a row's counts in float32,
#: exact for every integer below 2**24; :func:`build_column` then falls
#: back to the scalar column
MAX_GRAMS = 1 << 24
#: bytes of one side's gathered bit rows in a
#: :meth:`NGramColumn.kernel_rows` block: a longer call is scored
#: ``GATHER_BYTES // (8 * width)`` rows at a time, so both gathered
#: blocks stay in a core's cache whatever the call's length
GATHER_BYTES = 1 << 18
#: row pairs of one kernel call: the default engine slice
#: (:class:`~repro.engine.engine.EngineConfig` ``chunk_size``) and a
#: :meth:`_Column.tabulate` block, so filling a table holds no more
#: gathered rows at once than scoring a slice does
SLICE_ROWS = 8192

#: bytes per packed TF/IDF entry: insertion-order indices (8) + data
#: (8) plus the ``(row, token)``-ordered data (8); per ``(row, word)``
#: cell: its bit word (8) + its entry offset (8)
_BYTES_PER_ENTRY, _BYTES_PER_CELL = 24, 16
#: ``1 << bit`` for every bit of a ``uint64`` word
_BIT = _np.left_shift(_np.uint64(1), _np.arange(64, dtype=_np.uint64))


def missing_mask(values: Sequence[object]) -> Any:
    """Boolean row array marking ``None`` attribute values."""
    return _np.fromiter(map(is_, values, repeat(None)),
                        dtype=_np.bool_, count=len(values))


class ValueCodes(NamedTuple):
    """One side's values, coded (:func:`value_codes`)."""

    codes: Any  # int64 per row: its value's code, -1 = missing
    rows: Any  # int64 per code: the first row holding that value
    texts: List[str]  # per code: the coerced value


def value_codes(values: Sequence[object]) -> ValueCodes:
    """Code ``values`` over their distinct coerced texts.

    A value's code is the position of ``str(value)`` among the distinct
    texts in order of first appearance — what every column scores is
    the coerced text, so ``1`` and ``"1"`` share a code and ``1.0`` has
    its own; ``None`` is -1, apart from the literal text ``"None"``.
    One dict pass over the texts, no Python step per value.
    """
    present = ~missing_mask(values)
    texts = list(map(str, compress(values, present.tolist())))
    distinct = dict.fromkeys(texts)
    code_of = dict(zip(distinct, range(len(distinct))))
    coded = _np.fromiter(map(code_of.__getitem__, texts),
                         dtype=_np.int64, count=len(texts))
    rows = _np.flatnonzero(present)
    codes = _np.full(len(values), -1, dtype=_np.int64)
    codes[rows] = coded
    # codes count first appearances, so a value is new where its code
    # passes every code before it
    first = _np.flatnonzero(
        _np.diff(_np.maximum.accumulate(coded), prepend=-1))
    return ValueCodes(codes, rows[first], list(distinct))


class ValuePairMemo:
    """The bounded value-pair memo around one similarity's ``score_batch``.

    Maps coerced ``(value_a, value_b)`` string pairs to scores; only
    unseen pairs reach ``score_batch``.  Blocking strategies that emit
    duplicate candidates and sources with repeated attribute values
    both collapse onto memo hits.  The memo is cleared when it would
    outgrow ``limit`` entries, which bounds worker and server memory on
    very large runs; scoring is deterministic, so the memo can only
    change speed, never results.
    """

    def __init__(self, sim: SimilarityFunction,
                 limit: int = 1 << 20) -> None:
        self.sim = sim
        self.limit = limit
        self._scores: Dict[ValuePair, float] = {}

    def scores(self, keys: Iterable[ValuePair]) -> Dict[ValuePair, float]:
        """Scores of the *distinct* ``keys`` as a call-local dict.

        The returned dict holds every requested key, so a memo reset
        triggered by this very call can never orphan a pair the caller
        is still serving.
        """
        memo = self._scores
        found: Dict[ValuePair, float] = {}
        work: List[ValuePair] = []
        for key in keys:
            score = memo.get(key)
            if score is None:
                work.append(key)
            else:
                found[key] = score
        if work:
            fresh = dict(zip(work, self.sim.score_batch(work)))
            if len(memo) + len(fresh) > self.limit:
                memo.clear()
            if len(fresh) <= self.limit:
                memo.update(fresh)
            found.update(fresh)
        return found


class _Column:
    """Shared column mechanics: the reference side, ``bind``, the
    masks, ``score_rows``.

    Subclasses pack one side's values in ``_pack`` and score bound rows
    in ``kernel_rows(domain_rows, range_rows)`` /
    ``score_bound_rows``; both are only meaningful on the kernel
    ``bind`` returns.  Rows are aligned with the value lists handed to
    the constructor and to ``bind``.
    """

    #: False for the memoized ``score_batch`` fallback
    vectorized = True
    #: whether ``score_rows`` is independent of pair orientation — the
    #: block-vectorized sharded mode may expand a self-matching pair
    #: either way round
    orientation_symmetric = True
    #: the bound ``(domain, range)`` sides' :class:`ValueCodes`, where
    #: whoever bound the column keeps them (the batch engine does)
    codes: Optional[Tuple[ValueCodes, ValueCodes]] = None
    #: ``(row offset per domain row, column per range row, flat
    #: scores)`` over every pair of distinct values, once
    #: :meth:`tabulate` ran
    table: Any = None

    #: clear the similarity's per-string cache (TF/IDF vectors: they
    #: depend on the prepared corpus, so the similarity keeps them)
    #: once query traffic has grown it beyond this many entries past
    #: the reference size
    QUERY_CACHE_SLACK = 65536
    #: attributes only ``bind`` / ``_pack`` / ``export`` read
    _PACKING_STATE: Tuple[str, ...] = ("sim", "_reference_values")

    def __init__(self, sim: SimilarityFunction,
                 reference_values: Sequence[object]) -> None:
        self.sim = sim
        self._reference_values = reference_values
        self.range: Any = None
        self.range_missing = missing_mask(reference_values)
        self.domain: Any = None
        self.domain_missing: Any = None

    def _pack(self, values: Sequence[object], features: Any = None) -> Any:
        raise NotImplementedError

    def _query_cache(self) -> Optional[Dict[str, Any]]:
        """The similarity's per-string cache that binds may grow."""
        return None

    def bind(self, query_values: Sequence[object],
             features: Any = None) -> "_Column":
        """This column with ``query_values`` attached as the domain side.

        Binding the very list the column was built from (self-matching)
        aliases the packed reference side.  ``features`` is what the
        caller already extracted from exactly these values, for the
        column kinds that pack from an extraction.
        """
        kernel = copy.copy(self)
        kernel.codes = kernel.table = None  # they describe the old side
        if query_values is self._reference_values:
            kernel.domain = self.range
            kernel.domain_missing = self.range_missing
            return kernel
        kernel.domain = self._pack(query_values, features)
        kernel.domain_missing = missing_mask(query_values)
        cache = self._query_cache()
        if cache is not None and len(cache) > \
                len(self._reference_values) + self.QUERY_CACHE_SLACK:
            # unbounded distinct-query traffic must not leak through
            # the similarity's per-string cache
            cache.clear()
        return kernel

    def missing_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        """Boolean array: pairs with a ``None`` value on either side."""
        return self.domain_missing[domain_rows] | self.range_missing[range_rows]

    def score_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        """Score aligned row-index arrays; returns a float64 array.

        Three gathers through the :attr:`table` where there is one, the
        column kind's ``kernel_rows`` otherwise — bit-identical, since
        the table holds what that very kernel scored.
        """
        if self.table is None:
            return self.kernel_rows(domain_rows, range_rows)
        offsets, columns, scores = self.table
        return scores.take(offsets[domain_rows] + columns[range_rows])

    def tabulate(self) -> None:
        """Fill :attr:`table` from :attr:`codes`: every later
        ``score_rows`` is a lookup.

        ``kernel_rows`` scores the grid of representative rows, so the
        table cannot disagree with the kernel, orientation included.
        The grid sits in a frame of zeros that the missing code (-1)
        wraps onto: a missing value scores exact 0.0 in every kernel.
        Whether the grid is worth filling is the caller's decision
        (:func:`repro.engine.vectorized.request_kernel`).
        """
        (codes_a, rows_a, _), (codes_b, rows_b, _) = self.codes
        height, width = len(rows_a) + 1, len(rows_b) + 1
        grid = _np.zeros(height * width)
        cells = (height - 1) * (width - 1)
        # in blocks of SLICE_ROWS pairs: one call over the whole grid
        # gathers every cell's packed rows at once
        for start in range(0, cells, SLICE_ROWS):
            a, b = _np.divmod(_np.arange(
                start, min(start + SLICE_ROWS, cells)), width - 1)
            grid[a * width + b] = self.kernel_rows(rows_a[a], rows_b[b])
        self.table = (codes_a % height * width, codes_b % width, grid)

    def release(self) -> None:
        """Keep the packed arrays only: this kernel is done binding.

        Empties the similarity's per-string cache, where it keeps one
        — the arrays hold everything it computed — and forgets what
        only packing reads
        (:attr:`_PACKING_STATE`: the similarity, the value list, the
        vocabulary), so a kernel kept for later requests retains numpy
        state and nothing per string.  It still scores; binding or
        exporting it again raises ``AttributeError``.
        """
        cache = self._query_cache()
        if cache is not None:
            cache.clear()
        for name in self._PACKING_STATE:
            delattr(self, name)

    @property
    def released(self) -> bool:
        """Whether :meth:`release` ran: arrays only, no more binding."""
        return not hasattr(self, "sim")

    def export(self) -> ColumnState:
        raise NotImplementedError


class NGramColumn(_Column):
    """Packed-bitmap q-gram column.

    A missing attribute value becomes an all-zero row, which scores 0.0
    against everything and is therefore dropped by the ``score > 0``
    filter — the same outcome as the scalar path's missing-value skip.
    """

    sim: NGramSimilarity
    _PACKING_STATE = _Column._PACKING_STATE + ("_vocabulary", "_lookup")

    def __init__(self, sim: NGramSimilarity,
                 reference_values: Sequence[object],
                 restored: Optional[ColumnState] = None,
                 features: Optional[GramArrays] = None) -> None:
        super().__init__(sim, reference_values)
        self.method = sim.method
        if restored is not None:
            meta, arrays = restored
            self._set_vocabulary(list(meta["vocabulary"]))
            self.range = (arrays["range_bits"], arrays["range_sizes"])
            return
        if features is None:
            features = gram_arrays(reference_values, sim.q, sim.pad)
        # the reference's distinct grams in sorted order: positions
        # that depend on the values alone
        self._set_vocabulary(features.grams)
        self.range = self._pack(reference_values, features)

    def _set_vocabulary(self, grams: List[str]) -> None:
        self._vocabulary = grams
        self._width = max(1, (len(grams) + 63) // 64)
        #: gram -> vocabulary position, built by the first query side
        #: to bind: the reference side needs none
        self._lookup: Optional[Dict[str, int]] = None

    def _positions(self, grams: List[str]) -> Any:
        """Each of ``grams``' position in the vocabulary, -1 where it
        has none."""
        if self._lookup is None:
            self._lookup = dict(zip(self._vocabulary,
                                    range(len(self._vocabulary))))
        return _np.fromiter(map(self._lookup.get, grams, repeat(-1)),
                            dtype=_np.int64, count=len(grams))

    def _pack(self, values: Sequence[object],
              features: Optional[GramArrays] = None) -> Tuple[Any, Any]:
        """Pack gram sets over the *reference* vocabulary.

        ``features`` are ``values``' gram arrays
        (:func:`repro.sim.ngram.gram_arrays`, extracted here when the
        caller keeps none).  The reference's own codes are vocabulary
        positions already; a query side's distinct grams are looked up
        in the vocabulary once each (:meth:`_positions`).  The
        ``(row, gram)`` entries are scattered in one ``bitwise_or.at``.
        Grams outside the vocabulary (possible only on the query side)
        set no bit but still count toward the row size, so overlap stays
        exact while dice/jaccard denominators see the full set size.
        """
        width = self._width
        if len(values) * width * 8 > MAX_INDEX_BYTES:
            raise MemoryError("packed gram index exceeds budget")
        if len(self._vocabulary) >= MAX_GRAMS:
            raise MemoryError("gram counts would not sum exactly")
        if features is None:
            features = gram_arrays(values, self.sim.q, self.sim.pad)
        bits = _np.zeros((len(values), width), dtype=_np.uint64)
        rows = features.rows
        if features.grams is self._vocabulary:
            positions = features.codes.astype(_np.int64)
        else:
            positions = self._positions(features.grams).take(
                features.codes)
            known = positions >= 0
            positions, rows = positions.compress(known), rows.compress(known)
        cells = rows.astype(_np.int64) * width + (positions >> 6)
        masks = _np.left_shift(
            _np.uint64(1), (positions & 63).astype(_np.uint64))
        _np.bitwise_or.at(bits.reshape(-1), cells, masks)
        return bits, features.sizes

    def kernel_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        """Score aligned row-index arrays; returns a float64 array.

        Evaluates the scalar ``_score`` expressions elementwise:
        overlap 0 (including missing values) divides to +0.0 exactly,
        every denominator being at least 1.  The overlap is a float32
        row sum (``einsum``: numpy's integer ``sum(axis=1)`` costs 2.5x
        at 2048 rows), exact because every partial sum is an integer
        below :data:`MAX_GRAMS`; against the int64 sizes each
        expression is then evaluated in float64, as before.

        The bit rows are gathered in blocks of :data:`GATHER_BYTES` a
        side, so a call of any length touches cache-sized blocks; each
        row's overlap is its own, so the blocking cannot change a bit.
        """
        domain_bits, domain_sizes = self.domain
        range_bits, range_sizes = self.range
        overlap = _np.empty(len(domain_rows), dtype=_np.float32)
        step = max(1, GATHER_BYTES // (8 * self._width))
        for start in range(0, len(domain_rows), step):
            both = domain_bits.take(domain_rows[start:start + step], axis=0)
            both &= range_bits.take(range_rows[start:start + step], axis=0)
            _np.einsum("ij->i", _np.bitwise_count(both).astype(_np.float32),
                       out=overlap[start:start + step])
        size_a = domain_sizes[domain_rows]
        size_b = range_sizes[range_rows]
        if self.method == "dice":
            return 2.0 * overlap / _np.maximum(size_a + size_b, 1)
        if self.method == "jaccard":
            return overlap / _np.maximum(size_a + size_b - overlap, 1)
        # overlap coefficient
        return overlap / _np.maximum(_np.minimum(size_a, size_b), 1)

    def score_bound_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        """Per-pair score upper bounds from gram counts alone.

        The overlap can never exceed the smaller gram-set size, and
        each scalar expression is monotone in the exactly-represented
        integer overlap under IEEE correctly-rounded division, so
        ``kernel_rows(...) <= score_bound_rows(...)`` holds *exactly*,
        float by float — a pair whose bound misses the threshold can
        be dropped with bit-identical surviving results.  O(pairs)
        size gathers; the packed bitmaps are never touched.
        """
        size_a = self.domain[1][domain_rows]
        size_b = self.range[1][range_rows]
        cap = _np.minimum(size_a, size_b)
        if self.method == "dice":
            # same denominator as kernel_rows, numerator capped
            return 2.0 * cap / _np.maximum(size_a + size_b, 1)
        if self.method == "jaccard":
            # overlap=cap minimizes the denominator to max(a, b)
            return cap / _np.maximum(_np.maximum(size_a, size_b), 1)
        # overlap coefficient: 1.0 whenever overlap is possible at
        # all, 0.0 for an empty side (which scores exactly 0.0)
        return cap / _np.maximum(cap, 1)

    def export(self) -> ColumnState:
        meta = {"kind": "ngram",
                "vocabulary": list(self._vocabulary),
                "reference_size": len(self._reference_values)}
        return meta, {"range_bits": self.range[0],
                      "range_sizes": self.range[1]}


class _Side:
    """One side's packed TF/IDF vectors.

    Insertion-order CSR arrays (``indptr``/``indices``/``data``) for
    expansion — entry order within a row is the vector dict's insertion
    order, which the summation replays — and the same weights in
    ``(row, token)`` order (``sorted_data``), addressed through the
    rows' tokens as :class:`NGramColumn`'s ``uint64`` bit rows over the
    reference vocabulary (``bits``, ``width`` words a row) and
    ``before``, the sorted entries ahead of each ``(row, word)`` cell;
    :meth:`address` rebuilds both from the exported :attr:`ARRAYS`.
    Only tokens of the reference vocabulary are packed; ``logical``
    keeps each row's full vector size for the scalar tie-break, and
    ``rank`` its text's position in the cross-side lexicographic order.
    """

    ARRAYS = ("indptr", "indices", "data", "sorted_data", "lengths", "rank")
    __slots__ = ARRAYS + ("logical", "width", "bits", "before")

    def __init__(self, vectors: List[Dict[str, float]],
                 vocabulary: Dict[str, int], width: int,
                 ranks: List[int]) -> None:
        if sum(len(vector) for vector in vectors) * _BYTES_PER_ENTRY \
                + len(vectors) * width * _BYTES_PER_CELL > MAX_INDEX_BYTES:
            raise MemoryError("packed TF/IDF index exceeds budget")
        indices: List[int] = []
        data: List[float] = []
        indptr = [0]
        lookup = vocabulary.get
        for vector in vectors:
            for token, weight in vector.items():
                position = lookup(token)
                if position is not None:
                    indices.append(position)
                    data.append(weight)
            indptr.append(len(indices))
        self.indptr = _np.asarray(indptr, dtype=_np.int64)
        self.indices = _np.asarray(indices, dtype=_np.int64)
        self.data = _np.asarray(data, dtype=_np.float64)
        self.lengths = _np.diff(self.indptr)
        rows = _np.repeat(_np.arange(len(vectors), dtype=_np.int64),
                          self.lengths)
        self.sorted_data = self.data[
            _np.argsort(rows * (width << 6) + self.indices, kind="stable")]
        self.rank = _np.asarray(ranks, dtype=_np.int64)
        self.logical = _np.asarray([len(vector) for vector in vectors],
                                   dtype=_np.int64)
        self.address(width)

    def address(self, width: int) -> None:
        """Rebuild ``bits`` (one ``bitwise_or.at``) and ``before``."""
        rows = _np.repeat(_np.arange(len(self.lengths), dtype=_np.int64),
                          self.lengths)
        bits = _np.zeros(len(self.lengths) * width, dtype=_np.uint64)
        _np.bitwise_or.at(bits, rows * width + (self.indices >> 6),
                          _BIT[self.indices & 63])
        counts = _np.bitwise_count(bits)
        self.width, self.bits = width, bits
        self.before = _np.cumsum(counts, dtype=_np.int64) - counts

    def partners(self, rows: Any, tokens: Any) -> Any:
        """Weights of ``tokens`` (aligned with ``rows``) in those rows,
        ``+0.0`` where a row lacks its token: a token's weight sits at
        its cell's ``before`` plus the set bits below it in its word
        (an absent token's position may run past the end: clipped; a
        side without entries has no bit set and nothing to take)."""
        if len(self.sorted_data) == 0:
            return _np.zeros(len(rows), dtype=_np.float64)
        cells = rows * self.width + (tokens >> 6)
        words = self.bits[cells]
        bit = _BIT[tokens & 63]
        positions = self.before[cells] + _np.bitwise_count(words & (bit - 1))
        return _np.where((words & bit) != 0,
                         self.sorted_data.take(positions, mode="clip"), 0.0)


class TfIdfColumn(_Column):
    """Sparse CSR TF/IDF column.

    The scalar ``TfIdfCosineSimilarity._score`` iterates the smaller
    vector's ``(token, weight)`` items *in insertion order* and
    accumulates ``weight * other.get(token, 0.0)`` left to right.  The
    kernel replays precisely that computation: row weights are the very
    dicts :meth:`TfIdfCosineSimilarity.value_vector` produces, the
    smaller row (tie: the lexicographically smaller text) is expanded,
    partner weights are read from the other side by direct address,
    and ``np.bincount`` accumulates the products sequentially in input
    order.  A missing (or token-free) value becomes an empty row that
    scores 0.0 against everything.
    """

    sim: TfIdfCosineSimilarity
    _PACKING_STATE = _Column._PACKING_STATE + ("_vocabulary",
                                               "_sorted_texts")

    def __init__(self, sim: TfIdfCosineSimilarity,
                 reference_values: Sequence[object],
                 restored: Optional[ColumnState] = None) -> None:
        super().__init__(sim, reference_values)
        if restored is not None:
            meta, arrays = restored
            self._vocabulary = {token: position for position, token
                                in enumerate(meta["vocabulary"])}
            self._width = max(1, (len(self._vocabulary) + 63) // 64)
            self._sorted_texts = list(meta["sorted_texts"])
            # a base written before the bit rows also carries ``keys``
            side = object.__new__(_Side)
            for name in _Side.ARRAYS:
                setattr(side, name, arrays[name])
            side.logical = side.lengths
            side.address(self._width)
            self.range = side
            return
        vocabulary: Dict[str, int] = {}
        for value in reference_values:
            for token in sim.value_vector(value):
                if token not in vocabulary:
                    vocabulary[token] = len(vocabulary)
        self._vocabulary = vocabulary
        self._width = max(1, (len(vocabulary) + 63) // 64)
        self._sorted_texts = sorted({self._text(value)
                                     for value in reference_values})
        self.range = self._pack(reference_values)

    @staticmethod
    def _text(value: object) -> str:
        return "" if value is None else str(value)

    def _query_cache(self) -> Optional[Dict[str, Any]]:
        return self.sim._vector_cache

    def _rank(self, text: str) -> int:
        """Rank of a text in the cross-side lexicographic order.

        Reference texts sit at even ranks; a query text absent from
        the reference slots between its neighbours at an odd rank, so
        rank comparison agrees with text comparison for every
        (query, reference) pair — including the equal-text tie, where
        the shared even rank makes the kernel's ``<=`` expand the
        query side exactly like the scalar tie-break.
        """
        position = bisect_left(self._sorted_texts, text)
        if position < len(self._sorted_texts) \
                and self._sorted_texts[position] == text:
            return 2 * position
        return 2 * position - 1

    def _pack(self, values: Sequence[object], features: Any = None) -> _Side:
        return _Side([self.sim.value_vector(value) for value in values],
                     self._vocabulary, self._width,
                     [self._rank(self._text(value)) for value in values])

    def kernel_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        """Score aligned row-index arrays; returns a float64 array.

        Per pair, the smaller row (tie: smaller text rank) is expanded
        and dotted against the other side, products summed in the
        expanded row's insertion order, result clamped to ``[0, 1]``
        exactly as :meth:`SimilarityFunction.similarity` clamps.
        """
        rows_a = _np.asarray(domain_rows, dtype=_np.int64)
        rows_b = _np.asarray(range_rows, dtype=_np.int64)
        length_a = self.domain.logical[rows_a]
        length_b = self.range.logical[rows_b]
        expand_domain = (length_a < length_b) | (
            (length_a == length_b)
            & (self.domain.rank[rows_a] <= self.range.rank[rows_b]))
        scores = _np.zeros(len(rows_a), dtype=_np.float64)
        subset = _np.nonzero(expand_domain)[0]
        if len(subset):
            scores[subset] = self._dot(self.domain, rows_a[subset],
                                       self.range, rows_b[subset])
        subset = _np.nonzero(~expand_domain)[0]
        if len(subset):
            scores[subset] = self._dot(self.range, rows_b[subset],
                                       self.domain, rows_a[subset])
        _np.clip(scores, 0.0, 1.0, out=scores)
        return scores

    def score_bound_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        """Per-pair score upper bounds from packed vector lengths alone.

        The final clamp caps every cosine at 1.0, and a pair with an
        empty packed row on either side scores exactly 0.0 (no token
        can match), so the cap tightens to 0.0 there.  A nontrivial
        sparse bound would cost a gather per vector entry, not worth it
        when the clamp already gives an exact cap.
        """
        empty = (self.domain.lengths[domain_rows] == 0) \
            | (self.range.lengths[range_rows] == 0)
        return _np.where(empty, 0.0, 1.0)

    def _dot(self, expand: _Side, expand_rows: Any,
             lookup: _Side, lookup_rows: Any) -> Any:
        """Dot each expanded row against its partner row on the other side.

        The ragged expansion enumerates every ``(pair, token, weight)``
        entry of the expanded rows in stored (insertion) order; partner
        weights come from :meth:`_Side.partners`, a word gather and a
        popcount per entry; ``bincount`` then sums each pair's products
        sequentially in input order — the scalar loop.
        """
        lengths = expand.lengths[expand_rows]
        total = int(lengths.sum())
        count = len(expand_rows)
        if total == 0:
            return _np.zeros(count, dtype=_np.float64)
        pair_ids = _np.repeat(_np.arange(count, dtype=_np.int64), lengths)
        # entry j of a pair sits at its expanded row's indptr + j
        flat = _np.arange(total, dtype=_np.int64) + _np.repeat(
            expand.indptr[expand_rows] - (_np.cumsum(lengths) - lengths),
            lengths)
        tokens = expand.indices[flat]
        weights = expand.data[flat]
        partners = lookup.partners(_np.repeat(lookup_rows, lengths), tokens)
        return _np.bincount(pair_ids, weights=weights * partners,
                            minlength=count)

    def export(self) -> ColumnState:
        meta = {"kind": "tfidf",
                "vocabulary": list(self._vocabulary),
                "reference_size": len(self._reference_values),
                "sorted_texts": self._sorted_texts}
        return meta, {name: getattr(self.range, name)
                      for name in _Side.ARRAYS}


class ScalarColumn(_Column):
    """Fallback column: memoized ``score_batch`` over coerced texts.

    Each side is packed as its :func:`value_codes` and the distinct
    texts they stand for.  A slice scores its *distinct* value-pair
    codes once through the similarity's ``score_batch`` — bit-identical
    to per-pair ``similarity`` calls — and gathers them back onto the
    rows: an exact-year column over 36k candidate rows is a ~10 x 10
    lookup.
    The memo lives on the column and so persists across binds.
    Missing values score 0.0 like the packed columns.

    Not orientation-symmetric in general (the wrapped similarity may
    not be), so a kernel that is or contains a scalar column keeps
    self-matching requests on the orientation-faithful pair stream
    instead of the block-vectorized expansion.
    """

    vectorized = False
    orientation_symmetric = False

    def __init__(self, sim: SimilarityFunction,
                 reference_values: Sequence[object],
                 features: Any = None) -> None:
        super().__init__(sim, reference_values)
        self.memo = ValuePairMemo(sim)
        self.range = self._pack(reference_values, features)

    def _pack(self, values: Sequence[object],
              features: Any = None) -> ValueCodes:
        """``features``, the values' :class:`ValueCodes` — coded here
        when the caller keeps none (or kept what another column kind
        packs from)."""
        if isinstance(features, ValueCodes):
            return features
        return value_codes(values)

    def kernel_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        codes_a, _, texts_a = self.domain
        codes_b, _, texts_b = self.range
        code_a = codes_a[domain_rows]
        code_b = codes_b[range_rows]
        present = (code_a >= 0) & (code_b >= 0)
        out = _np.zeros(len(code_a), dtype=_np.float64)
        width = max(1, len(texts_b))
        pairs, inverse = _np.unique(
            code_a[present] * width + code_b[present], return_inverse=True)
        keys = [(texts_a[pair // width], texts_b[pair % width])
                for pair in pairs.tolist()]
        found = self.memo.scores(keys)
        out[present] = _np.fromiter(
            map(found.__getitem__, keys), dtype=_np.float64,
            count=len(keys))[inverse]
        return out

    def score_bound_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        """The ``[0, 1]`` score contract: the only cap a generic
        similarity offers without being evaluated."""
        return _np.ones(len(domain_rows), dtype=_np.float64)

    def export(self) -> ColumnState:
        return {"kind": "scalar"}, {}


def _unchanged(sim: SimilarityFunction, base: type,
               names: Sequence[str]) -> bool:
    """Whether ``sim``'s class inherits ``names`` from ``base`` as is."""
    return all(getattr(type(sim), name) is getattr(base, name)
               for name in names)


def column_config(sim: SimilarityFunction) -> Optional[Tuple[Any, ...]]:
    """What a packed column of ``sim`` depends on, or ``None``.

    The column registry's type guard.  Exact :class:`NGramSimilarity`
    scoring gets the packed bit column, exact
    :class:`TfIdfCosineSimilarity` scoring the sparse CSR column (both
    read bit rows with ``np.bitwise_count``: numpy >= 2.0); subclasses
    that override what a column reads or replays — and thereby silently
    change the math, such as SoftTFIDF — do not pack (``None``).  The
    tuple names the column kind and every parameter of ``sim`` that
    shapes the packed arrays besides the values themselves (for TF/IDF:
    besides the corpus ``prepare`` saw), so it can stand for ``sim`` in
    a memo key.  Requires numpy.
    """
    if not hasattr(_np, "bitwise_count"):
        return None
    if isinstance(sim, NGramSimilarity) \
            and _unchanged(sim, NGramSimilarity, ("_score", "grams")):
        return "ngram", sim.q, sim.method, sim.pad
    if isinstance(sim, TfIdfCosineSimilarity) \
            and _unchanged(sim, TfIdfCosineSimilarity,
                           ("_score", "vector", "value_vector", "idf",
                            "prepare")):
        return ("tfidf",)
    return None


def build_column(sim: SimilarityFunction,
                 reference_values: Sequence[object],
                 features: Any = None) -> _Column:
    """The column registry: pack ``reference_values`` for ``sim``.

    The packed column where :func:`column_config` allows one;
    everything else, and any reference over the
    :data:`MAX_INDEX_BYTES` budget, gets the :class:`ScalarColumn`
    fallback.  ``features`` as in :meth:`_Column.bind`.  Requires numpy.
    """
    packs = column_config(sim) is not None
    try:
        if packs and isinstance(sim, NGramSimilarity):
            return NGramColumn(sim, reference_values, features=features)
        if packs and isinstance(sim, TfIdfCosineSimilarity):
            return TfIdfColumn(sim, reference_values)
    except MemoryError:
        pass
    return ScalarColumn(sim, reference_values, features)


def survivors(kernel: Any, rows_a: Any, rows_b: Any, threshold: float,
              missing_zero: bool = False) -> Tuple[Any, Any, Any]:
    """Score row arrays and keep what the engine's one filter keeps.

    A pair survives when ``score >= threshold and score > 0``.  Under
    the single-attribute ``missing='zero'`` policy, pairs with a
    missing value (which every column scores exactly 0.0) additionally
    surface at threshold 0 instead of being dropped with the ordinary
    zero scores.  Returns the surviving ``(rows_a, rows_b, scores)``.
    """
    scores = kernel.score_rows(rows_a, rows_b)
    if threshold > 0.0:  # which implies ``score > 0``
        keep = _np.flatnonzero(scores >= threshold)
    else:  # ``score > 0`` implies ``score >= threshold``
        mask = scores > 0.0
        if missing_zero and len(rows_a):
            mask |= kernel.missing_rows(rows_a, rows_b)
        keep = _np.flatnonzero(mask)
    return rows_a.take(keep), rows_b.take(keep), scores.take(keep)


# ----------------------------------------------------------------------
# column export / import: the on-disk memmap layout
# ----------------------------------------------------------------------
#
# A column's packed reference side is a handful of flat numpy arrays
# plus a little JSON-serializable metadata (vocabulary order, sizes).
# Restoring re-assembles the column around the arrays *as given* —
# including ``np.memmap`` views of the snapshot files — so a cold shard
# worker skips the entire packing pass and starts scoring straight off
# the page cache.

def import_column(sim: Any, meta: Dict[str, Any], arrays: Dict[str, Any],
                  reference_values: Sequence[object]) -> _Column:
    """Re-assemble a column from its :meth:`~_Column.export` output.

    ``arrays`` may hold plain ndarrays or read-only ``np.memmap``
    views — scoring only ever reads the reference side.  Scalar columns
    carry no arrays; they rebuild from ``reference_values``, which is
    O(n) string coercion.  ``"none"`` is what older snapshots wrote
    for an index none of whose specs packed: a scalar column too.
    """
    kind = meta["kind"]
    if kind in ("scalar", "none"):
        return ScalarColumn(sim, reference_values)
    if kind == "ngram":
        return NGramColumn(sim, reference_values, (meta, arrays))
    if kind == "tfidf":
        return TfIdfColumn(sim, reference_values, (meta, arrays))
    raise ValueError(f"unknown packed column kind {kind!r}")
