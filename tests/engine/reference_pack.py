"""The per-gram packing loops and the scalar column's per-row loop,
kept as the oracles for the array packer and the value-coded column.

This is how :class:`repro.engine.columns.NGramColumn` built its
vocabulary and packed a side before both went through
:func:`repro.sim.ngram.gram_arrays`: one Python step per gram of every
value, over ``frozenset(qgrams(...))`` gram sets.  Only the constructor
and ``_pack`` are the old code; binding and scoring are inherited, so a
:class:`ReferenceNGramColumn` and an ``NGramColumn`` over the same
values must agree on ``sizes``, on every pairwise overlap and, bit for
bit, on ``score_rows``.

The vocabulary loop walks a ``frozenset``, so bit *positions* here
follow ``PYTHONHASHSEED`` — the defect the array packer's sorted
vocabulary removed.  Scores never depended on them.

:class:`ReferenceScalarColumn` is the :class:`ScalarColumn` from before
its sides were packed as value codes: a list of coerced texts per side
and one Python step per candidate *row* around the memo.

:func:`searchsorted_partners` is the TF/IDF partner lookup from before
:meth:`repro.engine.columns._Side.partners` read weights by direct
address: a binary search over the side's ``row * V + token`` keys,
which a side used to carry (and a serve base to store as
``col<i>.keys.bin``).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.engine.columns import (
    MAX_INDEX_BYTES,
    NGramColumn,
    ScalarColumn,
    _Column,
)
from repro.sim.ngram import NGramSimilarity
from repro.sim.tokenize import qgrams


class ReferenceNGramColumn(NGramColumn):
    """:class:`NGramColumn` with the per-gram vocabulary and pack loops."""

    def __init__(self, sim: NGramSimilarity,
                 reference_values: Sequence[object]) -> None:
        _Column.__init__(self, sim, reference_values)
        self.method = sim.method
        vocabulary: Dict[str, int] = {}
        for value in reference_values:
            for gram in self._grams(value):
                if gram not in vocabulary:
                    vocabulary[gram] = len(vocabulary)
        self._vocabulary = vocabulary
        self._width = max(1, (len(vocabulary) + 63) // 64)
        self.range = self._pack(reference_values)

    def _grams(self, value: object) -> FrozenSet[str]:
        if value is None:
            return frozenset()
        return frozenset(qgrams(str(value), self.sim.q, pad=self.sim.pad))

    def _pack(self, values: Sequence[object],
              features: Any = None) -> Tuple[Any, Any]:
        width = self._width
        if len(values) * width * 8 > MAX_INDEX_BYTES:
            raise MemoryError("packed gram index exceeds budget")
        bits = _np.zeros((len(values), width), dtype=_np.uint64)
        sizes = _np.zeros(len(values), dtype=_np.int64)
        rows: List[int] = []
        positions: List[int] = []
        lookup = self._vocabulary.get
        for row, value in enumerate(values):
            grams = self._grams(value)
            sizes[row] = len(grams)
            for gram in grams:
                position = lookup(gram)
                if position is not None:
                    rows.append(row)
                    positions.append(position)
        if rows:
            position_array = _np.asarray(positions, dtype=_np.int64)
            cells = _np.asarray(rows, dtype=_np.int64) * width \
                + (position_array >> 6)
            masks = _np.left_shift(
                _np.uint64(1), (position_array & 63).astype(_np.uint64))
            _np.bitwise_or.at(bits.reshape(-1), cells, masks)
        return bits, sizes


def searchsorted_partners(side: Any, vocab_size: int, rows: Any,
                          tokens: Any) -> Any:
    """Weights of ``tokens`` in ``rows`` of a TF/IDF side, ``+0.0``
    where the row lacks the token, by ``np.searchsorted`` over the
    side's sorted keys, rebuilt here as the side used to keep them."""
    entry_rows = _np.repeat(_np.arange(len(side.lengths), dtype=_np.int64),
                            side.lengths)
    keys = _np.sort(entry_rows * max(1, vocab_size) + side.indices)
    if len(keys) == 0:
        return _np.zeros(len(rows), dtype=_np.float64)
    queries = rows * max(1, vocab_size) + tokens
    positions = _np.searchsorted(keys, queries)
    in_range = positions < len(keys)
    safe = _np.where(in_range, positions, 0)
    matched = in_range & (keys[safe] == queries)
    return _np.where(matched, side.sorted_data[safe], 0.0)


class ReferenceScalarColumn(ScalarColumn):
    """:class:`ScalarColumn` with text lists and the per-row loop."""

    def _pack(self, values: Sequence[object],
              features: Any = None) -> List[Optional[str]]:
        return [None if value is None else str(value) for value in values]

    def kernel_rows(self, domain_rows: Any, range_rows: Any) -> Any:
        texts_a = self.domain
        texts_b = self.range
        keys: List[Optional[Tuple[str, str]]] = []
        wanted: Dict[Tuple[str, str], None] = {}
        for row_a, row_b in zip(_np.asarray(domain_rows).tolist(),
                                _np.asarray(range_rows).tolist()):
            value_a = texts_a[row_a]
            value_b = texts_b[row_b]
            if value_a is None or value_b is None:
                keys.append(None)
                continue
            key = (value_a, value_b)
            keys.append(key)
            wanted[key] = None
        found = self.memo.scores(wanted)
        out = _np.zeros(len(keys), dtype=_np.float64)
        for index, key in enumerate(keys):
            if key is not None:
                out[index] = found[key]
        return out
