"""Character n-gram similarity (the paper's trigram matcher).

MOMA's evaluation uses trigram string matching for publication titles
and author names (§5.2, §4.3).  We provide Dice- and Jaccard-normalized
variants over padded character q-grams; Dice over trigrams is the
classic "trigram metric" the paper names.

Two forms of the same gram sets live here: :meth:`NGramSimilarity.grams`
— one value's set, for pairwise scoring — and :func:`gram_arrays` — a
whole value list's sets as flat arrays, which is what the engine's
packed q-gram column (:class:`repro.engine.columns.NGramColumn`) is
built from.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.sim.base import SimilarityFunction
from repro.sim.tokenize import gram_set, normalize

Array = NDArray[Any]

#: fills an unpadded text shorter than ``q`` up to one window; cannot
#: occur in normalized text (``normalize`` turns it into a space)
_FILL = "\0"


class NGramSimilarity(SimilarityFunction):
    """Set-based q-gram similarity with selectable normalization.

    ``method='dice'`` computes ``2|A∩B| / (|A| + |B|)`` and
    ``method='jaccard'`` computes ``|A∩B| / |A∪B|`` over the *sets* of
    padded q-grams.  A value's gram set is a function of the value
    alone, so it comes from the process-wide memo
    (:func:`repro.sim.tokenize.gram_set`): there is no corpus-level
    state, nothing to ``prepare`` and nothing kept per instance.
    """

    def __init__(self, q: int = 3, *, method: str = "dice", pad: bool = True) -> None:
        if method not in ("dice", "jaccard", "overlap"):
            raise ValueError(f"unknown n-gram method: {method!r}")
        self.q = q
        self.method = method
        self.pad = pad
        self.name = f"{method}-{q}gram"

    def grams(self, text: str) -> FrozenSet[str]:
        """Return the q-gram set of ``text``."""
        return gram_set(text, self.q, self.pad)

    def _score(self, a: str, b: str) -> float:
        grams_a = self.grams(a)
        grams_b = self.grams(b)
        if not grams_a and not grams_b:
            return 0.0
        overlap = len(grams_a & grams_b)
        if overlap == 0:
            return 0.0
        if self.method == "dice":
            return 2.0 * overlap / (len(grams_a) + len(grams_b))
        if self.method == "jaccard":
            return overlap / len(grams_a | grams_b)
        # overlap coefficient
        return overlap / min(len(grams_a), len(grams_b))


class DiceNGram(NGramSimilarity):
    """Dice-normalized q-gram similarity."""

    def __init__(self, q: int = 3, *, pad: bool = True) -> None:
        super().__init__(q, method="dice", pad=pad)


class JaccardNGram(NGramSimilarity):
    """Jaccard-normalized q-gram similarity."""

    def __init__(self, q: int = 3, *, pad: bool = True) -> None:
        super().__init__(q, method="jaccard", pad=pad)


class TrigramSimilarity(DiceNGram):
    """The trigram metric used throughout the paper's evaluation."""

    def __init__(self) -> None:
        super().__init__(q=3)
        self.name = "trigram"


# ----------------------------------------------------------------------
# a value list's gram sets as arrays
# ----------------------------------------------------------------------

class GramArrays(NamedTuple):
    """The q-gram sets of a value list, flattened.

    One ``(rows[i], codes[i])`` entry per *distinct* gram of each row,
    rows ascending; ``codes`` index :attr:`grams`, the list's distinct
    grams in sorted (code point) order — an order that depends on the
    values alone, not on the process's string hash seed.
    """

    rows: Array  # int32 (sources keep these: half the bytes of int64)
    codes: Array  # int32
    sizes: Array  # int64: per row, the size of its gram set
    grams: List[str]


def _distinct(ordered: Array) -> Array:
    """The distinct values of a sorted array."""
    keep = np.ones(len(ordered), dtype=np.bool_)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def gram_arrays(values: Sequence[object], q: int, pad: bool) -> GramArrays:
    """``set(qgrams(str(value), q, pad=pad))`` of every value, as arrays.

    ``None`` and values that normalize to nothing are rows without
    grams.  The normalized texts are joined into one code-point buffer;
    every window of ``q`` characters inside one text is a gram, coded as
    a base-``|alphabet|`` number over the buffer's own alphabet (any
    character ``normalize`` keeps; re-ranked before a digit would
    overflow 63 bits), and two sorts reduce the windows to the distinct
    grams and to the row-unique entries.  An unpadded text shorter than
    ``q`` is its own single gram, as in
    :func:`~repro.sim.tokenize.qgrams`.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    boundary = "#" * (q - 1) if pad else ""
    texts: List[str] = []
    for value in values:
        text = "" if value is None else normalize(str(value))
        if text:
            text = f"{boundary}{text}{boundary}".ljust(q, _FILL)
        texts.append(text)
    lengths: Array = np.fromiter(map(len, texts), dtype=np.int64,
                                 count=len(texts))
    counts: Array = np.maximum(lengths - (q - 1), 0)  # windows per text
    rows: Array = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    # window i of the run starts i characters into the joined text,
    # plus the characters earlier texts end on without a window
    tails = lengths - counts
    starts: Array = (np.arange(len(rows), dtype=np.int64)
                     + np.repeat(np.cumsum(tails) - tails, counts))
    joined = "".join(texts)
    points: Array = np.frombuffer(joined.encode("utf-32-le"),
                                  dtype=np.uint32)
    alphabet = _distinct(np.sort(points))
    letters: Array = np.searchsorted(alphabet, points)
    base = max(len(alphabet), 1)
    keys: Array = letters[starts]
    span = base  # keys < span
    for offset in range(1, q):
        if span > (1 << 62) // base:
            ranked = _distinct(np.sort(keys))
            keys = np.searchsorted(ranked, keys)
            span = len(ranked)
        keys = keys * base + letters[starts + offset]
        span *= base
    distinct = _distinct(np.sort(keys))
    codes: Array = np.searchsorted(distinct, keys)
    # any occurrence of a gram spells it
    spelled: Array = np.empty(len(distinct), dtype=np.int64)
    spelled[codes] = starts
    grams = [joined[start:start + q].rstrip(_FILL)
             for start in spelled.tolist()]
    width = max(len(grams), 1)
    entries = _distinct(np.sort(rows * width + codes))
    entry_rows = entries // width
    return GramArrays(entry_rows.astype(np.int32),
                      (entries % width).astype(np.int32),
                      np.bincount(entry_rows, minlength=len(texts)), grams)
