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

from typing import Any, FrozenSet, List, NamedTuple, Sequence, Tuple

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
    return ordered.compress(keep)


#: a rank table spans at most this many entries plus
#: :data:`TABLE_SLACK` per key ranked: keys spread wider than that are
#: sorted instead
TABLE_FLOOR = 1 << 16
TABLE_SLACK = 8


def _ranks(keys: Array, span: int) -> Tuple[Array, int]:
    """Each of ``keys``' rank among the distinct keys, in order, and
    how many distinct keys there are; every key is below ``span``.

    Through a presence table of ``span`` entries and its running count
    where the keys fill enough of it — its size follows the data, not
    the key type — and through a sort of the keys where they are too
    sparse for that (a short page with a character high in the code
    space, such as U+3134A).
    """
    if span > TABLE_FLOOR + TABLE_SLACK * len(keys):
        distinct = _distinct(np.sort(keys))
        return np.searchsorted(distinct, keys), len(distinct)
    seen = np.zeros(span, dtype=np.bool_)
    seen[keys] = True
    rank = np.cumsum(seen, dtype=np.int32 if span < 1 << 31 else np.int64)
    rank -= 1
    return rank.take(keys), int(rank[-1]) + 1 if span else 0


def gram_arrays(values: Sequence[object], q: int, pad: bool) -> GramArrays:
    """``set(qgrams(str(value), q, pad=pad))`` of every value, as arrays.

    ``None`` and values that normalize to nothing are rows without
    grams.  The normalized texts are joined into one code-point buffer;
    every window of ``q`` characters inside one text is a gram, coded as
    a base-``|alphabet|`` number over the buffer's own alphabet (any
    character ``normalize`` keeps, ranked by :func:`_ranks`; the codes
    so far are re-ranked before a digit would take them past a rank
    table's reach), and a rank and a sort reduce the windows to the
    distinct grams and to the row-unique entries.  An unpadded text
    shorter than ``q`` is its own single gram, as in
    :func:`~repro.sim.tokenize.qgrams`.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    boundary = "#" * (q - 1) if pad else ""
    texts = ["" if value is None else normalize(str(value))
             for value in values]
    texts = [f"{boundary}{text}{boundary}".ljust(q, _FILL) if text else ""
             for text in texts]
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
    low = int(points.min()) if len(points) else 0
    letters, base = _ranks(points - np.uint32(low),
                           int(points.max()) + 1 - low if len(points) else 0)
    # the window at every position of the buffer, those across two
    # texts included: slices, not gathers; only ``starts`` are ranked
    windows = max(len(points) - (q - 1), 0)
    keys: Array = letters[:windows]
    span = base  # keys < span
    reach = TABLE_FLOOR + TABLE_SLACK * windows
    for offset in range(1, q):
        if span * base > reach:
            keys, span = _ranks(keys, span)
        keys = keys * np.int64(base) + letters[offset:offset + windows]
        span *= base
    codes, count = _ranks(keys.take(starts), span)
    # any occurrence of a gram spells it: its q code points as one
    # fixed-width text, which drops the fill (code point 0) on the way
    # out as ``rstrip`` would
    spelled: Array = np.empty(count, dtype=np.int64)
    spelled[codes] = starts
    grams: List[str] = np.ascontiguousarray(
        points[spelled[:, None] + np.arange(q)]).view(f"<U{q}").ravel(
        ).tolist()
    width = max(count, 1)
    entry_rows, entry_codes = np.divmod(
        _distinct(np.sort(rows * width + codes)), width)
    return GramArrays(entry_rows.astype(np.int32),
                      entry_codes.astype(np.int32),
                      np.bincount(entry_rows, minlength=len(texts)), grams)
