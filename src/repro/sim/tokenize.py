"""String normalization and tokenization helpers.

These are deliberately simple and deterministic: the dirty-data
behaviour MOMA's evaluation depends on (typos, abbreviations, diverse
venue strings) is produced by the data generator, not hidden in the
tokenizer.

Every text feature is a function of the value alone, and a workflow
asks for the same value's features many times — blocking, each
similarity instance, every pair a name takes part in.  So
:func:`normalize`, :func:`word_tokens` (:func:`token_tuple`),
:func:`gram_set` and :func:`name_features` share one process-wide
memo: LRU tables (``functools.lru_cache``: callable from any thread)
bounded by :data:`MEMO_ENTRIES`, holding immutable results, able to
change speed only; :func:`clear_memo` empties them.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from functools import lru_cache
from typing import FrozenSet, Iterator, List, Sequence, Tuple

_WHITESPACE_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)
_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: values a memo table holds before it evicts the least recently
#: used.  A pass of the paper's table workflows normalizes ~4k distinct
#: strings; full, the normalize / tokens / name tables cost ~4.5 MB at
#: such lengths.  A q-gram set weighs ~2.5 KB a title and only pairwise
#: scoring reads it (~300 values a pass): that table gets an eighth of
#: the entries, and the full memo stays under 8 MB.
MEMO_ENTRIES = 8192


def strip_accents(text: str) -> str:
    """Replace accented characters with their ASCII base form."""
    if text.isascii():
        # NFKD maps ASCII to itself and no ASCII character combines
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def strip_punctuation(text: str) -> str:
    """Remove punctuation, keeping word characters and whitespace."""
    return _PUNCT_RE.sub(" ", text)


@lru_cache(maxsize=MEMO_ENTRIES)
def normalize(text: str) -> str:
    """Lowercase, de-accent, strip punctuation and collapse whitespace.

    This is the canonical form used by all token-based similarity
    functions so that e.g. ``"Potter's Wheel"`` and ``"potters wheel"``
    compare equal at the token level.
    """
    text = strip_accents(text).lower()
    text = strip_punctuation(text)
    return _WHITESPACE_RE.sub(" ", text).strip()


@lru_cache(maxsize=MEMO_ENTRIES)
def token_tuple(text: str) -> Tuple[str, ...]:
    """:func:`word_tokens` as the memo holds it: an immutable tuple,
    for callers that only read it."""
    # interned, like the grams below: values share their vocabulary
    return tuple(map(sys.intern, _TOKEN_RE.findall(normalize(text))))


def word_tokens(text: str) -> List[str]:
    """Split normalized text into lowercase alphanumeric tokens."""
    return list(token_tuple(text))


def qgrams(text: str, q: int = 3, *, pad: bool = True) -> List[str]:
    """Return the list of character q-grams of ``text``.

    With ``pad=True`` (the default, matching the common trigram
    formulation) the string is padded with ``q - 1`` boundary markers
    on each side so that short strings still produce grams and prefix/
    suffix agreement is rewarded.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    text = normalize(text)
    if not text:
        return []
    if pad:
        boundary = "#" * (q - 1)
        text = f"{boundary}{text}{boundary}"
    if len(text) < q:
        return [text]
    return [text[i:i + q] for i in range(len(text) - q + 1)]


@lru_cache(maxsize=MEMO_ENTRIES // 8)
def gram_set(text: str, q: int, pad: bool) -> FrozenSet[str]:
    """The *set* of :func:`qgrams` of ``text``.

    The grams are interned: titles share most of theirs, so a table of
    gram sets holds each distinct gram string once.
    """
    return frozenset(map(sys.intern, qgrams(text, q, pad=pad)))


def ngram_windows(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield sliding windows of ``n`` consecutive tokens."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i:i + n])


def name_parts(name: str) -> tuple[str, str]:
    """Split a person name into ``(first_part, last_name)``.

    Handles both "First Last" and "Last, First" conventions.  The last
    name is the final token (or the part before the comma); everything
    else is the first-name part.  Used by the person-name similarity
    that has to survive Google-Scholar-style initial-only first names.
    """
    name = name.strip()
    if "," in name:
        last, _, first = name.partition(",")
        return first.strip(), last.strip()
    tokens = name.split()
    if not tokens:
        return "", ""
    if len(tokens) == 1:
        return "", tokens[0]
    return " ".join(tokens[:-1]), tokens[-1]


def initials(first_part: str) -> str:
    """Reduce a first-name part to its initials, e.g. ``"John B."`` -> ``"jb"``."""
    return "".join(tok[0] for tok in token_tuple(first_part) if tok)


@lru_cache(maxsize=MEMO_ENTRIES)
def name_features(name: str) -> Tuple[str, str, str, bool]:
    """``(last, first, initials, abbreviated)`` of a person name: the
    normalized :func:`name_parts`, the first-name part's
    :func:`initials`, and whether that part has one-letter tokens only
    (``"J. B."`` — vacuously also a part without any token)."""
    first_part, last_name = name_parts(name)
    return (normalize(last_name), normalize(first_part),
            initials(first_part),
            all(len(token) == 1 for token in token_tuple(first_part)))


def clear_memo() -> None:
    """Forget every memoized feature (cold-path tests and timings)."""
    normalize.cache_clear()
    token_tuple.cache_clear()
    gram_set.cache_clear()
    name_features.cache_clear()
