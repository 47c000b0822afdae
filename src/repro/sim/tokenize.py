"""String normalization and tokenization helpers.

These are deliberately simple and deterministic: the dirty-data
behaviour MOMA's evaluation depends on (typos, abbreviations, diverse
venue strings) is produced by the data generator, not hidden in the
tokenizer.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Iterator, List, Sequence

_WHITESPACE_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)
_TOKEN_RE = re.compile(r"[a-z0-9]+")


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


def normalize(text: str) -> str:
    """Lowercase, de-accent, strip punctuation and collapse whitespace.

    This is the canonical form used by all token-based similarity
    functions so that e.g. ``"Potter's Wheel"`` and ``"potters wheel"``
    compare equal at the token level.
    """
    text = strip_accents(text).lower()
    text = strip_punctuation(text)
    return _WHITESPACE_RE.sub(" ", text).strip()


def word_tokens(text: str) -> List[str]:
    """Split normalized text into lowercase alphanumeric tokens."""
    return _TOKEN_RE.findall(normalize(text))


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
    return "".join(tok[0] for tok in word_tokens(first_part) if tok)
