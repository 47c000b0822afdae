"""Chunked streaming over candidate-pair iterables.

The batch engine never materializes a full candidate stream: pairs are
pulled from the generator lazily and grouped into fixed-size lists that
become the unit of scoring, dispatch and caching.  A chunk is small
enough to bound memory and IPC payloads, and large enough to amortize
per-chunk overhead (batch call, future submission, result merge).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, TypeVar

T = TypeVar("T")


def iter_chunks(iterable: Iterable[T], chunk_size: int) -> Iterator[List[T]]:
    """Yield successive lists of up to ``chunk_size`` items.

    Consumes ``iterable`` lazily: a chunk is only pulled when the
    consumer asks for it, so candidate generation and scoring can
    pipeline.  The final chunk may be shorter; no empty chunks are
    produced.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    iterator = iter(iterable)
    while True:
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk
