"""The n-ary merge operator (paper §3.1, Figure 4).

Merge unifies the correspondences of mappings between the same pair of
logical sources.  The combination function decides the output
similarity per (domain, range) pair; ``PreferMap`` keeps every
correspondence of a trusted mapping and lets the others contribute
only for domain objects the preferred mapping does not cover — "the
non-preferred mappings should only contribute non-conflicting matches
for otherwise uncovered objects (thus improving recall) but not reduce
the precision for the correspondences of the preferred mapping".
"""

from __future__ import annotations

import re
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.mapping import (
    Mapping,
    MappingKind,
    canonical,
    concatenate,
    distinct_keys,
    regroup,
    validated,
)
from repro.core.operators.functions import (
    CombinationFunction,
    combine_columns,
    get_combination,
)


def _check_compatible(mappings: Sequence[Mapping]) -> None:
    first = mappings[0]
    for other in mappings[1:]:
        if other.domain != first.domain or other.range != first.range:
            raise ValueError(
                "merge requires mappings between the same sources; got "
                f"{first.domain!r}->{first.range!r} and "
                f"{other.domain!r}->{other.range!r}"
            )


_PREFER_NAME = re.compile(r"prefer(?:map)?(\d*)")


def prefer_index(function: object) -> Optional[int]:
    """The input a ``"PreferMap<i>"`` style name prefers, or ``None``.

    ``i`` counts from 1 as in the paper (``PreferMap1`` is the first
    input, index 0); ``"prefer"`` / ``"prefermap"`` without digits name
    the first input too.  Anything else is not a prefer name.
    """
    if not isinstance(function, str):
        return None
    match = _PREFER_NAME.fullmatch(function.strip().lower())
    if match is None:
        return None
    return int(match.group(1)) - 1 if match.group(1) else 0


def _merge_prefer(mappings: Sequence[Mapping], preferred_index: int,
                  name: Optional[str]) -> Mapping:
    if not 0 <= preferred_index < len(mappings):
        raise ValueError(
            f"prefer index {preferred_index} out of range for "
            f"{len(mappings)} input mappings"
        )
    tables = [mapping.columns() for mapping in mappings]
    preferred = tables.pop(preferred_index)
    covered = np.zeros(len(preferred.domain_space.ids), dtype=np.bool_)
    covered[preferred.domain] = True
    # agreeing non-preferred inputs keep their larger similarity
    rows = concatenate([preferred] + [table.take(~covered[table.domain])
                                      for table in tables])
    return Mapping.of(mappings[0].domain, mappings[0].range, canonical(rows),
                      kind=MappingKind.SAME, name=name)


def merge(mappings: Sequence[Mapping],
          function: Union[str, CombinationFunction] = "avg",
          *,
          weights: Optional[Sequence[float]] = None,
          prefer: Optional[Union[int, Mapping]] = None,
          name: Optional[str] = None) -> Mapping:
    """Merge ``mappings`` into one same-mapping.

    Parameters
    ----------
    mappings:
        Two or more mappings between the same domain and range LDS
        (a single mapping is returned as a copy for convenience).
    function:
        Combination function: ``"avg"``, ``"min"``, ``"max"``, their
        ``"-0"`` variants, ``"weighted"`` (with ``weights``), a
        :class:`CombinationFunction` instance, or a PreferMap name:
        ``"prefer"`` (with the ``prefer`` argument, else the first
        input) or ``"PreferMap<i>"`` / ``"prefer<i>"`` with ``i``
        counting inputs from 1 as in the paper — ``"PreferMap1"`` is
        ``prefer=0``.  (Until PR 19 the Python API read the digit as a
        0-based index while scripts read it 1-based.)
    prefer:
        For PreferMap semantics: the 0-based index of the preferred
        mapping or the mapping object itself (must be one of
        ``mappings``); wins over a digit in ``function``.
    name:
        Optional name for the result mapping.

    Returns
    -------
    Mapping
        The merged same-mapping.  Correspondences whose combined
        similarity resolves to ``None`` (e.g. Min-0 on a pair missing
        from one input) are excluded.
    """
    mappings = list(mappings)
    if not mappings:
        raise ValueError("merge requires at least one input mapping")
    _check_compatible(mappings)
    if len(mappings) == 1 and prefer is None:
        return mappings[0].copy(name=name)

    named = prefer_index(function)
    if prefer is not None or named is not None:
        if isinstance(prefer, Mapping):
            try:
                preferred_index = next(
                    index for index, mapping in enumerate(mappings)
                    if mapping is prefer
                )
            except StopIteration:
                raise ValueError(
                    "preferred mapping is not among the inputs") from None
        elif isinstance(prefer, int):
            preferred_index = prefer
        elif prefer is None:
            preferred_index = named
        else:
            raise TypeError(f"cannot interpret prefer={prefer!r}")
        return _merge_prefer(mappings, preferred_index, name)

    combiner = get_combination(function, weights=weights)

    # The union of all pairs, by first occurrence over the inputs in
    # input order; then combine per pair with one slot per input.
    tables = [mapping.columns() for mapping in mappings]
    rows = concatenate(tables)
    first, slot = distinct_keys(rows.pair_keys())
    values = np.zeros((len(tables), len(first)), dtype=np.float64)
    present = np.zeros(values.shape, dtype=np.bool_)
    offset = 0
    for index, table in enumerate(tables):
        slots = slot[offset:offset + len(table.sims)]
        values[index, slots] = table.sims
        present[index, slots] = True
        offset += len(table.sims)
    combined, _ = combine_columns(combiner, values, present)
    keep = combined > 0.0  # dropped pairs combine to 0.0
    merged = rows.take(first[keep])._replace(sims=validated(combined[keep]))
    return Mapping.of(mappings[0].domain, mappings[0].range, regroup(merged),
                      kind=MappingKind.SAME, name=name)
