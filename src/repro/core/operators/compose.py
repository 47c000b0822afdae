"""The compose operator (paper §3.2, Figures 5, 6).

``compose(map1: A->C, map2: C->B)`` relates A and B through the shared
intermediate source C.  Per compose path ``a -> c_i -> b`` the two path
similarities are combined with ``f`` (same alternatives as merge); the
per-path values are then aggregated over all paths with ``g``:

* ``avg`` / ``min`` / ``max`` over the path similarities;
* ``relative_left``  = s(a,b) / n(a);
* ``relative_right`` = s(a,b) / n(b);
* ``relative``       = 2*s(a,b) / (n(a) + n(b)),

where ``s(a,b)`` is the *sum* of path similarities, ``n(a)`` the number
of correspondences of ``a`` in map1 and ``n(b)`` the number of
correspondences onto ``b`` in map2 (Figure 5).  The Relative family
"consider[s] the number of compose paths to prefer correspondences
that are reached via multiple paths" — the key ingredient of the
neighborhood matcher.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.mapping import Columns, Mapping, MappingKind, distinct_keys
from repro.core.operators.functions import (
    CombinationFunction,
    combine_columns,
    get_combination,
)

#: aggregation functions over compose-path similarities, by the
#: spellings ``g`` may use (case, dashes and underscores are ignored)
_PATH_AGGREGATES = {
    "avg": "avg", "average": "avg",
    "min": "min", "max": "max", "sum": "sum",
    "relative": "relative",
    "relativeleft": "relative_left",
    "relativeright": "relative_right",
}


def normalize_aggregate(g: str) -> str:
    """The canonical name of path aggregation ``g`` (``KeyError`` if
    unknown) — also what makes ``g`` a symbol of the script language."""
    aggregate = _PATH_AGGREGATES.get(
        g.strip().lower().replace("-", "").replace("_", ""))
    if aggregate is None:
        raise KeyError(
            f"unknown path aggregation {g!r}; known: {sorted(_PATH_AGGREGATES)}"
        )
    return aggregate


def compose(map1: Mapping, map2: Mapping,
            f: Union[str, CombinationFunction] = "min",
            g: str = "avg",
            *,
            kind: Optional[MappingKind] = None,
            name: Optional[str] = None) -> Mapping:
    """Compose two mappings sharing an intermediate logical source.

    Parameters
    ----------
    map1, map2:
        Mappings ``A -> C`` and ``C -> B``; ``map1.range`` must equal
        ``map2.domain``.
    f:
        Per-path combination of the two path similarities (``min`` by
        default, as used by the neighborhood matcher).
    g:
        Path aggregation: ``avg``/``min``/``max``/``sum`` or the
        ``relative`` family.
    kind:
        Kind of the result; defaults to SAME when both inputs are
        same-mappings, otherwise ASSOCIATION.
    """
    if map1.range != map2.domain:
        raise ValueError(
            "compose requires map1.range == map2.domain; got "
            f"{map1.range!r} vs {map2.domain!r}"
        )
    combiner = get_combination(f)
    aggregate = normalize_aggregate(g)
    if kind is None:
        both_same = (map1.kind == MappingKind.SAME and map2.kind == MappingKind.SAME)
        kind = MappingKind.SAME if both_same else MappingKind.ASSOCIATION

    left, right = map1.columns(), map2.columns()
    # ``right`` is grouped by domain: one segment of rows per object c
    # of the intermediate source, found through c's code
    size = len(right.domain_space.ids)
    segment_start = np.zeros(size, dtype=np.int64)
    starts = np.flatnonzero(np.diff(right.domain, prepend=-1))
    segment_start[right.domain[starts]] = starts
    # every compose path a -> c -> b, ordered by ``left`` row, then by
    # c's segment: ``left`` row ``row1[p]`` continues in ``right`` row
    # ``row2[p]``
    paths = np.bincount(right.domain, minlength=size)[left.range]
    ends = np.cumsum(paths)
    row1 = np.repeat(np.arange(len(paths)), paths)
    row2 = np.repeat(segment_start[left.range] - (ends - paths), paths) \
        + np.arange(len(row1))
    everywhere = np.ones(len(row1), dtype=np.bool_)
    path_sims, valid = combine_columns(
        combiner, (left.sims[row1], right.sims[row2]),
        (everywhere, everywhere))
    if not valid.all():  # only a custom ``f`` drops paths
        row1, row2, path_sims = row1[valid], row2[valid], path_sims[valid]

    found = Columns(left.domain_space, right.range_space,
                    left.domain[row1], right.range[row2], path_sims)
    first, slot = distinct_keys(found.pair_keys())
    found = found.take(first)
    if aggregate == "min":
        sims = np.ones(len(first), dtype=np.float64)
        np.minimum.at(sims, slot, path_sims)
    elif aggregate == "max":
        sims = np.zeros(len(first), dtype=np.float64)
        np.maximum.at(sims, slot, path_sims)
    else:
        # bincount adds its weights in input order: the path sums are
        # left to right, like the scalar combiners' (``ordered_sum``)
        sims = np.bincount(slot, weights=path_sims, minlength=len(first))
        if aggregate == "avg":
            sims = sims / np.bincount(slot, minlength=len(first))
        elif aggregate != "sum":  # the relative family (Figure 5)
            out_degree = np.bincount(left.domain)[found.domain]
            in_degree = np.bincount(right.range)[found.range]
            if aggregate == "relative_left":
                sims = sims / out_degree
            elif aggregate == "relative_right":
                sims = sims / in_degree
            else:
                sims = 2.0 * sims / (out_degree + in_degree)
    # Similarities never exceed 1: sums are bounded by the degree
    # counts, but clamp defensively against float drift.
    sims = np.minimum(sims, 1.0)
    return Mapping.of(map1.domain, map2.range,
                      found._replace(sims=sims).take(sims > 0.0),
                      kind=kind, name=name)
