"""The kernel surface of every column kind the registry builds.

``columns.build_column`` is the column registry: every kernel the
engine, the composed multi-attribute kernel, the shards and the serve
index score with is a column it returned, bound to a query side.
What they call on it:

* ``score_rows`` — :class:`~repro.engine.columns._Column`'s, a table
  lookup or the kind's own ``kernel_rows``.  Inheriting ``score_rows``
  therefore proves nothing: a kind owes ``kernel_rows`` itself;
* ``score_bound_rows`` — the threshold prefilters' upper bound, which
  must never be below the score;
* ``orientation_symmetric`` — a ``bool``; where it is ``True`` the
  block expansion may score a self-matching pair either way round, so
  the scores must not depend on orientation.

The kinds are collected by running the registry over every registered
similarity, so a new kind is checked the moment ``build_column`` can
return it.  The synthetic kinds at the bottom have one hole each:
they show what :func:`surface_faults` reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.columns import (
    NGramColumn,
    ScalarColumn,
    TfIdfColumn,
    _Column,
    build_column,
)
from repro.sim import available_similarities, get_similarity

VALUES = ["Adaptive Query Processing", "adaptive query optimization",
          None, "Rahm, Erhard", "E. Rahm", "2004", "1999", "",
          "data base systems", "database", "VLDB 2004", "a"]


def _built(name, params):
    sim = get_similarity(name, **params)
    sim.prepare([value for value in VALUES if value])
    return build_column(sim, VALUES)


#: every registered name with its defaults, and Monge-Elkan one way
#: round: every default is symmetric, so only that case shows a kind
#: that claims orientation symmetry wrongly
CASES = {name: (name, {}) for name in available_similarities()}
CASES["mongeelkan(symmetric=False)"] = ("mongeelkan", {"symmetric": False})
BUILT = {key: _built(*case) for key, case in CASES.items()}
KINDS = sorted({type(column) for column in BUILT.values()},
               key=lambda kind: kind.__name__)


def surface_faults(kind):
    """What ``kind`` lacks of the kernel surface, one line each."""
    faults = []
    if "kernel_rows" not in vars(kind):
        faults.append(f"{kind.__name__} does not define its own "
                      "kernel_rows()")
    if not callable(getattr(kind, "score_bound_rows", None)):
        faults.append(f"{kind.__name__} has no score_bound_rows()")
    if not isinstance(getattr(kind, "orientation_symmetric", None), bool):
        faults.append(f"{kind.__name__} does not set a bool "
                      "orientation_symmetric")
    return faults


def test_the_registry_builds_every_column_kind():
    # the scalar column is the fallback of the fourteen other names
    assert KINDS == [NGramColumn, ScalarColumn, TfIdfColumn]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_every_kind_has_the_kernel_surface(kind):
    assert surface_faults(kind) == []


def _rows():
    rows = np.arange(len(VALUES), dtype=np.int64)
    return np.repeat(rows, len(VALUES)), np.tile(rows, len(VALUES))


@pytest.mark.parametrize("name", sorted(BUILT))
def test_bounds_are_admissible(name):
    kernel = BUILT[name].bind(list(VALUES))
    rows_a, rows_b = _rows()
    scores = kernel.score_rows(rows_a, rows_b)
    assert (kernel.score_bound_rows(rows_a, rows_b) >= scores).all()


@pytest.mark.parametrize("name", sorted(BUILT))
def test_a_symmetric_kernel_scores_both_orientations_alike(name):
    column = BUILT[name]
    kernel = column.bind(column._reference_values)  # self-matching
    rows_a, rows_b = _rows()
    forward = kernel.score_rows(rows_a, rows_b)
    backward = kernel.score_rows(rows_b, rows_a)
    if kernel.orientation_symmetric:
        assert forward.tobytes() == backward.tobytes()


def test_an_asymmetric_similarity_exercises_the_orientation_check():
    # one-way Monge-Elkan averages over the first value's tokens: a
    # kind that wrongly claimed symmetry over it fails the test above
    column = BUILT["mongeelkan(symmetric=False)"]
    kernel = column.bind(column._reference_values)
    rows_a, rows_b = _rows()
    assert not np.array_equal(kernel.score_rows(rows_a, rows_b),
                              kernel.score_rows(rows_b, rows_a))


# ----------------------------------------------------------------------
# kinds with one hole each
# ----------------------------------------------------------------------

class _ScoresOnlyThroughTheBase(_Column):
    orientation_symmetric = True

    def score_bound_rows(self, domain_rows, range_rows):
        return np.ones(len(domain_rows))


class _NoBound(_Column):
    orientation_symmetric = False

    def kernel_rows(self, domain_rows, range_rows):
        return np.ones(len(domain_rows))


class _NoFlag:
    def kernel_rows(self, domain_rows, range_rows):
        return np.ones(len(domain_rows))

    def score_bound_rows(self, domain_rows, range_rows):
        return np.ones(len(domain_rows))


class _FlagNotBool:
    orientation_symmetric = None

    def kernel_rows(self, domain_rows, range_rows):
        return np.ones(len(domain_rows))

    def score_bound_rows(self, domain_rows, range_rows):
        return np.ones(len(domain_rows))


@pytest.mark.parametrize("kind,hole", [
    (_ScoresOnlyThroughTheBase, "kernel_rows"),
    (_NoBound, "score_bound_rows"),
    (_NoFlag, "orientation_symmetric"),
    (_FlagNotBool, "orientation_symmetric"),
], ids=lambda value: getattr(value, "__name__", value))
def test_each_hole_is_reported(kind, hole):
    (fault,) = surface_faults(kind)
    assert hole in fault
