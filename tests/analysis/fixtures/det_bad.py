"""Known-bad determinism fixture: every function below trips a DET rule.

Parsed by ``tests/analysis/test_det.py`` with a ``repro/engine/``
display path so the checker is in scope; never imported or executed.
"""

import math
import os


def iterate_set_literal():
    collected = []
    for item in {"b", "a"}:
        collected.append(item)
    return collected


def iterate_set_local():
    names = {"x", "y"}
    collected = []
    for name in names:
        collected.append(name)
    return collected


def comprehension_over_set(tokens):
    return [token.upper() for token in set(tokens)]


def freeze_set_order(tokens):
    return list(set(tokens)), tuple({token.lower() for token in tokens})


def listdir_unsorted(path):
    collected = []
    for entry in os.listdir(path):
        collected.append(entry)
    return collected


def fsum_over_set(values):
    return math.fsum({float(value) for value in values})


def sort_items_ignoring_key(scores):
    return sorted(scores.items(), key=lambda kv: kv[1])


def sort_values_with_key(scores):
    return sorted(scores.values(), key=lambda cluster: -cluster.size)


def gram_set(text) -> FrozenSet[str]:
    return frozenset(text)


def iterate_set_returning_function(text):
    return [gram for gram in gram_set(text)]


class Column:
    def _grams(self, value) -> "typing.Set[str]":
        return set(value)

    def vocabulary(self, values):
        positions = {}
        for value in values:
            for gram in self._grams(value):
                positions.setdefault(gram, len(positions))
        return positions

    def weight(self, value):
        return sum(self._grams(value))
