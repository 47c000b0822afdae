"""Known-good determinism fixture: the deterministic twin of det_bad.

Every function mirrors a det_bad pattern with the fix applied; the
checker must yield nothing here.
"""

import math
import os


def iterate_sorted_set():
    collected = []
    for item in sorted({"b", "a"}):
        collected.append(item)
    return collected


def iterate_sorted_local():
    names = {"x", "y"}
    collected = []
    for name in sorted(names):
        collected.append(name)
    return collected


def comprehension_over_sorted_set(tokens):
    return [token.upper() for token in sorted(set(tokens))]


def freeze_sorted_set_order(tokens, scores):
    return sorted(list(set(tokens))), list(scores.items()), len(list(set(tokens)))


def listdir_sorted(path):
    collected = []
    for entry in sorted(os.listdir(path)):
        collected.append(entry)
    return collected


def fsum_over_sorted(values):
    return math.fsum(sorted({float(value) for value in values}))


def sort_items_with_tiebreak(scores):
    return sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))


def membership_test(token, vocabulary):
    return token in set(vocabulary)


def gram_set(text) -> FrozenSet[str]:
    return frozenset(text)


def gram_list(text) -> List[str]:
    return list(text)


def iterate_sorted_set_returning_function(text):
    return [gram for gram in sorted(gram_set(text))] \
        + [gram for gram in gram_list(text)]


class Column:
    def _grams(self, value) -> Set[str]:
        return set(value)

    def vocabulary(self, values, other):
        positions = {}
        for value in values:
            for gram in sorted(self._grams(value)):
                positions.setdefault(gram, len(positions))
            # someone else's method of the same name: unknown type
            for gram in other._grams(value):
                positions.setdefault(gram, len(positions))
        return positions


class Unrelated:
    def tokens(self, value):
        # a bare name resolves against the module, not ``Column``
        return [gram for gram in _grams(value)]
