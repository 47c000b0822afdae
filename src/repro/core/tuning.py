"""Self-tuning of matchers and combination schemes (paper §2.2).

"Similar to the E-Tuner approach for schema matching, MOMA therefore
will provide self-tuning capabilities to automatically select matchers
and mappings and to find optimal configuration parameters.  Initially
the focus is on optimizing individual matchers and combination
schemes.  For example, for attribute matching choices must be made on
which attributes to match, and which similarity function and
similarity threshold to apply.  For suitable training data these
parameters can be optimized by standard machine learning schemes, e.g.
using decision trees."

This module provides:

* :func:`tune_threshold` — optimal threshold of an existing fuzzy
  mapping against training gold;
* :class:`GridSearchTuner` — exhaustive search over attribute /
  similarity-function / threshold configurations;
* :func:`tune_merge_weights` — weight search for the Weighted merge
  combination;
* :class:`DecisionTree` — a small CART classifier (gini splits) used by
* :class:`DecisionTreeMatcherTuner` — learns a match rule over several
  similarity features and emits it as a pluggable matcher.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.blocking.pair_generator import FullCross
from repro.core.mapping import Mapping, MappingKind
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.matchers.base import Matcher
from repro.core.operators.merge import merge
from repro.eval.metrics import f_measure, precision_recall_f1
from repro.model.source import LogicalSource
from repro.sim.base import SimilarityFunction
from repro.sim.registry import get_similarity


@dataclass
class TuningResult:
    """Outcome of a tuning run: the chosen configuration and its score."""

    params: dict
    precision: float
    recall: float
    f1: float
    trials: List[Tuple[dict, float]] = field(default_factory=list)

    def best_matcher(self) -> Matcher:
        """Instantiate the attribute matcher for the winning parameters."""
        return AttributeMatcher(
            self.params["attribute"],
            self.params.get("range_attribute"),
            similarity=self.params["similarity"],
            threshold=self.params["threshold"],
        )


def tune_threshold(mapping: Mapping, gold: Mapping
                   ) -> Tuple[float, float]:
    """Return ``(threshold, f1)`` maximizing F-measure on ``gold``.

    Scans the distinct similarity values of ``mapping`` as candidate
    inclusive thresholds — the optimal threshold is always one of them.
    """
    gold_pairs = gold.pairs()
    scored = sorted(mapping, key=lambda corr: -corr.similarity)
    if not scored:
        return 1.0, 0.0
    best_threshold, best_f1 = 1.0, 0.0
    true_positives = 0
    selected = 0
    total_gold = len(gold_pairs)
    index = 0
    while index < len(scored):
        threshold = scored[index].similarity
        # absorb the whole tie group at this similarity
        while index < len(scored) and scored[index].similarity == threshold:
            corr = scored[index]
            selected += 1
            if (corr.domain, corr.range) in gold_pairs:
                true_positives += 1
            index += 1
        if selected and total_gold:
            f1 = f_measure(true_positives / selected,
                           true_positives / total_gold)
            if f1 > best_f1:
                best_f1, best_threshold = f1, threshold
    return best_threshold, best_f1


class GridSearchTuner:
    """Exhaustive search over attribute-matcher configurations.

    For each (attribute pair, similarity function) combination the
    matcher runs once with threshold 0 and every candidate threshold is
    evaluated on the resulting fuzzy mapping — far cheaper than
    re-matching per threshold.
    """

    def __init__(self,
                 attributes: Sequence[Union[str, Tuple[str, str]]],
                 similarities: Sequence[Union[str, SimilarityFunction]],
                 thresholds: Optional[Sequence[float]] = None,
                 *, sample_size: Optional[int] = None,
                 seed: int = 0) -> None:
        if not attributes or not similarities:
            raise ValueError("attributes and similarities must be non-empty")
        self.attributes = list(attributes)
        self.similarities = list(similarities)
        self.thresholds = list(thresholds) if thresholds is not None else None
        self.sample_size = sample_size
        self.seed = seed

    def _sampled(self, source: LogicalSource,
                 rng: random.Random) -> LogicalSource:
        if self.sample_size is None or len(source) <= self.sample_size:
            return source
        ids = rng.sample(source.ids(), self.sample_size)
        return source.subset(ids)

    def tune(self, domain: LogicalSource, range: LogicalSource,
             gold: Mapping) -> TuningResult:
        """Search the grid; return the best configuration found."""
        rng = random.Random(self.seed)
        domain = self._sampled(domain, rng)
        range_ = self._sampled(range, rng)
        gold = gold.restrict_domain(domain.ids()).restrict_range(range_.ids())

        trials: List[Tuple[dict, float]] = []
        best: Optional[TuningResult] = None
        for attribute, similarity in itertools.product(
                self.attributes, self.similarities):
            if isinstance(attribute, tuple):
                attr_a, attr_b = attribute
            else:
                attr_a = attr_b = attribute
            sim_name = (
                similarity if isinstance(similarity, str) else similarity.name
            )
            matcher = AttributeMatcher(attr_a, attr_b, similarity=similarity,
                                       threshold=0.0)
            fuzzy = matcher.match(domain, range_)
            if self.thresholds is None:
                threshold, _ = tune_threshold(fuzzy, gold)
                candidate_thresholds = [threshold]
            else:
                candidate_thresholds = self.thresholds
            for threshold in candidate_thresholds:
                predicted = {
                    (corr.domain, corr.range)
                    for corr in fuzzy if corr.similarity >= threshold
                }
                precision, recall, f1 = precision_recall_f1(
                    predicted, gold.pairs())
                params = {
                    "attribute": attr_a,
                    "range_attribute": attr_b,
                    "similarity": sim_name,
                    "threshold": threshold,
                }
                trials.append((params, f1))
                if best is None or f1 > best.f1:
                    best = TuningResult(params, precision, recall, f1)
        assert best is not None
        best.trials = trials
        return best


def tune_merge_weights(mappings: Sequence[Mapping], gold: Mapping,
                       *, steps: int = 5
                       ) -> Tuple[List[float], float, float]:
    """Grid-search merge weights; return ``(weights, threshold, f1)``.

    Enumerates weight vectors on a simplex grid with ``steps`` levels
    per mapping and, for each, finds the best threshold of the weighted
    merge against ``gold``.
    """
    if len(mappings) < 2:
        raise ValueError("weight tuning requires at least two mappings")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    levels = [i / (steps - 1) for i in range(steps)]
    best_weights: List[float] = [1.0] * len(mappings)
    best_threshold, best_f1 = 1.0, -1.0
    for raw in itertools.product(levels, repeat=len(mappings)):
        if sum(raw) <= 0:
            continue
        merged = merge(mappings, "weighted", weights=list(raw))
        threshold, f1 = tune_threshold(merged, gold)
        if f1 > best_f1:
            best_weights, best_threshold, best_f1 = list(raw), threshold, f1
    return best_weights, best_threshold, best_f1


# ----------------------------------------------------------------------
# Decision tree learning
# ----------------------------------------------------------------------


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    #: probability of the positive class at a leaf
    probability: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """Minimal CART classifier with gini impurity splits.

    Supports exactly what matcher tuning needs: numeric features,
    binary labels, ``max_depth`` / ``min_samples_split`` regularization
    and probability predictions (positive fraction at the leaf).
    """

    def __init__(self, max_depth: int = 4, min_samples_split: int = 10) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self._root: Optional[_TreeNode] = None

    @staticmethod
    def _gini(positives: int, total: int) -> float:
        if total == 0:
            return 0.0
        p = positives / total
        return 2.0 * p * (1.0 - p)

    def _best_split(self, rows: List[Tuple[Sequence[float], int]]
                    ) -> Optional[Tuple[int, float, float]]:
        total = len(rows)
        total_pos = sum(label for _, label in rows)
        parent_gini = self._gini(total_pos, total)
        best: Optional[Tuple[int, float, float]] = None
        n_features = len(rows[0][0])
        for feature in range(n_features):
            ordered = sorted(rows,
                             key=lambda row, feature=feature: row[0][feature])
            left_pos = 0
            for i in range(1, total):
                left_pos += ordered[i - 1][1]
                value_prev = ordered[i - 1][0][feature]
                value_here = ordered[i][0][feature]
                if value_prev == value_here:
                    continue
                left_total = i
                right_total = total - i
                gini = (
                    left_total / total * self._gini(left_pos, left_total)
                    + right_total / total
                    * self._gini(total_pos - left_pos, right_total)
                )
                gain = parent_gini - gini
                if best is None or gain > best[2]:
                    best = (feature, (value_prev + value_here) / 2.0, gain)
        if best is None or best[2] <= 1e-12:
            return None
        return best

    def _build(self, rows: List[Tuple[Sequence[float], int]],
               depth: int) -> _TreeNode:
        total = len(rows)
        positives = sum(label for _, label in rows)
        node = _TreeNode(probability=positives / total if total else 0.0)
        if (depth >= self.max_depth or total < self.min_samples_split
                or positives == 0 or positives == total):
            return node
        split = self._best_split(rows)
        if split is None:
            return node
        feature, threshold, _ = split
        left_rows = [row for row in rows if row[0][feature] <= threshold]
        right_rows = [row for row in rows if row[0][feature] > threshold]
        if not left_rows or not right_rows:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(left_rows, depth + 1)
        node.right = self._build(right_rows, depth + 1)
        return node

    def fit(self, features: Sequence[Sequence[float]],
            labels: Sequence[int]) -> "DecisionTree":
        if len(features) != len(labels):
            raise ValueError("features and labels must have equal length")
        if not features:
            raise ValueError("cannot fit on an empty training set")
        rows = [(tuple(feature_row), int(label))
                for feature_row, label in zip(features, labels)]
        self._root = self._build(rows, depth=0)
        return self

    def predict_proba(self, feature_row: Sequence[float]) -> float:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        node = self._root
        while not node.is_leaf:
            if feature_row[node.feature] <= node.threshold:
                node = node.left  # type: ignore[assignment]
            else:
                node = node.right  # type: ignore[assignment]
        return node.probability

    def predict(self, feature_row: Sequence[float]) -> int:
        return 1 if self.predict_proba(feature_row) >= 0.5 else 0

    def depth(self) -> int:
        def walk(node: Optional[_TreeNode]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self._root)


@dataclass
class FeatureSpec:
    """One similarity feature for decision-tree matching."""

    attribute: str
    range_attribute: Optional[str] = None
    similarity: Union[str, SimilarityFunction] = "trigram"

    def __post_init__(self) -> None:
        if self.range_attribute is None:
            self.range_attribute = self.attribute
        if isinstance(self.similarity, str):
            self.similarity = get_similarity(self.similarity)


class DecisionTreeMatcherTuner:
    """Learn a decision-tree match rule from gold training pairs.

    Training examples are the gold positives plus sampled negatives
    (non-matching pairs), each featurized with the configured
    similarity functions.  :meth:`fit` returns a matcher whose output
    similarity is the tree's positive-leaf probability.
    """

    def __init__(self, features: Sequence[FeatureSpec], *,
                 negatives_per_positive: int = 3,
                 max_depth: int = 4, min_samples_split: int = 10,
                 seed: int = 0) -> None:
        if not features:
            raise ValueError("at least one feature is required")
        self.features = list(features)
        self.negatives_per_positive = negatives_per_positive
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.seed = seed
        self.tree: Optional[DecisionTree] = None

    def _featurize(self, domain: LogicalSource, range_: LogicalSource,
                   id_a: str, id_b: str) -> List[float]:
        instance_a = domain.get(id_a)
        instance_b = range_.get(id_b)
        row: List[float] = []
        for spec in self.features:
            if instance_a is None or instance_b is None:
                row.append(0.0)
                continue
            row.append(spec.similarity.similarity(
                instance_a.get(spec.attribute),
                instance_b.get(spec.range_attribute),
            ))
        return row

    def fit(self, domain: LogicalSource, range_: LogicalSource,
            gold: Mapping) -> "TreeMatcher":
        rng = random.Random(self.seed)
        positives = [(corr.domain, corr.range) for corr in gold]
        if not positives:
            raise ValueError("gold mapping has no training positives")
        gold_pairs = set(positives)
        domain_ids = domain.ids()
        range_ids = range_.ids()
        negatives: List[Tuple[str, str]] = []
        target = len(positives) * self.negatives_per_positive
        attempts = 0
        while len(negatives) < target and attempts < target * 20:
            pair = (rng.choice(domain_ids), rng.choice(range_ids))
            attempts += 1
            if pair not in gold_pairs:
                negatives.append(pair)
        feature_rows: List[List[float]] = []
        labels: List[int] = []
        for id_a, id_b in positives:
            feature_rows.append(self._featurize(domain, range_, id_a, id_b))
            labels.append(1)
        for id_a, id_b in negatives:
            feature_rows.append(self._featurize(domain, range_, id_a, id_b))
            labels.append(0)
        self.tree = DecisionTree(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
        ).fit(feature_rows, labels)
        return TreeMatcher(self.features, self.tree)


class TreeMatcher(Matcher):
    """Matcher scoring pairs with a learned decision tree."""

    def __init__(self, features: Sequence[FeatureSpec], tree: DecisionTree,
                 *, threshold: float = 0.5) -> None:
        self.features = list(features)
        self.tree = tree
        self.threshold = threshold
        self.name = "decision-tree"

    def match(self, domain: LogicalSource, range: LogicalSource, *,
              candidates: Optional[Iterable[Tuple[str, str]]] = None) -> Mapping:
        pairs = candidates if candidates is not None else (
            FullCross().candidates(
                domain, range, domain_attribute=self.features[0].attribute,
                range_attribute=self.features[0].range_attribute)
        )
        result = Mapping(domain.name, range.name, kind=MappingKind.SAME,
                         name=self.name)
        for id_a, id_b in pairs:
            instance_a = domain.get(id_a)
            instance_b = range.get(id_b)
            if instance_a is None or instance_b is None:
                continue
            row = [
                spec.similarity.similarity(
                    instance_a.get(spec.attribute),
                    instance_b.get(spec.range_attribute),
                )
                for spec in self.features
            ]
            probability = self.tree.predict_proba(row)
            if probability >= self.threshold:
                result.add(id_a, id_b, probability)
        return result
