"""Ablation: selection strategy sweep on the venue same-mapping.

Quantifies Table 4's selection sensitivity beyond the paper's three
points: a full threshold sweep plus Best-1, Best-2 and Best-1+Delta
variants.  The crossover (thresholds win precision early, Best-1 wins
F overall because ACM covers all journal issues) is the behaviour
the ablation gates on (docs/benchmarks.md).
"""

from repro.core.matchers.neighborhood import neighborhood_match
from repro.core.operators.selection import (
    Best1DeltaSelection,
    BestNSelection,
    ThresholdSelection,
)
from repro.eval.report import Table, format_percent

THRESHOLDS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)


def run_selection_ablation(workbench):
    dblp = workbench.bundle("DBLP")
    acm = workbench.bundle("ACM")
    raw = neighborhood_match(dblp.venue_pub,
                             workbench.pub_same("DBLP", "ACM"),
                             acm.pub_venue)

    strategies = []
    for threshold in THRESHOLDS:
        strategies.append((f"threshold {threshold:.2f}",
                           ThresholdSelection(threshold)))
    strategies.append(("best-1", BestNSelection(1)))
    strategies.append(("best-2", BestNSelection(2)))
    strategies.append(("best-1 both sides", BestNSelection(1, side="both")))
    strategies.append(("best-1 + 0.1 abs", Best1DeltaSelection(0.1)))
    strategies.append(("best-1 + 10% rel",
                       Best1DeltaSelection(0.1, relative=True)))

    table = Table(
        "Ablation: selection strategies on the venue same-mapping",
        ["selection", "precision", "recall", "f-measure"],
    )
    scores = {}
    for label, selection in strategies:
        quality = workbench.score(selection.apply(raw), "venues",
                                  "DBLP", "ACM")
        scores[label] = quality
        table.add_row(label, format_percent(quality.precision),
                      format_percent(quality.recall),
                      format_percent(quality.f1))
    return table, scores


def test_selection_ablation(benchmark, bench_workbench, report):
    table, scores = benchmark.pedantic(
        lambda: run_selection_ablation(bench_workbench),
        rounds=1, iterations=1)
    report("ablation-selection", table.render())
    # higher thresholds never lose precision
    assert scores["threshold 0.90"].precision >= \
        scores["threshold 0.20"].precision - 1e-9
    # ...but starve recall relative to best-1
    assert scores["best-1"].recall >= scores["threshold 0.90"].recall
