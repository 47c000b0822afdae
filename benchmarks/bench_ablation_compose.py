"""Ablation: compose path-aggregation function (docs/benchmarks.md).

Runs the Table 4 venue-matching pipeline with every ``g`` alternative.
Paper's claim: the Relative family, by rewarding multi-path support,
is what makes neighborhood matching work; plain max/avg over path
similarities cannot separate venues that share a single matched paper
from venues that share most of their program.
"""

from repro.core.matchers.neighborhood import neighborhood_match
from repro.core.operators.selection import BestNSelection
from repro.eval.report import Table, format_percent

AGGREGATES = ("relative", "relative_left", "relative_right", "avg", "max",
              "min")


def run_compose_ablation(workbench):
    dblp = workbench.bundle("DBLP")
    acm = workbench.bundle("ACM")
    pub_same = workbench.pub_same("DBLP", "ACM")

    table = Table(
        "Ablation: compose aggregation g for venue neighborhood matching "
        "(Best-1 selection)",
        ["g", "precision", "recall", "f-measure"],
    )
    scores = {}
    for aggregate in AGGREGATES:
        raw = neighborhood_match(dblp.venue_pub, pub_same, acm.pub_venue,
                                 g2=aggregate)
        mapping = BestNSelection(1).apply(raw)
        quality = workbench.score(mapping, "venues", "DBLP", "ACM")
        scores[aggregate] = quality
        table.add_row(aggregate, format_percent(quality.precision),
                      format_percent(quality.recall),
                      format_percent(quality.f1))
    table.add_note("relative is the paper's nhMatch configuration")
    return table, scores


def test_compose_aggregation_ablation(benchmark, bench_workbench, report):
    table, scores = benchmark.pedantic(
        lambda: run_compose_ablation(bench_workbench), rounds=1, iterations=1)
    report("ablation-compose", table.render())
    # multi-path-aware aggregation must beat single-path max
    assert scores["relative"].f1 >= scores["max"].f1
    assert scores["relative"].f1 > 0.85
