"""Ablation: merge combination function choice (docs/benchmarks.md).

Holds the Table 2 inputs fixed (title, author, year matchers between
DBLP and ACM) and varies only the combination function + threshold.
Paper's claim: merge quality comes from the missing-as-zero average;
ignore-missing averaging lets the year matcher's cross-product flood
the result, and Min-0 intersection trades recall for precision.
"""

from repro.core.operators.merge import merge
from repro.core.operators.selection import ThresholdSelection
from repro.core.prebuilt import THRESHOLD
from repro.eval.report import Table, format_percent

FUNCTIONS = ("avg", "avg0", "min", "min0", "max")


def run_merge_ablation(workbench):
    title = workbench.fuzzy_title("DBLP", "ACM")
    author = workbench.fuzzy_pub_authors("DBLP", "ACM")
    year = workbench.mapping("year|DBLP|ACM")
    threshold = ThresholdSelection(THRESHOLD)

    table = Table(
        "Ablation: merge combination function (Table 2 inputs, 80% threshold)",
        ["function", "precision", "recall", "f-measure"],
    )
    scores = {}
    for function in FUNCTIONS:
        merged = threshold.apply(merge([title, author, year], function))
        quality = workbench.score(merged, "publications", "DBLP", "ACM")
        scores[function] = quality
        table.add_row(function, format_percent(quality.precision),
                      format_percent(quality.recall),
                      format_percent(quality.f1))
    table.add_note("avg0 is the paper's Table 2 configuration")
    return table, scores


def test_merge_function_ablation(benchmark, bench_workbench, report):
    table, scores = benchmark.pedantic(
        lambda: run_merge_ablation(bench_workbench), rounds=1, iterations=1)
    report("ablation-merge", table.render())
    # missing-as-zero beats ignore-missing here: the year matcher's
    # same-year cross product would otherwise dominate
    assert scores["avg0"].f1 > scores["avg"].f1
    # min-0 = intersection: top precision
    assert scores["min0"].precision >= scores["max"].precision
