"""Table 6 — DBLP-ACM authors via the n:m neighborhood matcher.

The author-publication association is n:m with small, highly variable
neighborhoods.  Attribute matching on author names is already decent;
the neighborhood matcher alone is weak (it matches any two authors
sharing a matched publication) but merging both lifts recall for the
authors whose names differ across sources (initials, dropped middle
names).

Paper reference (P / R / F):
  Attribute(name)          99.3 / 81.3 / 89.4
  Neighborhood(publication) 24.8 / 99.3 / 39.7
  Merge                     99.9 / 94.0 / 96.9
"""

from __future__ import annotations

from repro.eval.experiments.common import (
    ExperimentResult,
    ensure_workbench,
    quality_table,
)

PAPER = {
    "attribute": (0.993, 0.813, 0.894),
    "neighborhood": (0.248, 0.993, 0.397),
    "merge": (0.999, 0.940, 0.969),
}

OUTPUTS = {
    "attribute": "author_names_same|DBLP|ACM",
    "neighborhood": "author_nh|DBLP|ACM",
    "merge": "author_same|DBLP|ACM",
}


def run_table6(source) -> ExperimentResult:
    workbench = ensure_workbench(source)
    output = workbench.begin()
    results = {
        key: workbench.score(output(name), "authors", "DBLP", "ACM")
        for key, name in OUTPUTS.items()
    }
    table = quality_table(
        "Table 6: matching DBLP-ACM authors via n:m neighborhood matcher",
        PAPER, results, "merge = Max combination + Best-1 on both sides")
    return ExperimentResult(
        "table6", "author matching via n:m neighborhood", table,
        data={key: quality.as_row() for key, quality in results.items()},
    )
