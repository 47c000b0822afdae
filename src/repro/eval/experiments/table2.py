"""Table 2 — DBLP-ACM publications with attribute matchers + merge.

Three matchers (trigram on titles, trigram on author-name strings,
exact year comparison) and their merge ("using the Avg function and
80 % threshold selection").  The year matcher alone is useless
(precision < 1 %) yet contributes to the merge; missing values are
treated as 0 in the merge (Avg-0) so a year-only agreement can never
clear the threshold on its own.

Paper reference (P / R / F):
  Title  86.7 / 97.7 / 91.9
  Author 38.0 / 87.9 / 53.1
  Year    0.4 / 100  /  0.8
  Merge  97.3 / 93.9 / 95.5
"""

from __future__ import annotations

from repro.eval.experiments.common import (
    ExperimentResult,
    ensure_workbench,
    quality_table,
)

PAPER = {
    "title": (0.867, 0.977, 0.919),
    "author": (0.380, 0.879, 0.531),
    "year": (0.004, 1.000, 0.008),
    "merge": (0.973, 0.939, 0.955),
}

OUTPUTS = {
    "title": "pub_same|DBLP|ACM",
    "author": "pub_authors_same|DBLP|ACM",
    "year": "year|DBLP|ACM",
    "merge": "pub_attributes|DBLP|ACM",
}


def run_table2(source) -> ExperimentResult:
    workbench = ensure_workbench(source)
    output = workbench.begin()
    results = {
        key: workbench.score(output(name), "publications", "DBLP", "ACM")
        for key, name in OUTPUTS.items()
    }
    table = quality_table(
        "Table 2: matching DBLP-ACM publications using attribute matchers",
        PAPER, results,
        "merge = Avg-0 combination of all three matchers, "
        "80% threshold selection")
    return ExperimentResult(
        "table2", "attribute matchers and their merge", table,
        data={key: quality.as_row() for key, quality in results.items()},
    )
