"""Table 10 — summary of matching results (F-measure).

Aggregates the headline merged F-measures of Tables 4-8:

                  Venues   Publications   Authors
  DBLP - ACM      98.8%    98.6%          96.9%
  DBLP - GS       -        88.9%          -
  GS - ACM        -        88.2%          -
"""

from __future__ import annotations

from repro.eval.experiments.common import (
    ExperimentResult,
    ensure_workbench,
    percent_cell,
)
from repro.eval.report import Table

PAPER = {
    ("DBLP-ACM", "venues"): 0.988,
    ("DBLP-ACM", "publications"): 0.986,
    ("DBLP-ACM", "authors"): 0.969,
    ("DBLP-GS", "publications"): 0.889,
    ("GS-ACM", "publications"): 0.882,
}

#: the headline merged mapping of each cell and the sources it is
#: scored between (tables 4-8; ours matches ACM->GS, metrics are
#: symmetric)
OUTPUTS = {
    ("DBLP-ACM", "venues"): ("venue_same|DBLP|ACM", "DBLP", "ACM"),
    ("DBLP-ACM", "publications"):
        ("pub_title_and_venue|DBLP|ACM", "DBLP", "ACM"),
    ("DBLP-ACM", "authors"): ("author_same|DBLP|ACM", "DBLP", "ACM"),
    ("DBLP-GS", "publications"):
        ("pub_title_or_authors|DBLP|GS", "DBLP", "GS"),
    ("GS-ACM", "publications"):
        ("pub_title_or_authors|ACM|GS", "ACM", "GS"),
}


def run_table10(source) -> ExperimentResult:
    workbench = ensure_workbench(source)
    output = workbench.begin()
    measured = {
        (pair, category): workbench.score(output(name), category,
                                          left, right).f1
        for (pair, category), (name, left, right) in OUTPUTS.items()
    }

    table = Table(
        "Table 10: summary of matching results (F-measure, paper/ours)",
        ["pair", "venues", "publications", "authors"],
    )
    for pair in ("DBLP-ACM", "DBLP-GS", "GS-ACM"):
        cells = []
        for category in ("venues", "publications", "authors"):
            paper_value = PAPER.get((pair, category))
            ours = measured.get((pair, category))
            if paper_value is None and ours is None:
                cells.append("-")
            else:
                paper_text = (percent_cell(paper_value)
                              if paper_value is not None else "-")
                ours_text = percent_cell(ours) if ours is not None else "-"
                cells.append(f"{paper_text} / {ours_text}")
        table.add_row(pair, *cells)
    return ExperimentResult(
        "table10", "summary of matching results", table,
        data={f"{pair}|{category}": value
              for (pair, category), value in measured.items()},
    )
