"""Table 5 — DBLP-ACM publications via the n:1 neighborhood matcher.

The venue same-mapping from Table 4 (Best-1 selection) feeds a
publication-venue neighborhood matcher.  Alone it merely confines
candidates ("on average we achieve a recall of 100 % and precision of
2 %"), but intersected with the title matcher it eliminates exactly
the recurring-journal-title false positives string matching cannot.

Paper reference (P / R / F):
                 Attribute(title)  Neighborhood(venue)  Merge
  conferences    96.7 / 99.8 / 98.6  1.2 / 98.8 / 3.4   99.2 / 98.8 (F 99.0*)
  journals       72.8 / 95.9 / 82.8  6.5 / 100 / 12.2   99.7 / 95.9 / 97.8
  overall        91.9 / ~99 / ~95    ~2 / ~99 / ~4      99.x / 98.x / 98.6

(*the OCR of the published table interleaves rows; the headline
number is the overall merged F-measure of 98.6 %.)
"""

from __future__ import annotations

from repro.eval.experiments.common import (
    ExperimentResult,
    Workbench,
    ensure_workbench,
    percent_cell,
)
from repro.eval.report import Table

PAPER_F = {
    ("conferences", "attribute"): 0.986,
    ("conferences", "neighborhood"): 0.034,
    ("conferences", "merge"): 0.990,
    ("journals", "attribute"): 0.828,
    ("journals", "neighborhood"): 0.122,
    ("journals", "merge"): 0.978,
    ("overall", "attribute"): 0.919,
    ("overall", "neighborhood"): 0.03,
    ("overall", "merge"): 0.986,
}


def run_table5(source) -> ExperimentResult:
    workbench: Workbench = ensure_workbench(source)
    output = workbench.begin()
    kinds = workbench.venue_kind_of_pub("DBLP")

    def conference_only(pair):
        return kinds.get(pair[0]) == "conference"

    def journal_only(pair):
        return kinds.get(pair[0]) == "journal"

    table = Table(
        "Table 5: DBLP-ACM publications using neighborhood matcher (n:1)",
        ["group", "matcher", "precision", "recall",
         "f-measure (paper/ours)"],
    )
    data = {}
    for group, restrict in (
        ("conferences", conference_only),
        ("journals", journal_only),
        ("overall", None),
    ):
        for matcher_key, name in (
            ("attribute", "pub_same|DBLP|ACM"),
            ("neighborhood", "pub_nh|DBLP|ACM"),
            ("merge", "pub_title_and_venue|DBLP|ACM"),
        ):
            quality = workbench.score(output(name), "publications",
                                      "DBLP", "ACM", restrict=restrict)
            paper_f = PAPER_F.get((group, matcher_key))
            table.add_row(
                group, matcher_key,
                percent_cell(quality.precision),
                percent_cell(quality.recall),
                f"{percent_cell(paper_f) if paper_f is not None else '-'} / "
                f"{percent_cell(quality.f1)}",
            )
            data[f"{group}|{matcher_key}"] = quality.as_row()
    table.add_note("merge = Min-0 intersection of title matcher and "
                   "venue-neighborhood matcher")
    return ExperimentResult("table5", "publication matching via n:1 "
                            "neighborhood", table, data=data)
