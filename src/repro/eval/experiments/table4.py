"""Table 4 — DBLP-ACM venues via the 1:n neighborhood matcher.

Generic string matching is hopeless for venues ("VLDB2002" vs "28th
International Conference on Very Large Data Bases"), so the venue
same-mapping is derived from the publication same-mapping through the
venue-publication associations.  Three selections are compared: 80 %
and 50 % thresholds and Best-1, split by conferences vs journals.

Paper reference (F-measure):
                80%     50%     Best-1
  conferences   100     100      97.3
  journals      77.1    92.2     (good with permissive selections)
  overall       80.9    93.4     98.8

Shape to reproduce: thresholds are perfect for conferences (large
neighborhoods) but recall-starved for journals (small neighborhoods);
Best-1 is best overall yet dented on conferences by ACM's missing
VLDB 2002/2003.
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
    ("conferences", "80%"): 1.0,
    ("conferences", "50%"): 1.0,
    ("conferences", "best1"): 0.973,
    ("journals", "80%"): 0.771,
    ("journals", "50%"): 0.922,
    ("journals", "best1"): 0.988,
    ("overall", "80%"): 0.809,
    ("overall", "50%"): 0.934,
    ("overall", "best1"): 0.988,
}

#: the three selections of the one neighborhood mapping, by output
SELECTIONS = {
    "80%": "venue_same_80|DBLP|ACM",
    "50%": "venue_same_50|DBLP|ACM",
    "best1": "venue_same|DBLP|ACM",
}


def run_table4(source) -> ExperimentResult:
    workbench: Workbench = ensure_workbench(source)
    output = workbench.begin()
    kinds = workbench.venue_kind_of_dblp_venue()

    def conference_only(pair):
        return kinds.get(pair[0]) == "conference"

    def journal_only(pair):
        return kinds.get(pair[0]) == "journal"

    table = Table(
        "Table 4: matching DBLP-ACM venues using neighborhood matcher (1:n)",
        ["group", "selection", "precision", "recall",
         "f-measure (paper/ours)"],
    )
    data = {}
    for selection_key, name in SELECTIONS.items():
        mapping = output(name)
        for group, restrict in (
            ("conferences", conference_only),
            ("journals", journal_only),
            ("overall", None),
        ):
            quality = workbench.score(mapping, "venues", "DBLP", "ACM",
                                      restrict=restrict)
            paper_f = PAPER_F.get((group, selection_key))
            table.add_row(
                group, selection_key,
                percent_cell(quality.precision),
                percent_cell(quality.recall),
                f"{percent_cell(paper_f) if paper_f is not None else '-'} / "
                f"{percent_cell(quality.f1)}",
            )
            data[f"{group}|{selection_key}"] = quality.as_row()
    table.add_note("publication same-mapping: trigram title matcher at 80%")
    return ExperimentResult("table4", "venue matching via 1:n neighborhood",
                            table, data=data)
