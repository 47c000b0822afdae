"""Table 3 — matching publications via different compose paths.

For each source pair: a *direct* mapping (title matcher for DBLP-ACM
and DBLP-GS; the pre-existing low-recall link mapping for GS-ACM), the
*composition* via the third source, and the *merge* of both.  The
paper's observations reproduce mechanically:

* the GS-ACM link mapping has poor recall, so composing DBLP-ACM or
  DBLP-GS through it is much worse than direct matching;
* composing GS-ACM through the high-quality hub DBLP beats the link
  mapping by a wide margin;
* merging direct and composed mappings retains the best alternative.

Paper reference (F-measure):
  DBLP-GS  direct 81.3 | compose via ACM 33.9 | merge 81.3
  DBLP-ACM direct 91.9 | compose via GS  63.7 | merge 91.6
  GS-ACM   direct 35.3 | compose via DBLP 83.9 | merge 83.7
"""

from __future__ import annotations

from repro.eval.experiments.common import (
    ExperimentResult,
    ensure_workbench,
    percent_cell,
)
from repro.eval.report import Table

PAPER = {
    "DBLP-GS": {"direct": 0.813, "compose": 0.339, "merge": 0.813},
    "DBLP-ACM": {"direct": 0.919, "compose": 0.637, "merge": 0.916},
    "GS-ACM": {"direct": 0.353, "compose": 0.839, "merge": 0.837},
}

#: the direct mapping of each pair; GS-ACM's is the pre-existing links
DIRECT = {
    "DBLP-GS": "pub_same|DBLP|GS",
    "DBLP-ACM": "pub_same|DBLP|ACM",
    "GS-ACM": "GS.LinksToACM",
}


def run_table3(source) -> ExperimentResult:
    workbench = ensure_workbench(source)
    output = workbench.begin()

    table = Table(
        "Table 3: matching publications via different compose paths "
        "(F-measure, paper/ours)",
        ["strategy", "DBLP-GS (via ACM)", "DBLP-ACM (via GS)",
         "GS-ACM (via DBLP)"],
    )
    data = {}
    for pair_key, direct in DIRECT.items():
        left, right = pair_key.split("-")
        data[pair_key] = {
            strategy: workbench.score(output(name), "publications",
                                      left, right).as_row()
            for strategy, name in (
                ("direct", direct),
                ("compose", f"pub_via|{left}|{right}"),
                ("merge", f"pub_direct_or_via|{left}|{right}"),
            )
        }

    for strategy in ("direct", "compose", "merge"):
        table.add_row(
            strategy,
            *[
                f"{percent_cell(PAPER[pair][strategy])} / "
                f"{percent_cell(data[pair][strategy]['f1'])}"
                for pair in ("DBLP-GS", "DBLP-ACM", "GS-ACM")
            ],
        )
    table.add_note("GS-ACM direct = pre-existing link mapping "
                   "(recall-starved by construction)")
    return ExperimentResult("table3", "compose paths", table, data=data)
