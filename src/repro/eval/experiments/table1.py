"""Table 1 — instance counts of the considered data sources.

Paper values (at the authors' 2006 snapshot): DBLP 130 venues / 2,616
publications / 3,319 authors; ACM DL 128 / 2,294 / 3,547; Google
Scholar 64,263 publications (81,296 raw entries).  Our counts depend on
the generator scale; the benchmark reports both so the relative shape
(ACM slightly smaller than DBLP, GS larger with duplicate entries) is
visible.
"""

from __future__ import annotations

from repro.datagen.sources import dataset_statistics
from repro.eval.experiments.common import ExperimentResult, ensure_workbench
from repro.eval.report import Table

PAPER = {
    "DBLP": {"venues": 130, "publications": 2616, "authors": 3319},
    "ACM": {"venues": 128, "publications": 2294, "authors": 3547},
    "GS": {"venues": 0, "publications": 64263, "authors": 0},
}


def run_table1(source) -> ExperimentResult:
    """Report per-source instance counts next to the paper's."""
    workbench = ensure_workbench(source)
    measured = dataset_statistics(workbench.dataset)

    table = Table(
        "Table 1: number of instances for the considered data sources",
        ["source", "venues (paper/ours)", "publications (paper/ours)",
         "authors (paper/ours)"],
    )
    for name in ("DBLP", "ACM", "GS"):
        paper = PAPER[name]
        ours = measured[name]
        table.add_row(
            name,
            f"{paper['venues'] or '-'} / {ours['venues'] or '-'}",
            f"{paper['publications']} / {ours['publications']}",
            f"{paper['authors'] or '-'} / {ours['authors']}",
        )
    table.add_note(
        "paper counts are the authors' 2006 snapshot; ours come from the "
        "synthetic world at the configured scale (see docs/architecture.md)"
    )
    return ExperimentResult("table1", "dataset statistics", table,
                            data=measured)
