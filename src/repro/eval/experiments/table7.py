"""Table 7 — DBLP-GS publications helped by the author neighborhood.

Google Scholar entries carry noisy, extraction-mangled titles, so the
title matcher misses many true entries.  The repair (§5.4.3 / Figure
11): build an author same-mapping DBLP-GS with an initials-tolerant
name matcher, run the n:m neighborhood matcher over author-publication
associations (using RelativeLeft because GS author lists are
incomplete), and *refine* its candidates with a permissive title
matcher before merging with the direct result.  The improvement is
recall-driven: title-mangled entries are recovered through their
author lists.

Paper reference (P / R / F):
  Attribute(title)      81.1 / 81.6 / 81.3
  Neighborhood(author)  15.2 / 76.0 / 25.4
  Merge                 85.1 / 92.9 / 88.9
"""

from __future__ import annotations

from repro.eval.experiments.common import (
    ExperimentResult,
    Workbench,
    ensure_workbench,
    quality_table,
)

PAPER = {
    "attribute": (0.811, 0.816, 0.813),
    "neighborhood": (0.152, 0.760, 0.254),
    "merge": (0.851, 0.929, 0.889),
}

OUTPUTS = {
    "attribute": "pub_same|{other}|GS",
    "neighborhood": "pub_nh|{other}|GS",
    "merge": "pub_title_or_authors|{other}|GS",
}


def run_gs_publication_experiment(workbench: Workbench, other: str,
                                  paper: dict, experiment_id: str,
                                  table_number: int) -> ExperimentResult:
    """Shared driver for Tables 7 (DBLP-GS) and 8 (ACM-GS)."""
    output = workbench.begin()
    results = {
        key: workbench.score(output(name.format(other=other)),
                             "publications", other, "GS")
        for key, name in OUTPUTS.items()
    }
    table = quality_table(
        f"Table {table_number}: matching {other}-GS publications via "
        "author neighborhood (n:m)", paper, results,
        "neighborhood uses RelativeLeft (incomplete GS author "
        "lists); merge refines neighborhood candidates with a "
        "permissive title match (Figure 11), Best-1 per GS entry")
    return ExperimentResult(
        experiment_id, f"{other}-GS publication matching", table,
        data={key: quality.as_row() for key, quality in results.items()},
    )


def run_table7(source) -> ExperimentResult:
    workbench = ensure_workbench(source)
    return run_gs_publication_experiment(workbench, "DBLP", PAPER,
                                         "table7", 7)
