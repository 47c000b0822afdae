"""Extension experiment: GS self-mapping composition (paper §5.6).

The paper's stated future work: "we will therefore explore match
workflows which first determine the duplicates within dirty sources
such as Google Scholar and represent them as self-mappings
(identifying clusters of duplicate entries).  These self-mappings can
then be composed with same-mappings between GS and other sources such
as DBLP and ACM to find more correspondences."

This driver implements that workflow:

1. duplicate detection *within* GS (title self-match, symmetrized,
   transitively closed into duplicate clusters);
2. composition of the base DBLP-GS same-mapping with the GS
   self-mapping, so a DBLP publication matched to one entry of a
   duplicate cluster propagates to all entries of the cluster;
3. merge with the base mapping.

Expected effect (and the reason the paper proposes it): recall rises —
the evaluation requires "that all duplicate entries of GS are matched",
and heavily mangled entries that the direct matcher misses are now
reached through their cleaner siblings.
"""

from __future__ import annotations

from repro.core.mapping import Mapping
from repro.eval.experiments.common import (
    ExperimentResult,
    Workbench,
    ensure_workbench,
    percent_cell,
)
from repro.eval.report import Table


def gs_self_mapping(workbench: Workbench) -> Mapping:
    """Duplicate clusters within GS as a transitive self-mapping."""
    return workbench.mapping("pub_self|GS|GS")


def run_self_mapping_extension(source) -> ExperimentResult:
    workbench = ensure_workbench(source)
    output = workbench.begin()

    base = output("pub_same|DBLP|GS")
    self_mapping = output("pub_self|GS|GS")
    expanded = output("pub_expanded|DBLP|GS")

    base_quality = workbench.score(base, "publications", "DBLP", "GS")
    expanded_quality = workbench.score(expanded, "publications",
                                       "DBLP", "GS")

    table = Table(
        "Extension (§5.6): composing the GS self-mapping into DBLP-GS "
        "matching",
        ["mapping", "precision", "recall", "f-measure"],
    )
    table.add_row("direct title matcher",
                  percent_cell(base_quality.precision),
                  percent_cell(base_quality.recall),
                  percent_cell(base_quality.f1))
    table.add_row("+ GS duplicate clusters (compose + merge + best-1)",
                  percent_cell(expanded_quality.precision),
                  percent_cell(expanded_quality.recall),
                  percent_cell(expanded_quality.f1))
    table.add_note(
        f"GS self-mapping: {len(self_mapping)} correspondences across "
        "duplicate clusters"
    )
    return ExperimentResult(
        "extension-self-mapping",
        "GS self-mapping composition",
        table,
        data={
            "base": base_quality.as_row(),
            "expanded": expanded_quality.as_row(),
            "self_mapping_size": len(self_mapping),
        },
    )
