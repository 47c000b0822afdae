"""Per-table experiment drivers (paper §5).

Each ``run_tableN`` takes a :class:`~repro.eval.experiments.common.Workbench`
(or a dataset) and returns an :class:`ExperimentResult` whose table
shows paper-reference numbers next to measured ones.  The match
strategies themselves are declared once, as the steps of
:func:`repro.core.prebuilt.evaluation_workflow`; a driver asks the
workbench for the named outputs its table reports, scores them against
gold and renders — benchmarks, examples and integration tests all call
the drivers.
"""

from repro.eval.experiments.common import ExperimentResult, Workbench
from repro.eval.experiments.extension_self_mapping import (
    gs_self_mapping,
    run_self_mapping_extension,
)
from repro.eval.experiments.figures import (
    run_figure1,
    run_figure4,
    run_figure6,
    run_figure9,
)
from repro.eval.experiments.table1 import run_table1
from repro.eval.experiments.table10 import run_table10
from repro.eval.experiments.table2 import run_table2
from repro.eval.experiments.table3 import run_table3
from repro.eval.experiments.table4 import run_table4
from repro.eval.experiments.table5 import run_table5
from repro.eval.experiments.table6 import run_table6
from repro.eval.experiments.table7 import run_table7
from repro.eval.experiments.table8 import run_table8
from repro.eval.experiments.table9 import run_table9

__all__ = [
    "ExperimentResult",
    "Workbench",
    "gs_self_mapping",
    "run_self_mapping_extension",
    "run_figure1",
    "run_figure4",
    "run_figure6",
    "run_figure9",
    "run_table1",
    "run_table10",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "run_table9",
]
