"""repro.analysis — invariant-aware static analysis for this codebase.

The engine and serving tiers rest on invariants no generic linter can
see: bit-identical scoring depends on deterministic iteration and
float-summation order, the serve tier depends on ``_lock`` discipline,
pool tasks and ``specs.pkl`` depend on pickle-safe types, and snapshot
correctness depends on fsync-before-rename ordering.  This package
encodes those hard-won rules as AST checkers (Peukert et al.'s
rule-based construction argument applied to the system's own
contracts: check the rules mechanically instead of rediscovering each
violation in a flaky bench).

Five checker families ship today:

=====  ==============================================================
code   contract
=====  ==============================================================
DET    determinism: no iteration over unordered collections, no
       unsorted ``os.listdir``, no float accumulation over sets, no
       dict sorts whose key ignores the dict key (insertion-order
       tie-breaks must be explicit)
LCK    lock discipline: methods marked ``@requires_lock("_lock")``
       (see :mod:`repro.concurrency`) may only be called with the
       lock held, and no two classes take their locks in opposite
       orders
PKL    cross-process safety: classes holding unpicklable state (or
       exceptions with custom constructor signatures) must define
       ``__reduce__``/``__getstate__`` before they can be pickled into
       an engine pool task, out of a pool worker, or into
       ``specs.pkl``
DUR    durability ordering: ``os.replace`` must be dominated by an
       ``fsync`` in the same function; no bare ``os.rename``
API    HTTP handlers raise only ``repro.serve.errors`` types
=====  ==============================================================

LCK and DET's cross-module set-method rule run over the whole-program
:class:`~repro.analysis.graph.ProjectGraph`; the rest check one file
at a time.  A contract a runtime test checks directly is tested, not
linted: the kernel surface of every column kind
(``tests/engine/test_kernel_surface.py``) and the config fields'
validation, CLI flags and docs rows (``tests/serve/test_config.py``,
``tests/engine/test_engine.py::TestEngineConfig``).

Run ``repro lint`` (or ``python -m repro.analysis``); findings print
as ``file:line CODE message``.  Suppress a finding inline with
``# repro: allow-<rule> -- <reason>`` (the reason is mandatory) or
baseline it with a reason in ``lint-baseline.json``.  See
``docs/static-analysis.md`` for the full rule catalog and how to add
a checker.
"""

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    all_checkers,
    parse_module,
)
from repro.analysis.runner import AnalysisReport, load_baseline, run_paths

__all__ = [
    "AnalysisReport",
    "Checker",
    "Finding",
    "ModuleContext",
    "all_checkers",
    "load_baseline",
    "parse_module",
    "run_paths",
]
