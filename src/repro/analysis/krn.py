"""KRN — structural surface of kernels in the ``build_column`` registry.

``columns.build_column`` is the kernel registry: every column class it
(transitively) instantiates is bound into a kernel and handed to
``MultiSpecKernel``, the threshold prefilters, ``ShardRunner`` and
the serve index, which assume the kernel surface —
``score_rows(domain_rows, range_rows)``, ``score_bound_rows`` (the
prefilters' admissible bound) and the ``orientation_symmetric`` flag
the deterministic merge relies on.  ``score_rows`` is the column base
class's (a table lookup, or the column kind's own
``kernel_rows``), so what a kind owes is ``kernel_rows``: the
inherited ``score_rows`` alone would pass a kind that cannot score.
A column missing one of these crashes at match or serve time; this
family fails lint instead:

=======  ============================================================
KRN001   a class reachable from the registry entry point lacks a
         required method or attribute of the kernel surface
=======  ============================================================

Registry membership is computed from the call graph: classes
instantiated inside the entry point, or inside project functions the
entry point calls (bounded depth), are kernels.  Suppress with
``# repro: allow-kernel -- <reason>`` on the class line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from repro.analysis.core import Finding, ProjectChecker
from repro.analysis.graph import (
    ClassSummary,
    FileSummary,
    FunctionSummary,
    ProjectGraph,
)


@dataclass(frozen=True)
class KernelContract:
    """One registry entry point and the surface its kernels owe."""

    entry_point: str = "repro.engine.columns.build_column"
    required_methods: Tuple[str, ...] = ("kernel_rows",
                                         "score_bound_rows")
    required_attrs: Tuple[str, ...] = ("orientation_symmetric",)
    #: how deep to follow project calls out of the entry point when
    #: collecting instantiated classes
    max_depth: int = 3


class KernelSurfaceChecker(ProjectChecker):
    """KRN001 over every kernel the registry can build."""

    CODE = "KRN"
    SCOPES = ("repro/engine/",)

    def __init__(self, contracts: Tuple[KernelContract, ...] = (
            KernelContract(),)) -> None:
        self.contracts = contracts

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for contract in self.contracts:
            yield from self._check_contract(graph, contract)

    def _check_contract(self, graph: ProjectGraph,
                        contract: KernelContract) -> Iterator[Finding]:
        entry = graph.function_named(contract.entry_point)
        if entry is None:
            return
        kernels = self._registry(graph, contract, entry)
        for cls, file in kernels:
            if not self.file_in_scope(file.path):
                continue
            members = self._members(graph, cls, file)
            for method in contract.required_methods:
                if method not in members:
                    yield Finding(
                        file.path, cls.line, "KRN001",
                        f"kernel {cls.name} (registered via "
                        f"{contract.entry_point.rsplit('.', 1)[-1]}) "
                        f"does not define {method}(); the composed "
                        "multi-kernel and the prefilter require it")
            for attr in contract.required_attrs:
                if attr not in members:
                    yield Finding(
                        file.path, cls.line, "KRN001",
                        f"kernel {cls.name} does not set {attr}; the "
                        "deterministic merge needs it declared "
                        "(class attribute or set in __init__)")

    def _registry(self, graph: ProjectGraph, contract: KernelContract,
                  entry: Tuple[FunctionSummary, FileSummary]
                  ) -> List[Tuple[ClassSummary, FileSummary]]:
        """Classes instantiated from the entry point, call-graph deep."""
        kernels: List[Tuple[ClassSummary, FileSummary]] = []
        seen_classes: Set[str] = set()
        visited: Set[str] = set()
        frontier: List[Tuple[FunctionSummary, FileSummary, int]] = [
            (entry[0], entry[1], 0)]
        while frontier:
            function, file, depth = frontier.pop(0)
            if function.qualname in visited:
                continue
            visited.add(function.qualname)
            for symbol in graph.callees(function, file):
                if symbol.kind == "class":
                    if symbol.qualname not in seen_classes:
                        seen_classes.add(symbol.qualname)
                        assert isinstance(symbol.node, ClassSummary)
                        kernels.append((symbol.node, symbol.file))
                elif symbol.kind == "function" \
                        and depth < contract.max_depth:
                    assert isinstance(symbol.node, FunctionSummary)
                    frontier.append((symbol.node, symbol.file,
                                     depth + 1))
        kernels.sort(key=lambda item: (item[1].path, item[0].line))
        return kernels

    def _members(self, graph: ProjectGraph, cls: ClassSummary,
                 file: FileSummary) -> Set[str]:
        members: Set[str] = set(cls.methods)
        members.update(cls.class_attrs)
        members.update(cls.instance_attrs)
        members.update(f.name for f in cls.fields)
        # single level of project-local inheritance
        for base in cls.bases:
            if not base:
                continue
            symbol = graph.resolve(base, file)
            if symbol is not None and symbol.kind == "class" \
                    and isinstance(symbol.node, ClassSummary):
                base_cls = symbol.node
                members.update(base_cls.methods)
                members.update(base_cls.class_attrs)
                members.update(base_cls.instance_attrs)
                members.update(f.name for f in base_cls.fields)
        return members
