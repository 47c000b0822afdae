"""LCK — lock discipline on annotated serve-tier internals.

:mod:`repro.concurrency` provides ``@requires_lock("_lock")``, a
marker (plus a cheap runtime assert) that a method must only run with
the named instance lock held.  This checker closes the static half of
the contract: within a class, a call ``self.method(...)`` to an
annotated method is flagged unless the caller provably holds the lock
— i.e. the call sits inside ``with self.<lock>:``, the calling method
itself carries ``@requires_lock`` for the same lock, or every path
into the caller does.

Rules:

=======  ============================================================
LCK002   held-lock context is propagated
         through the intra-class call graph (private helpers inherit
         the *intersection* of their call sites' held sets;
         ``__init__`` is construction-exempt; ``.acquire()`` /
         ``.release()`` pairs open spans like ``with`` blocks), so a
         call to a ``@requires_lock`` method is flagged only when no
         caller path provably holds the lock
LCK003   lock-acquisition-order cycle across classes: nested lock
         spans (directly, or through calls resolved via the project
         call graph and inferred attribute types) define a directed
         order graph; any cycle is a potential deadlock
=======  ============================================================

LCK002/003 run on the project graph (:class:`ProjectChecker`); what
remains invisible (cross-object calls through untyped attributes,
locks passed as arguments) needs an inline
``# repro: allow-unlocked -- <reason>`` explaining how the lock is
actually held.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ProjectChecker, tail_name
from repro.analysis.graph import (
    ClassSummary,
    FileSummary,
    FunctionSummary,
    ProjectGraph,
    iter_lock_holders,
)

_DECORATOR_NAME = "requires_lock"


def _required_lock(node: ast.AST) -> Optional[str]:
    """Lock name from a ``@requires_lock("...")`` decorator, if any."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) \
                and tail_name(decorator.func) == _DECORATOR_NAME \
                and decorator.args \
                and isinstance(decorator.args[0], ast.Constant) \
                and isinstance(decorator.args[0].value, str):
            return decorator.args[0].value
    return None


class InterproceduralLockChecker(ProjectChecker):
    """LCK002: call-graph propagation of held-lock context."""

    CODE = "LCK"
    SCOPES = ("repro/serve/", "repro/engine/", "repro/model/")

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for file in graph.ordered_files():
            if not self.file_in_scope(file.path):
                continue
            for cls in file.classes:
                yield from self._check_class(graph, file, cls)

    # -- one class ------------------------------------------------------

    def _check_class(self, graph: ProjectGraph, file: FileSummary,
                     cls: ClassSummary) -> Iterator[Finding]:
        methods = graph.methods_of(cls, file)
        annotated: Dict[str, str] = {
            method.name: method.required_lock for method in methods
            if method.required_lock is not None}
        if not annotated:
            return
        all_locks: Set[str] = set(annotated.values())
        for method in methods:
            all_locks.update(span.lock for span in method.lock_spans)
        entry = self._entry_sets(methods, annotated, all_locks)
        for method in methods:
            for call in method.calls:
                target = self._self_call_target(call.dotted)
                if target is None:
                    continue
                lock = annotated.get(target)
                if lock is None:
                    continue
                held = entry[method.name] | set(
                    iter_lock_holders(method.lock_spans, call.line))
                if lock in held:
                    continue
                yield Finding(
                    file.path, call.line, "LCK002",
                    f"self.{target}() requires self.{lock} held "
                    f"(@requires_lock) but no caller path provably "
                    f"holds it; wrap the call in 'with self.{lock}:' "
                    "or annotate the caller")

    def _entry_sets(self, methods: List[FunctionSummary],
                    annotated: Dict[str, str], all_locks: Set[str]
                    ) -> Dict[str, Set[str]]:
        """Held-lock set at entry of each method (fixpoint).

        Annotated methods hold their contract lock; ``__init__`` and
        ``__del__`` run construction-exempt (every lock); private
        helpers hold the *intersection* over their intra-class call
        sites (an uncalled helper holds nothing); public methods hold
        nothing — any thread may enter them.
        """
        entry: Dict[str, Set[str]] = {}
        refinable: Set[str] = set()
        for method in methods:
            if method.name in annotated:
                entry[method.name] = {annotated[method.name]}
            elif method.name in ("__init__", "__del__"):
                entry[method.name] = set(all_locks)
            elif method.name.startswith("_") \
                    and not method.name.startswith("__"):
                entry[method.name] = set(all_locks)
                refinable.add(method.name)
            else:
                entry[method.name] = set()
        for _ in range(len(methods) + 1):
            changed = False
            for name in sorted(refinable):
                sites: List[Set[str]] = []
                for caller in methods:
                    for call in caller.calls:
                        if self._self_call_target(call.dotted) == name:
                            sites.append(
                                entry[caller.name]
                                | set(iter_lock_holders(
                                    caller.lock_spans, call.line)))
                refined: Set[str] = set.intersection(*sites) \
                    if sites else set()
                if refined != entry[name]:
                    entry[name] = refined
                    changed = True
            if not changed:
                break
        return entry

    @staticmethod
    def _self_call_target(dotted: Optional[str]) -> Optional[str]:
        if dotted is None or not dotted.startswith("self."):
            return None
        parts = dotted.split(".")
        return parts[1] if len(parts) == 2 else None


class LockOrderChecker(ProjectChecker):
    """LCK003: lock-acquisition-order cycles across classes."""

    CODE = "LCK"
    SCOPES = ("repro/serve/", "repro/engine/", "repro/model/")
    #: how deep to chase acquisitions through project calls
    MAX_DEPTH = 4

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
        labels: Dict[str, str] = {}
        for file in graph.ordered_files():
            if not self.file_in_scope(file.path):
                continue
            for cls in file.classes:
                for method in graph.methods_of(cls, file):
                    self._collect_edges(graph, file, cls, method,
                                        edges, labels)
        adjacency: Dict[str, Set[str]] = {}
        for source, target in edges:
            adjacency.setdefault(source, set()).add(target)
        for cycle in self._cycles(adjacency):
            closed = list(cycle) + [cycle[0]]
            site = None
            for index in range(len(closed) - 1):
                site = edges.get((closed[index], closed[index + 1]))
                if site is not None:
                    break
            if site is None:  # pragma: no cover - defensive
                continue
            path = " -> ".join(labels.get(node, node)
                               for node in closed)
            yield Finding(
                site[0], site[1], "LCK003",
                f"lock acquisition order cycle: {path}; two threads "
                "taking these locks in opposite orders can deadlock")

    # -- edge collection -----------------------------------------------

    def _node(self, file: FileSummary, cls: ClassSummary,
              lock: str, labels: Dict[str, str]) -> str:
        node = f"{file.module}.{cls.qualname}.{lock}"
        labels[node] = f"{cls.name}.{lock}"
        return node

    def _collect_edges(self, graph: ProjectGraph, file: FileSummary,
                       cls: ClassSummary, method: FunctionSummary,
                       edges: Dict[Tuple[str, str], Tuple[str, int]],
                       labels: Dict[str, str]) -> None:
        for span in method.lock_spans:
            outer = self._node(file, cls, span.lock, labels)
            for inner in method.lock_spans:
                if inner is span or not span.covers(inner.start) \
                        or inner.start == span.start \
                        or inner.lock == span.lock:
                    continue
                node = self._node(file, cls, inner.lock, labels)
                edges.setdefault((outer, node),
                                 (file.path, inner.start))
            for call in method.calls:
                if not span.covers(call.line):
                    continue
                for node, site in self._acquired_by_call(
                        graph, file, cls, call.dotted, labels,
                        set(), 0).items():
                    if node != outer:
                        edges.setdefault((outer, node), site)

    def _acquired_by_call(self, graph: ProjectGraph, file: FileSummary,
                          cls: ClassSummary, dotted: Optional[str],
                          labels: Dict[str, str], visited: Set[str],
                          depth: int
                          ) -> Dict[str, Tuple[str, int]]:
        """Lock nodes (transitively) acquired by one resolved call."""
        if dotted is None or depth > self.MAX_DEPTH:
            return {}
        target: Optional[Tuple[ClassSummary, FileSummary,
                               FunctionSummary]] = None
        if dotted.startswith("self."):
            parts = dotted.split(".")
            if len(parts) == 2 and parts[1] in cls.methods:
                for method in graph.methods_of(cls, file):
                    if method.name == parts[1]:
                        target = (cls, file, method)
                        break
            elif len(parts) == 3:
                symbol = graph.resolve_attr_call(cls, file, dotted)
                if symbol is not None and symbol.kind == "function" \
                        and isinstance(symbol.node, FunctionSummary) \
                        and symbol.node.classname is not None:
                    owner = graph.class_named(symbol.qualname.rsplit(
                        ".", 1)[0])
                    if owner is not None:
                        target = (owner[0], symbol.file, symbol.node)
        if target is None:
            return {}
        t_cls, t_file, t_method = target
        if t_method.qualname in visited:
            return {}
        visited = visited | {t_method.qualname}
        acquired: Dict[str, Tuple[str, int]] = {}
        for span in t_method.lock_spans:
            node = self._node(t_file, t_cls, span.lock, labels)
            acquired.setdefault(node, (t_file.path, span.start))
        for call in t_method.calls:
            for node, site in self._acquired_by_call(
                    graph, t_file, t_cls, call.dotted, labels,
                    visited, depth + 1).items():
                acquired.setdefault(node, site)
        return acquired

    # -- cycle detection ------------------------------------------------

    def _cycles(self, adjacency: Dict[str, Set[str]]) -> List[List[str]]:
        """Simple cycles, each reported once (min-node rotation)."""
        cycles: List[List[str]] = []
        seen: Set[Tuple[str, ...]] = set()

        def visit(start: str, node: str, path: List[str],
                  on_path: Set[str]) -> None:
            for neighbour in sorted(adjacency.get(node, ())):
                if neighbour == start:
                    rotation = min(range(len(path)),
                                   key=lambda i: path[i])
                    canonical = tuple(path[rotation:] + path[:rotation])
                    if canonical not in seen:
                        seen.add(canonical)
                        cycles.append(list(canonical))
                elif neighbour > start and neighbour not in on_path:
                    visit(start, neighbour, path + [neighbour],
                          on_path | {neighbour})

        for start in sorted(adjacency):
            visit(start, start, [start], {start})
        cycles.sort()
        return cycles


def method_lock_requirements(
        class_node: ast.ClassDef) -> List[Tuple[str, str]]:
    """``(method, lock)`` pairs for a class — exposed for tests/tools."""
    pairs: List[Tuple[str, str]] = []
    for statement in class_node.body:
        lock = _required_lock(statement)
        if lock is not None and isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pairs.append((statement.name, lock))
    return pairs
