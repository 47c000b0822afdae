"""Whole-program project model for cross-module contract checking.

A per-file checker sees one ``ast.Module`` at a time, which is exactly
as far as it can reason: a rule like "no lock is taken while a caller
holds another" or "no set-returning method of another class is
iterated in order" spans files.  This module builds the project model
those rules (LCK, DET's :class:`~repro.analysis.det.SetMethodChecker`)
need, **once per run**:

* a :class:`FileSummary` per source file — imports, classes (methods,
  inferred attribute types), functions (call sites, lock spans, the
  ``@requires_lock`` contract, return annotations, ordered method
  iterations);
* a :class:`ProjectGraph` over all summaries — module table, symbol
  table (``repro.engine.columns.TfIdfColumn`` → class summary) and
  name resolution through imports and inferred attribute types.

Summaries are deliberately *plain data* (JSON round-trippable via
``to_dict``/``from_dict``): the runner caches them per file keyed by
content hash (:class:`LintCache`), so a warm full-tree run re-parses
only edited files while the cross-module pass always sees the whole
project.

Everything here is approximate in the usual static-analysis ways —
dynamic dispatch, ``getattr`` and monkey-patching are invisible — but
the contracts the checkers pin (lock nesting, iteration order) are
expressed through the syntactic shapes captured below.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import ordered_iterables, sorted_wrapped

#: bump to invalidate every cache entry when extraction or rule
#: semantics change (cache entries also key on the content hash)
ANALYSIS_VERSION = 7


# ----------------------------------------------------------------------
# summary data model (all JSON round-trippable)
# ----------------------------------------------------------------------

@dataclass
class CallSite:
    """One call expression: where and what it calls."""

    line: int
    #: dotted target (``self._index.add``, ``os.replace``) or ``None``
    #: when the chain crosses a subscript/call and cannot be named
    dotted: Optional[str]


@dataclass
class LockSpan:
    """Lines over which ``self.<lock>`` is statically held."""

    lock: str
    start: int
    end: int
    #: ``"with"`` for ``with self.lock:``; ``"acquire"`` for a
    #: ``self.lock.acquire(...)`` call (span runs to the matching
    #: ``release()`` in the same function, else to the function end)
    via: str

    def covers(self, line: int) -> bool:
        return self.start <= line <= self.end


@dataclass
class MethodIteration:
    """``<local>.<method>(...)`` consumed in order — a ``for`` or
    comprehension iterable, a ``list(...)`` / ``tuple(...)`` argument —
    outside any ``sorted(...)``."""

    line: int
    method: str
    #: what names the receiver's class, from its one binding in the
    #: function: the head of its annotation, or the callee whose result
    #: it was assigned
    ref: str


@dataclass
class FunctionSummary:
    """One function or method with everything the checkers consume."""

    name: str
    qualname: str
    classname: Optional[str]
    required_lock: Optional[str]
    calls: List[CallSite] = field(default_factory=list)
    lock_spans: List[LockSpan] = field(default_factory=list)
    #: :func:`annotation_head` of the return annotation
    returns: Optional[str] = None
    method_iterations: List[MethodIteration] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: its methods and inferred attribute types."""

    name: str
    qualname: str
    #: ``self.<attr> = ClassName(...)`` / ``self.<attr>: ClassName``
    #: inferred instance-attribute types (dotted, unresolved)
    attr_types: Dict[str, str] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)


@dataclass
class FileSummary:
    """Everything the project graph keeps for one source file."""

    path: str
    module: str
    imports: Dict[str, str] = field(default_factory=dict)
    classes: List[ClassSummary] = field(default_factory=list)
    functions: List[FunctionSummary] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FileSummary":
        def _functions(raw: List[dict]) -> List[FunctionSummary]:
            out = []
            for item in raw:
                out.append(FunctionSummary(
                    name=item["name"], qualname=item["qualname"],
                    classname=item["classname"],
                    required_lock=item["required_lock"],
                    calls=[CallSite(**c) for c in item["calls"]],
                    lock_spans=[LockSpan(**s)
                                for s in item["lock_spans"]],
                    returns=item["returns"],
                    method_iterations=[MethodIteration(**use) for use
                                       in item["method_iterations"]]))
            return out

        def _classes(raw: List[dict]) -> List[ClassSummary]:
            out = []
            for item in raw:
                out.append(ClassSummary(
                    name=item["name"], qualname=item["qualname"],
                    attr_types=dict(item["attr_types"]),
                    methods=list(item["methods"])))
            return out

        return cls(path=payload["path"], module=payload["module"],
                   imports=dict(payload["imports"]),
                   classes=_classes(payload["classes"]),
                   functions=_functions(payload["functions"]))


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def module_name_for(display_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/serve/cluster.py`` → ``repro.serve.cluster``;
    package ``__init__.py`` files name the package itself.
    """
    normalized = display_path.replace("\\", "/")
    if normalized.startswith("src/"):
        normalized = normalized[len("src/"):]
    if normalized.endswith(".py"):
        normalized = normalized[:-3]
    parts = [part for part in normalized.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted_name(node: ast.expr) -> Optional[str]:
    """Dotted name of an expression, ``self``-rooted chains included."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _tail_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _required_lock(node: ast.AST) -> Optional[str]:
    """Lock name from a ``@requires_lock("...")`` decorator, if any."""
    for decorator in getattr(node, "decorator_list", []):
        if isinstance(decorator, ast.Call) \
                and _tail_name(decorator.func) == "requires_lock" \
                and decorator.args \
                and isinstance(decorator.args[0], ast.Constant) \
                and isinstance(decorator.args[0].value, str):
            return decorator.args[0].value
    return None


def _is_self_attr(node: ast.expr, aliases: Set[str]) -> Optional[str]:
    """Attribute name when ``node`` is ``<alias>.<attr>``."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id in aliases:
        return node.attr
    return None


def annotation_head(annotation: Optional[ast.expr]) -> Optional[str]:
    """The dotted name an annotation leads with — quotes, subscripts
    and ``Optional[...]`` peeled: ``"Optional[m.Mapping]"`` ->
    ``m.Mapping``, ``Set[Pair]`` -> ``Set``."""
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        head = _dotted_name(annotation.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            return annotation_head(annotation.slice)
        return head
    return _dotted_name(annotation) if annotation is not None else None


def _walk(node: ast.AST) -> Tuple[List[ast.AST], Dict[int, ast.AST]]:
    """One walk under ``node``: every node in :func:`ast.walk`'s order,
    and ``id(node)`` -> parent (:func:`~repro.analysis.core.parent_map`)."""
    nodes: List[ast.AST] = [node]
    parents: Dict[int, ast.AST] = {}
    for parent in nodes:  # grows as it goes: breadth first, as ast.walk
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent
            nodes.append(child)
    return nodes, parents


def _method_iterations(node: ast.AST, nodes: List[ast.AST],
                       parents: Dict[int, ast.AST]) -> List[MethodIteration]:
    """Every :class:`MethodIteration` under the function ``node`` (its
    :func:`_walk`) whose receiver is bound exactly once: an annotated
    parameter never assigned to, or a local assigned the result of one
    named call."""
    stores = Counter(child.id for child in nodes
                     if isinstance(child, ast.Name)
                     and isinstance(child.ctx, ast.Store))
    parameters = {arg.arg: annotation_head(arg.annotation) for arg in
                  node.args.posonlyargs + node.args.args
                  + node.args.kwonlyargs}
    bound = {name: head for name, head in parameters.items()
             if head is not None and not stores[name]}
    for child in nodes:
        if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                and isinstance(child.targets[0], ast.Name) \
                and isinstance(child.value, ast.Call):
            name, callee = child.targets[0].id, _dotted_name(child.value.func)
            if callee is not None and stores[name] == 1 \
                    and name not in parameters:
                bound[name] = callee
    return [MethodIteration(iterable.lineno, iterable.func.attr,
                            bound[iterable.func.value.id])
            for child in nodes
            for iterable in ordered_iterables(child)
            if isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and isinstance(iterable.func.value, ast.Name)
            and iterable.func.value.id in bound
            and not sorted_wrapped(iterable, parents)]


def _summarize_function(node: ast.AST, qualname: str,
                        classname: Optional[str], nodes: List[ast.AST],
                        parents: Dict[int, ast.AST]) -> FunctionSummary:
    """The summary of one function from its :func:`_walk`."""
    summary = FunctionSummary(
        name=node.name, qualname=qualname, classname=classname,
        required_lock=_required_lock(node),
        returns=annotation_head(node.returns),
        method_iterations=_method_iterations(node, nodes, parents))
    aliases: Set[str] = {"self"}
    # alias pass first: a lock taken through ``service = self`` counts
    for child in nodes:
        if isinstance(child, ast.Assign) \
                and isinstance(child.value, ast.Name) \
                and child.value.id in aliases:
            for target in child.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    release_lines: Dict[str, List[int]] = {}
    for child in nodes:
        if isinstance(child, ast.Call) \
                and isinstance(child.func, ast.Attribute) \
                and child.func.attr == "release":
            lock = _is_self_attr(child.func.value, aliases)
            if lock is not None:
                release_lines.setdefault(lock, []).append(child.lineno)
    for child in nodes:
        if isinstance(child, ast.Call):
            summary.calls.append(CallSite(line=child.lineno,
                                          dotted=_dotted_name(child.func)))
            # ``self.<lock>.acquire(...)`` opens a span to the matching
            # release (or the function end)
            if isinstance(child.func, ast.Attribute) \
                    and child.func.attr in ("acquire", "acquire_lock"):
                lock = _is_self_attr(child.func.value, aliases)
                if lock is not None:
                    after = [line for line
                             in release_lines.get(lock, [])
                             if line >= child.lineno]
                    summary.lock_spans.append(LockSpan(
                        lock=lock, start=child.lineno,
                        end=min(after) if after
                        else node.end_lineno or node.lineno,
                        via="acquire"))
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                expr: ast.expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                    if isinstance(expr, ast.Attribute) \
                            and expr.attr in ("acquire", "acquire_lock"):
                        expr = expr.value
                lock = _is_self_attr(expr, aliases)
                if lock is not None:
                    summary.lock_spans.append(LockSpan(
                        lock=lock, start=child.lineno,
                        end=child.end_lineno or child.lineno,
                        via="with"))
    summary.lock_spans.sort(key=lambda span: (span.start, span.lock))
    return summary


def _summarize_class(node: ast.ClassDef, qualprefix: str,
                     functions: List[FunctionSummary]) -> ClassSummary:
    qualname = f"{qualprefix}{node.name}" if qualprefix else node.name
    summary = ClassSummary(name=node.name, qualname=qualname)
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.methods.append(statement.name)
            nodes, parents = _walk(statement)
            functions.append(_summarize_function(
                statement, f"{qualname}.{statement.name}", node.name,
                nodes, parents))
            for child in nodes:
                if isinstance(child, ast.Assign) \
                        and isinstance(child.value, ast.Call):
                    attr = None
                    for target in child.targets:
                        attr = _is_self_attr(target, {"self"}) or attr
                    dotted = _dotted_name(child.value.func)
                    if attr is not None and dotted is not None:
                        summary.attr_types.setdefault(attr, dotted)
                elif isinstance(child, ast.AnnAssign):
                    name = _is_self_attr(child.target, {"self"})
                    if name is not None:
                        summary.attr_types.setdefault(
                            name, ast.unparse(child.annotation))
    return summary


def summarize_module(display_path: str, tree: ast.Module) -> FileSummary:
    """Extract the :class:`FileSummary` of one parsed file."""
    module = module_name_for(display_path)
    summary = FileSummary(path=display_path, module=module)
    package = module if display_path.replace("\\", "/").endswith(
        "__init__.py") else module.rsplit(".", 1)[0]
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    summary.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    summary.imports.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - (node.level - 1)] \
                    if node.level > 1 else parts
                prefix = ".".join(parts)
                base = f"{prefix}.{base}" if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                summary.imports[bound] = f"{base}.{alias.name}" \
                    if base else alias.name
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions.append(_summarize_function(
                statement, statement.name, None, *_walk(statement)))
        elif isinstance(statement, ast.ClassDef):
            summary.classes.append(
                _summarize_class(statement, "", summary.functions))
    return summary


# ----------------------------------------------------------------------
# the graph
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    """One resolved project symbol."""

    kind: str  # "class" | "function" | "module"
    qualname: str
    file: FileSummary
    #: the ClassSummary / FunctionSummary / FileSummary payload
    node: object


class ProjectGraph:
    """Symbol table + name resolution over summaries."""

    def __init__(self, summaries: Sequence[FileSummary]) -> None:
        self.files: Dict[str, FileSummary] = {
            summary.path: summary for summary in summaries}
        self.modules: Dict[str, FileSummary] = {}
        self.classes: Dict[str, Tuple[ClassSummary, FileSummary]] = {}
        self.functions: Dict[str,
                             Tuple[FunctionSummary, FileSummary]] = {}
        for summary in summaries:
            self.modules.setdefault(summary.module, summary)
            for cls in summary.classes:
                self.classes.setdefault(
                    f"{summary.module}.{cls.qualname}", (cls, summary))
            for function in summary.functions:
                self.functions.setdefault(
                    f"{summary.module}.{function.qualname}",
                    (function, summary))

    # -- convenience ---------------------------------------------------

    def ordered_files(self) -> List[FileSummary]:
        return [self.files[path] for path in sorted(self.files)]

    def class_named(self, qualname: str) \
            -> Optional[Tuple[ClassSummary, FileSummary]]:
        return self.classes.get(qualname)

    def function_named(self, qualname: str) \
            -> Optional[Tuple[FunctionSummary, FileSummary]]:
        return self.functions.get(qualname)

    def methods_of(self, cls: ClassSummary,
                   file: FileSummary) -> List[FunctionSummary]:
        prefix = f"{cls.qualname}."
        return [function for function in file.functions
                if function.qualname.startswith(prefix)
                and function.classname == cls.name]

    # -- resolution ----------------------------------------------------

    def _lookup(self, qualname: str) -> Optional[Symbol]:
        hit = self.classes.get(qualname)
        if hit is not None:
            return Symbol("class", qualname, hit[1], hit[0])
        fhit = self.functions.get(qualname)
        if fhit is not None:
            return Symbol("function", qualname, fhit[1], fhit[0])
        module = self.modules.get(qualname)
        if module is not None:
            return Symbol("module", qualname, module, module)
        return None

    def resolve(self, dotted: str,
                file: FileSummary) -> Optional[Symbol]:
        """Resolve a dotted reference seen in ``file`` to a symbol.

        Tries, in order: a local definition, the file's imports, and
        the reference as an already-fully-qualified name.  ``self.``
        chains are the caller's business (they need a class context).
        """
        if not dotted or dotted.startswith("self."):
            return None
        head, _, rest = dotted.partition(".")
        candidates = []
        local = f"{file.module}.{dotted}"
        candidates.append(local)
        imported = file.imports.get(head)
        if imported is not None:
            candidates.append(f"{imported}.{rest}" if rest else imported)
        candidates.append(dotted)
        for candidate in candidates:
            symbol = self._lookup(candidate)
            if symbol is not None:
                return symbol
        return None

    def resolve_attr_call(self, cls: ClassSummary, file: FileSummary,
                          dotted: str) -> Optional[Symbol]:
        """Resolve ``self.<attr>.<method>`` through inferred types."""
        parts = dotted.split(".")
        if len(parts) != 3 or parts[0] != "self":
            return None
        attr, method = parts[1], parts[2]
        type_ref = cls.attr_types.get(attr)
        if type_ref is None:
            return None
        target = self.resolve(type_ref, file)
        if target is None or target.kind != "class":
            return None
        return self._lookup(f"{target.qualname}.{method}")


# ----------------------------------------------------------------------
# the content-hash cache
# ----------------------------------------------------------------------

def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class LintCache:
    """Per-file parse/analysis results keyed by content hash.

    The cache file holds, per display path: the content hash, the
    serialized :class:`FileSummary`, the raw per-file findings and the
    parsed suppressions — everything the runner needs to skip parsing
    an unchanged file entirely.  The whole file is dropped when the
    recorded ``ANALYSIS_VERSION`` differs, so rule changes can never
    be masked by stale cached findings; an entry whose summary
    :meth:`FileSummary.from_dict` cannot load is a miss.
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self.entries: Dict[str, Dict[str, object]] = {}
        self.hits = 0
        if path is not None and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                payload = None
            if isinstance(payload, dict) \
                    and payload.get("version") == ANALYSIS_VERSION \
                    and isinstance(payload.get("files"), dict):
                self.entries = payload["files"]
        self._touched: Set[str] = set()

    def lookup(self, display: str,
               sha: str) -> Optional[Dict[str, object]]:
        """The entry of ``display`` at content ``sha``, or ``None``: a
        miss also where the entry's summary does not load, whatever
        its version stamp says."""
        entry = self.entries.get(display)
        if entry is None or entry.get("sha") != sha:
            return None
        summary = entry.get("summary")
        if summary is not None:
            try:
                FileSummary.from_dict(summary)
            except (AttributeError, KeyError, TypeError, ValueError):
                return None
        self.hits += 1
        self._touched.add(display)
        return entry

    def store(self, display: str, entry: Dict[str, object]) -> None:
        self.entries[display] = entry
        self._touched.add(display)

    def save(self) -> None:
        if self.path is None:
            return
        payload = {"version": ANALYSIS_VERSION,
                   "files": {display: entry for display, entry
                             in sorted(self.entries.items())
                             if display in self._touched}}
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover - cache is best-effort
            try:
                os.unlink(tmp)
            except OSError:
                pass


def iter_lock_holders(spans: Sequence[LockSpan],
                      line: int) -> Iterator[str]:
    """Locks whose spans cover ``line``."""
    for span in spans:
        if span.covers(line):
            yield span.lock
