"""DET — determinism contracts on scoring, kernel and serve paths.

Bit-identical scoring across the serial / parallel / sharded / cluster
paths (PRs 3-6) depends on deterministic iteration order and float
summation order.  Python sets hash-order their elements (salted per
process for strings), so any set iteration on a scored path is a
process-dependent ordering; ``os.listdir`` order is filesystem-
dependent; and a dict sort whose key ignores the dict key silently
tie-breaks by insertion history.

Rules:

=======  ============================================================
DET001   ``for``/comprehension iterates directly over — or
         ``list(...)``/``tuple(...)`` freezes the order of — a set
         expression (literal, comprehension, ``set()``/``frozenset()``
         call, a local variable only ever assigned sets, or a call of
         a function of the same module / ``self.`` method of the same
         class annotated ``-> Set[...]`` / ``-> FrozenSet[...]``);
         across modules (:class:`SetMethodChecker`), a set-annotated
         method called on a local whose class the project graph can
         name — ``list(neighborhood.pairs())``
DET002   ``os.listdir``/``os.scandir`` result used without
         ``sorted(...)`` around the call
DET003   ``sum()``/``math.fsum()`` over a set expression — float
         accumulation order follows hash order
DET004   ``sorted()`` over ``dict.items()`` with a key that ignores
         the dict key, or over ``dict.values()`` with any projecting
         key — equal sort keys fall back to insertion order; make the
         tie-break explicit
=======  ============================================================

Suppress with ``# repro: allow-unordered -- <reason>`` when the
iteration feeds an order-independent consumer (membership tests,
commutative reductions over exact types, cache eviction).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    ProjectChecker,
    call_name,
    ordered_iterables,
    parent_map,
    sorted_wrapped,
    tail_name,
)
from repro.analysis.graph import (
    FunctionSummary,
    ProjectGraph,
    annotation_head,
)

_SET_CALLS = {"set", "frozenset"}
#: return annotations that promise a hash-ordered collection
_SET_ANNOTATIONS = {"Set", "FrozenSet", "AbstractSet", "MutableSet",
                    "set", "frozenset"}
_LISTDIR_CALLS = {"os.listdir", "os.scandir", "listdir", "scandir"}
_SUM_CALLS = {"sum", "math.fsum", "fsum"}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                      ast.Module]
#: ``id(scope node)`` -> names: per function, the locals only ever
#: assigned sets; per module / class, its set-annotated defs
_SetNames = Tuple[Dict[int, Set[str]], Dict[int, Set[str]]]


def _is_set_expression(node: ast.expr) -> bool:
    """Whether ``node`` syntactically produces a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node.func)
        return name in _SET_CALLS
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra: ``a | b`` etc. counts only when a side is a set
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _names_set(head: Optional[str]) -> bool:
    """Whether an annotation's head names a hash-ordered collection."""
    return head is not None and head.rsplit(".", 1)[-1] in _SET_ANNOTATIONS


def _returns_set(function: Union[ast.FunctionDef,
                                 ast.AsyncFunctionDef]) -> bool:
    """Whether a ``def`` is annotated as returning a set type."""
    return _names_set(annotation_head(function.returns))


def _set_returning_defs(tree: ast.Module) -> Dict[int, Set[str]]:
    """``id(module or class node)`` -> names of the functions defined
    directly in it that are annotated as returning a set."""
    owners: List[Union[ast.Module, ast.ClassDef]] = [tree]
    owners.extend(node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef))
    return {
        id(owner): {
            statement.name for statement in owner.body
            if isinstance(statement, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
            and _returns_set(statement)}
        for owner in owners}


def _is_listdir_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) \
        and call_name(node.func) in _LISTDIR_CALLS


class _SetLocals(ast.NodeVisitor):
    """Track function-local names whose every assignment is a set."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.other_names: Set[str] = set()

    def _record(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            (self.set_names if is_set else self.other_names).add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record(element, False)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, _is_set_expression(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(node.target, _is_set_expression(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target, False)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record(node.target, False)
        self.generic_visit(node)

    # nested functions own their locals; do not descend
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _lambda_item_indices(key: ast.expr) -> Optional[Set[object]]:
    """Constant subscript indices a key lambda applies to its argument.

    Returns ``None`` when the key is not a single-argument lambda or
    when the argument is used other than via constant subscripts (in
    which case no claim about ignored components can be made).
    """
    if not isinstance(key, ast.Lambda) or len(key.args.args) != 1 \
            or key.args.vararg or key.args.kwarg or key.args.kwonlyargs:
        return None
    argument = key.args.args[0].arg
    indices: Set[object] = set()
    bare_use = False
    for node in ast.walk(key.body):
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == argument \
                and isinstance(node.slice, ast.Constant):
            indices.add(node.slice.value)
    for node in ast.walk(key.body):
        if isinstance(node, ast.Name) and node.id == argument:
            parent_is_subscript = False
            # a Name used as a Subscript value was already counted
            for candidate in ast.walk(key.body):
                if isinstance(candidate, ast.Subscript) \
                        and candidate.value is node \
                        and isinstance(candidate.slice, ast.Constant):
                    parent_is_subscript = True
                    break
            if not parent_is_subscript:
                bare_use = True
    if bare_use:
        return None
    return indices


_HASH_ORDERED = ("iteration over a set is hash-ordered (process-"
                 "dependent for strings); iterate sorted(...) or a "
                 "deterministic sequence instead")


class DeterminismChecker(Checker):
    """DET001-DET004 over the scored / serving / kernel modules."""

    CODE = "DET"
    SCOPES = ("repro/engine/", "repro/serve/", "repro/sim/",
              "repro/fusion/", "repro/blocking/", "repro/core/",
              "repro/eval/experiments/")

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        parents = parent_map(context.tree)
        set_locals = self._function_set_locals(context.tree)
        # (names only ever assigned sets, set-annotated defs)
        set_names = (set_locals, _set_returning_defs(context.tree))
        for node in ast.walk(context.tree):
            yield from self._check_iteration(context, node, set_names,
                                             parents)
            if isinstance(node, ast.Call):
                yield from self._check_listdir(context, node, parents)
                yield from self._check_sum(context, node, set_names,
                                           parents)
                yield from self._check_sorted_projection(context, node)

    # -- local set-variable tracking -----------------------------------

    def _function_set_locals(self, tree: ast.Module) -> Dict[int, Set[str]]:
        """Map ``id(function node)`` -> names only ever assigned sets."""
        scopes: Dict[int, Set[str]] = {}
        nodes: List[ast.AST] = [tree]
        nodes.extend(node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)))
        for scope in nodes:
            tracker = _SetLocals()
            bodies = scope.body if isinstance(scope, ast.Module) \
                else scope.body
            for statement in bodies:
                tracker.visit(statement)
            scopes[id(scope)] = tracker.set_names - tracker.other_names
        return scopes

    def _enclosing_scope(self, node: ast.AST,
                         parents: Dict[int, ast.AST]) -> Optional[ast.AST]:
        current = parents.get(id(node))
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Module)):
                return current
            current = parents.get(id(current))
        return None

    def _calls_set_returning_def(self, call: ast.Call,
                                 set_defs: Dict[int, Set[str]],
                                 parents: Dict[int, ast.AST]) -> bool:
        """``name(...)`` of a set-annotated function of this module, or
        ``self.name(...)`` / ``cls.name(...)`` of a set-annotated method
        of the enclosing class — how a hash-ordered iteration hides
        behind a helper (``for gram in self._grams(value)``)."""
        target = call.func
        if isinstance(target, ast.Name):
            owner_type: type = ast.Module
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id in ("self", "cls"):
            owner_type = ast.ClassDef
        else:
            return False
        owner = parents.get(id(call))
        while owner is not None and not isinstance(owner, owner_type):
            owner = parents.get(id(owner))
        return tail_name(target) in set_defs.get(id(owner), ())

    def _iterable_is_set(self, iterable: ast.expr, node: ast.AST,
                         set_names: _SetNames,
                         parents: Dict[int, ast.AST]) -> bool:
        set_locals, set_defs = set_names
        if _is_set_expression(iterable):
            return True
        if isinstance(iterable, ast.Call):
            return self._calls_set_returning_def(iterable, set_defs, parents)
        if isinstance(iterable, ast.Name):
            scope = self._enclosing_scope(node, parents)
            if scope is not None \
                    and iterable.id in set_locals.get(id(scope), set()):
                return True
        return False

    # -- rules ---------------------------------------------------------

    def _check_iteration(self, context: ModuleContext, node: ast.AST,
                         set_names: _SetNames,
                         parents: Dict[int, ast.AST]) -> Iterator[Finding]:
        for iterable in ordered_iterables(node):
            if self._iterable_is_set(iterable, node, set_names, parents) \
                    and not sorted_wrapped(iterable, parents):
                yield Finding(context.path, iterable.lineno, "DET001",
                              _HASH_ORDERED)

    def _check_listdir(self, context: ModuleContext, node: ast.Call,
                       parents: Dict[int, ast.AST]) -> Iterator[Finding]:
        if not _is_listdir_call(node):
            return
        if sorted_wrapped(node, parents):
            return
        name = call_name(node.func)
        yield Finding(
            context.path, node.lineno, "DET002",
            f"{name}() order is filesystem-dependent; wrap the call in "
            "sorted(...)")

    def _check_sum(self, context: ModuleContext, node: ast.Call,
                   set_names: _SetNames,
                   parents: Dict[int, ast.AST]) -> Iterator[Finding]:
        if call_name(node.func) not in _SUM_CALLS or not node.args:
            return
        argument = node.args[0]
        if self._iterable_is_set(argument, node, set_names, parents):
            yield Finding(
                context.path, node.lineno, "DET003",
                "float accumulation over a set follows hash order; sum "
                "over a sorted or otherwise deterministic sequence")

    def _check_sorted_projection(self, context: ModuleContext,
                                 node: ast.Call) -> Iterator[Finding]:
        if call_name(node.func) != "sorted" or not node.args:
            return
        iterable = node.args[0]
        if not isinstance(iterable, ast.Call):
            return
        method = iterable.func
        if not isinstance(method, ast.Attribute) or iterable.args:
            return
        key = next((keyword.value for keyword in node.keywords
                    if keyword.arg == "key"), None)
        if key is None:
            return
        if method.attr == "items":
            indices = _lambda_item_indices(key)
            if indices is not None and indices and 0 not in indices:
                yield Finding(
                    context.path, node.lineno, "DET004",
                    "sort key over dict items() ignores the dict key; "
                    "equal values tie-break by insertion order — add "
                    "the key component to the sort key")
        elif method.attr == "values":
            yield Finding(
                context.path, node.lineno, "DET004",
                "sorting dict values() with a projecting key tie-breaks "
                "by insertion order; sort items() with an explicit "
                "tie-break")


class SetMethodChecker(ProjectChecker):
    """DET001 across modules: a set-annotated *method* of another
    object, consumed in order.

    The per-file rule only sees set-returning helpers of the same
    module or class.  ``list(neighborhood.pairs())`` hides the set
    behind a method of a class defined elsewhere
    (``Mapping.pairs -> Set[...]``); the project graph names the
    receiver's class — its annotation, the class it was constructed
    from, or the return annotation of the function it was assigned
    from — and the method's own return annotation says whether what
    comes back is a set.
    """

    CODE = "DET"
    SCOPES = DeterminismChecker.SCOPES

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for file in graph.ordered_files():
            if not self.file_in_scope(file.path):
                continue
            for function in file.functions:
                for use in function.method_iterations:
                    owner = graph.resolve(use.ref, file)
                    if owner is not None \
                            and isinstance(owner.node, FunctionSummary):
                        # a call's result: the class its annotation
                        # names, as the callee's own module spells it
                        owner = graph.resolve(owner.node.returns or "",
                                              owner.file)
                    method = None if owner is None else graph.function_named(
                        f"{owner.qualname}.{use.method}")
                    if method is not None and _names_set(method[0].returns):
                        yield Finding(file.path, use.line, "DET001",
                                      _HASH_ORDERED)
