"""PKL — pickle safety for types that cross process boundaries.

Three boundaries pickle project objects: the engine pool pickles its
task to each worker where the ``fork`` start method is absent, an
exception raised in a pool worker is pickled back to the parent, and a
serve data dir stores its attribute specs, combiner and knobs in
``specs.pkl``.  Two recurring failure shapes are encoded here:

=======  ============================================================
PKL001   a class stores a known-unpicklable object on ``self``
         (``MappingProxyType``, ``threading`` primitives, sockets,
         open file handles) without defining ``__reduce__`` /
         ``__reduce_ex__`` / ``__getstate__``
PKL002   an exception subclass takes extra required ``__init__``
         parameters but passes a different number of arguments to
         ``super().__init__`` and defines no ``__reduce__`` — the
         default ``Exception.__reduce__`` replays ``self.args`` into
         ``__init__`` and unpickling raises ``TypeError``
=======  ============================================================

PKL002 is exactly the ``ObjectInstance.__reduce__`` bug shape from
PR 6, generalised.  Suppress with ``# repro: allow-unpicklable`` (with
a reason) for types that are provably process-local.

The scope covers ``benchmarks/`` and ``tests/`` as well as the serve,
model and engine trees: harness classes reach the same boundaries when
a benchmark or test runs the pool or writes a data dir.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.core import Checker, Finding, ModuleContext, call_name

#: dotted / bare call names whose results never pickle
_UNPICKLABLE_CALLS: Set[str] = {
    "MappingProxyType", "types.MappingProxyType",
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.local", "threading.Barrier",
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "socket.socket",
    "open", "io.open",
}

_REDUCE_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__"}

_EXCEPTION_BASE_HINTS = {"Exception", "BaseException", "ValueError",
                         "RuntimeError", "KeyError", "OSError", "IOError",
                         "TypeError", "LookupError", "ArithmeticError"}


def _defines_reduce_hook(class_node: ast.ClassDef) -> bool:
    return any(isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
               and statement.name in _REDUCE_HOOKS
               for statement in class_node.body)


def _looks_like_exception(class_node: ast.ClassDef) -> bool:
    for base in class_node.bases:
        name = call_name(base)
        if name is None:
            continue
        tail = name.rsplit(".", 1)[-1]
        if tail in _EXCEPTION_BASE_HINTS or tail.endswith("Error") \
                or tail.endswith("Exception"):
            return True
    return False


def _required_positional_count(init: ast.FunctionDef) -> int:
    """Required positional parameters of ``__init__``, excluding self."""
    positional = init.args.posonlyargs + init.args.args
    required = len(positional) - len(init.args.defaults)
    return max(0, required - 1)


def _super_init_arg_count(init: ast.FunctionDef) -> Optional[int]:
    """Positional-arg count of the ``super().__init__`` call, if clean.

    Returns ``None`` when there is no such call or when starred
    arguments make the count indeterminate.
    """
    for node in ast.walk(init):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and call_name(func.value.func) == "super"):
            continue
        if any(isinstance(argument, ast.Starred) for argument in node.args):
            return None
        return len(node.args)
    return None


class PickleSafetyChecker(Checker):
    """PKL001/PKL002 over the serve tier and the shared model types."""

    CODE = "PKL"
    SCOPES = ("repro/serve/", "repro/model/", "repro/engine/",
              "benchmarks/", "tests/")

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    def _check_class(self, context: ModuleContext,
                     class_node: ast.ClassDef) -> Iterator[Finding]:
        has_hook = _defines_reduce_hook(class_node)
        if not has_hook:
            yield from self._check_unpicklable_attrs(context, class_node)
            if _looks_like_exception(class_node):
                yield from self._check_exception_init(context, class_node)

    def _check_unpicklable_attrs(self, context: ModuleContext,
                                 class_node: ast.ClassDef
                                 ) -> Iterator[Finding]:
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None or not isinstance(value, ast.Call):
                    continue
                name = call_name(value.func)
                if name not in _UNPICKLABLE_CALLS:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        yield Finding(
                            context.path, node.lineno, "PKL001",
                            f"{class_node.name}.{target.attr} holds "
                            f"{name}() which cannot pickle; define "
                            "__reduce__/__getstate__ or keep the type "
                            "out of pool tasks and specs.pkl")

    def _check_exception_init(self, context: ModuleContext,
                              class_node: ast.ClassDef) -> Iterator[Finding]:
        init = next((statement for statement in class_node.body
                     if isinstance(statement, ast.FunctionDef)
                     and statement.name == "__init__"), None)
        if init is None:
            return
        required = _required_positional_count(init)
        if required == 0:
            return
        super_args = _super_init_arg_count(init)
        if super_args is None or super_args == required:
            return
        yield Finding(
            context.path, init.lineno, "PKL002",
            f"exception {class_node.name}.__init__ takes {required} "
            f"required argument(s) but super().__init__ receives "
            f"{super_args}; Exception.__reduce__ replays self.args and "
            "unpickling will raise TypeError — define __reduce__")
