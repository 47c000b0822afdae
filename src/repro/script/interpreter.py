"""Tree-walking interpreter for the script language.

The engine evaluates a parsed :class:`~repro.script.nodes.Program`
against a :class:`~repro.core.workflow.MatchContext` — the environment
match workflows run in.  Bare identifiers resolve through the context
(mapping, then source, then the ``DBLP.AuthorAuthor`` identity
pattern); what is left is a *symbol* iff one of the registries that
give it meaning knows it.  A top-level ``$Var = <mapping>`` is a
workflow step: it is recorded in the context under ``Var``.  User
procedures (``PROCEDURE ... END``) live alongside the builtins of
:mod:`repro.script.builtins`; ``nhMatch`` is predefined exactly as in
the paper but can be shadowed by a script-level procedure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.mapping import Mapping
from repro.core.operators.compose import normalize_aggregate
from repro.core.operators.functions import get_combination
from repro.core.operators.merge import prefer_index
from repro.core.workflow import MatchContext
from repro.script import builtins as script_builtins
from repro.script.errors import ScriptRuntimeError
from repro.script.nodes import (
    Assignment,
    Call,
    ExpressionStatement,
    Identifier,
    NumberLiteral,
    ProcedureDef,
    Program,
    Return,
    StringLiteral,
    VariableRef,
)
from repro.script.parser import parse
from repro.sim.registry import available_similarities


def _symbol(name: str) -> Optional[str]:
    """``name`` as the registry that knows it spells it, or ``None``.

    No table here: a similarity is a symbol iff registered (so
    ``register_similarity`` extends the language), ``Average`` iff
    ``get_combination`` resolves it, ``RelativeLeft`` iff compose does,
    ``PreferMap2`` iff merge parses it, ``Best1`` iff select does.
    """
    lowered = name.strip().lower()
    key = lowered.replace("-", "").replace("_", "")
    known = available_similarities()
    for spelling in (lowered, key):
        if spelling in known:
            return spelling
    try:
        return get_combination(key).name
    except KeyError:
        pass
    except ValueError:  # "weighted": known, but only built with weights
        return key
    try:
        return normalize_aggregate(key)
    except KeyError:
        pass
    if prefer_index(key) is not None or script_builtins.BEST_N.match(key):
        return key
    return None


def _describe(node) -> str:
    """``node`` as source text, for the step trace."""
    if isinstance(node, Call):
        return f"{node.name}({', '.join(map(_describe, node.arguments))})"
    if isinstance(node, VariableRef):
        return f"${node.name}"
    if isinstance(node, NumberLiteral):
        return f"{node.value:g}"
    if isinstance(node, StringLiteral):
        return repr(node.value)
    return node.name


class _ReturnSignal(Exception):
    """Internal control flow for RETURN inside procedures."""

    def __init__(self, value: Any) -> None:
        self.value = value


class ScriptEngine:
    """Evaluate scripts in ``context`` — shared with workflows — or in
    a private ``MatchContext(**environment)``; sources and input
    mappings are provided through ``engine.context.add_*``."""

    def __init__(self, context: Optional[MatchContext] = None,
                 **environment: Any) -> None:
        if context is not None and environment:
            raise TypeError(
                "pass a MatchContext or the arguments to build one, not both")
        self.context = (context if context is not None
                        else MatchContext(**environment))
        self.variables: Dict[str, Any] = {}
        self.procedures: Dict[str, ProcedureDef] = {}
        self.builtins = script_builtins.default_builtins()

    # -- environment -----------------------------------------------------

    def _resolve_identity_pattern(self, name: str) -> Optional[Mapping]:
        """``DBLP.AuthorAuthor`` -> identity mapping of ``DBLP.Author``.

        The paper's §4.3 script passes ``DBLP.AuthorAuthor`` as "an
        identity mapping of DBLP authors" without defining it anywhere;
        we synthesize it from the doubled object-type suffix.
        """
        if "." not in name:
            return None
        prefix, _, suffix = name.rpartition(".")
        if len(suffix) < 2 or len(suffix) % 2 != 0:
            return None
        half = len(suffix) // 2
        if suffix[:half] != suffix[half:]:
            return None
        source = self.context.find_source(f"{prefix}.{suffix[:half]}")
        if source is None:
            return None
        return Mapping.identity(source.name, source.ids())

    def resolve_identifier(self, name: str) -> Any:
        """Resolve a bare identifier: mapping, source, identity, symbol."""
        for find in (self.context.find_mapping, self.context.find_source,
                     self._resolve_identity_pattern, _symbol):
            value = find(name)
            if value is not None:
                return value
        raise ScriptRuntimeError(
            f"cannot resolve identifier {name!r} (not a mapping, source "
            "or known symbol)"
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, node, local: Optional[Dict[str, Any]] = None) -> Any:
        if isinstance(node, NumberLiteral):
            return node.value
        if isinstance(node, StringLiteral):
            return node.value
        if isinstance(node, VariableRef):
            if local is not None and node.name in local:
                return local[node.name]
            if node.name in self.variables:
                return self.variables[node.name]
            raise ScriptRuntimeError(f"undefined variable ${node.name}")
        if isinstance(node, Identifier):
            return self.resolve_identifier(node.name)
        if isinstance(node, Call):
            return self.call(node.name, *(self.evaluate(argument, local)
                                          for argument in node.arguments))
        raise ScriptRuntimeError(f"cannot evaluate node {node!r}")

    def _run_procedure(self, procedure: ProcedureDef,
                       arguments: List[Any]) -> Any:
        if len(arguments) != len(procedure.parameters):
            raise ScriptRuntimeError(
                f"procedure {procedure.name!r} expects "
                f"{len(procedure.parameters)} arguments, got {len(arguments)}"
            )
        local = dict(zip(procedure.parameters, arguments))
        try:
            for statement in procedure.body:
                self._execute(statement, local)
        except _ReturnSignal as signal:
            return signal.value
        return None

    def _execute(self, statement, local: Optional[Dict[str, Any]]) -> Any:
        if isinstance(statement, ProcedureDef):
            self.procedures[statement.name] = statement
            return None
        if isinstance(statement, Assignment):
            value = self.evaluate(statement.expression, local)
            if local is not None:
                local[statement.target] = value
                return value
            self.variables[statement.target] = value
            if isinstance(value, Mapping):
                # a top-level statement is a workflow step
                self.context.record(_describe(statement.expression),
                                    statement.target, value)
            return value
        if isinstance(statement, Return):
            raise _ReturnSignal(self.evaluate(statement.expression, local))
        if isinstance(statement, ExpressionStatement):
            return self.evaluate(statement.expression, local)
        raise ScriptRuntimeError(f"cannot execute statement {statement!r}")

    # -- entry points ----------------------------------------------------------

    def run(self, text: str) -> Any:
        """Parse and execute a script; return the last statement's value."""
        program: Program = parse(text)
        result: Any = None
        for statement in program.statements:
            value = self._execute(statement, None)
            if not isinstance(statement, ProcedureDef):
                result = value
        return result

    def call(self, name: str, *arguments: Any) -> Any:
        """Invoke a procedure or builtin (also directly from Python)."""
        procedure = self.procedures.get(name)
        if procedure is not None:
            return self._run_procedure(procedure, list(arguments))
        builtin = self.builtins.get(name.lower())
        if builtin is not None:
            return builtin(self, list(arguments))
        raise ScriptRuntimeError(f"unknown function {name!r}")
