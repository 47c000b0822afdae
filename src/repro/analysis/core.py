"""Framework primitives: findings, module contexts, suppressions.

A checker is a class with a ``CODE`` family prefix (``DET``, ``LCK``,
...), a ``SCOPES`` tuple of repo-relative path prefixes it applies to,
and a ``check(context)`` generator yielding :class:`Finding` objects.
The runner (:mod:`repro.analysis.runner`) parses each file once into a
:class:`ModuleContext` and feeds it to every interested checker; the
context also carries the file's parsed suppression comments, which the
runner applies *after* checking so a suppression with a missing reason
can itself be reported (``SUP001``).

Suppression syntax, one comment per line::

    risky_call()  # repro: allow-unordered -- cache eviction is order-independent

``allow-<token>`` accepts either a family alias (``unordered`` for
DET, ``unlocked`` for LCK, ``unpicklable`` for PKL, ``durability`` for
DUR, ``api-error`` for API) or an exact lower-cased finding code
(``allow-det004``).  Everything after ``--`` is the mandatory reason.
A suppression covers findings on its own line; a comment-only line
covers the first following line that holds code.  A suppression that
matches nothing is itself reported (``SUP002``) so allow-comments
cannot outlive the finding they excused.

Cross-module rules (LCK, DET's set-method rule) subclass
:class:`ProjectChecker` and run against the
:class:`repro.analysis.graph.ProjectGraph` built once per run.
"""

from __future__ import annotations

import ast
import re
import tokenize
from bisect import bisect_left
from dataclasses import dataclass, field
from io import StringIO
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.analysis.graph import ProjectGraph

#: family alias -> checker code prefix, mirrored in docs/static-analysis.md
FAMILY_ALIASES: Dict[str, str] = {
    "unordered": "DET",
    "unlocked": "LCK",
    "unpicklable": "PKL",
    "durability": "DUR",
    "api-error": "API",
}

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow-(?P<token>[A-Za-z0-9_-]+)"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One structured finding: ``file:line CODE message``."""

    file: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line} {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: allow-...`` comment."""

    line: int
    token: str
    reason: Optional[str]
    #: the line of code this suppression covers (its own line, or the
    #: next code-bearing line for a comment-only line)
    target_line: int

    def covers(self, finding: Finding) -> bool:
        if finding.line != self.target_line:
            return False
        token = self.token.lower()
        prefix = FAMILY_ALIASES.get(token)
        if prefix is not None:
            return finding.code.startswith(prefix)
        return finding.code.lower() == token


@dataclass
class ModuleContext:
    """One parsed source file plus everything checkers need to see."""

    path: str
    tree: ast.Module
    source_lines: Sequence[str]
    suppressions: List[Suppression] = field(default_factory=list)

    def in_scope(self, prefixes: Iterable[str]) -> bool:
        """Whether this file falls under any of the path prefixes."""
        normalized = self.path.replace("\\", "/")
        return any(normalized.startswith(prefix) or f"/{prefix}" in normalized
                   for prefix in prefixes)


class Checker:
    """Base class: subclasses define ``CODE``, ``SCOPES`` and ``check``."""

    #: finding-code family prefix, e.g. ``"DET"``
    CODE: str = ""
    #: repo-relative path prefixes the checker applies to; empty = all
    SCOPES: Tuple[str, ...] = ()

    def interested(self, context: ModuleContext) -> bool:
        return not self.SCOPES or context.in_scope(self.SCOPES)

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectChecker(Checker):
    """A checker that sees the whole project, not one file.

    Subclasses implement :meth:`check_project` against the
    :class:`repro.analysis.graph.ProjectGraph` the runner builds once
    per run.  ``check`` is a no-op so project checkers can sit in the
    same registry as per-file checkers; ``SCOPES`` still applies —
    findings are only *emitted* for files inside the checker's scope,
    but the graph itself always covers every checked file.
    """

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, graph: "ProjectGraph") -> Iterator[Finding]:
        raise NotImplementedError

    def file_in_scope(self, path: str) -> bool:
        if not self.SCOPES:
            return True
        normalized = path.replace("\\", "/")
        return any(normalized.startswith(prefix)
                   or f"/{prefix}" in normalized
                   for prefix in self.SCOPES)


#: tokens that carry no code: a line holding only these is no target
_NON_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                       tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                       tokenize.ENDMARKER})


def _scan(source: str) -> Tuple[List[int], List[Tuple[int, str]]]:
    """The sorted line numbers that carry code tokens, and ``(line,
    text)`` of every real COMMENT token, from one tokenize pass.

    A file that does not tokenize has no code lines, and every line
    of it is a comment candidate (a line scan).
    """
    code: set[int] = set()
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
            elif token.type not in _NON_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [], list(enumerate(source.splitlines(), start=1))
    return sorted(code), comments


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every ``# repro: allow-...`` comment with its target line.

    Only genuine comment tokens count: an ``allow-`` example inside a
    docstring is documentation, not a suppression (which matters now
    that an unused suppression is itself a finding, ``SUP002``).  A
    source without ``allow-`` is not tokenized at all.
    """
    if "allow-" not in source:
        return []
    code_lines, comments = _scan(source)
    suppressions: List[Suppression] = []
    for number, text in comments:
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        # its own line where that holds code, else the next code line
        at = bisect_left(code_lines, number)
        target = code_lines[at] if at < len(code_lines) else number
        suppressions.append(Suppression(
            line=number, token=match.group("token"),
            reason=match.group("reason"), target_line=target))
    return suppressions


def parse_module(path: str, source: str,
                 display_path: Optional[str] = None) -> ModuleContext:
    """Parse one file into a :class:`ModuleContext` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    return ModuleContext(
        path=display_path if display_path is not None else path,
        tree=tree,
        source_lines=source.splitlines(),
        suppressions=parse_suppressions(source))


def all_checkers() -> List[Checker]:
    """One fresh instance of every registered checker, in code order."""
    from repro.analysis.api import ApiErrorChecker
    from repro.analysis.det import DeterminismChecker, SetMethodChecker
    from repro.analysis.dur import DurabilityChecker
    from repro.analysis.lck import (
        InterproceduralLockChecker,
        LockOrderChecker,
    )
    from repro.analysis.pkl import PickleSafetyChecker

    classes: List[Type[Checker]] = [
        ApiErrorChecker, DeterminismChecker, DurabilityChecker,
        InterproceduralLockChecker, LockOrderChecker, PickleSafetyChecker,
        SetMethodChecker,
    ]
    return [cls() for cls in sorted(classes, key=lambda cls: cls.CODE)]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------

def call_name(node: ast.expr) -> Optional[str]:
    """Dotted name of a call target: ``os.replace`` -> ``"os.replace"``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def tail_name(node: ast.expr) -> Optional[str]:
    """Last attribute segment of a call target (``a.b.fsync`` -> ``fsync``)."""
    dotted = call_name(node)
    if dotted is None:
        return None
    return dotted.rsplit(".", 1)[-1]


def ordered_iterables(node: ast.AST) -> List[ast.expr]:
    """The expressions ``node`` consumes element by element, in order:
    the iterable of a ``for`` or of a comprehension's generators, the
    argument of ``list(...)`` / ``tuple(...)``."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return [generator.iter for generator in node.generators]
    if isinstance(node, ast.Call) and len(node.args) == 1 \
            and not node.keywords \
            and call_name(node.func) in ("list", "tuple"):
        return [node.args[0]]
    return []


def parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    """``id(node)`` -> parent, over every node under ``tree``."""
    return {id(child): parent for parent in ast.walk(tree)
            for child in ast.iter_child_nodes(parent)}


def sorted_wrapped(node: ast.expr, parents: Dict[int, ast.AST]) -> bool:
    """Whether ``node`` is an (arbitrarily nested) argument of a call
    that forgets element order: ``sorted()``, ``len()``."""
    current: Optional[ast.AST] = parents.get(id(node))
    while current is not None:
        if isinstance(current, ast.Call) \
                and call_name(current.func) in ("sorted", "len",
                                                "list.sort"):
            return True
        current = parents.get(id(current))
    return False


def walk_functions(tree: ast.Module) -> Iterator[Tuple[ast.AST, List[str]]]:
    """Yield ``(function node, enclosing-class names)`` for every def."""

    def visit(node: ast.AST, stack: List[str]) -> Iterator[Tuple[ast.AST, List[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, list(stack)
                yield from visit(child, stack)
            elif isinstance(child, ast.ClassDef):
                stack.append(child.name)
                yield from visit(child, stack)
                stack.pop()
            else:
                yield from visit(child, stack)

    return visit(tree, [])
