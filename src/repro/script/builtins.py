"""Builtin functions of the script language.

Each builtin receives the engine and the evaluated argument list.  The
set mirrors the operators the paper's scripts use: ``attrMatch``,
``nhMatch``, ``merge``, ``compose``, ``select``, plus repository and
mapping utilities (``store``, ``load``, ``inverse``, ``identity``,
``threshold``, ``bestN``).  Function symbols arrive as the strings the
operators themselves accept (``"avg"``, ``"relative_left"``,
``"prefermap2"``) and are handed through unparsed; what a builtin
needs from the environment (``select``'s sources, ``store`` / ``load``'s
repository) it reads from ``engine.context``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List

from repro.core.mapping import Mapping
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.matchers.neighborhood import neighborhood_match
from repro.core.operators.compose import compose as compose_op
from repro.core.operators.merge import merge as merge_op
from repro.core.operators.selection import BestNSelection, ThresholdSelection
from repro.model.source import LogicalSource
from repro.script.constraints import ConstraintExpression
from repro.script.errors import ScriptRuntimeError

Builtin = Callable[[Any, List[Any]], Any]

_ATTR_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")
#: the ``best-N`` selection spec of ``select`` (``Best1`` as a symbol)
BEST_N = re.compile(r"^best-?(\d+)$", re.IGNORECASE)


def _attr_name(spec: Any) -> str:
    """Parse the ``"[name]"`` attribute syntax of attrMatch."""
    if isinstance(spec, str):
        match = _ATTR_RE.match(spec.strip())
        if match:
            return match.group(1)
        return spec.strip()
    raise ScriptRuntimeError(f"expected attribute spec string, got {spec!r}")


def _require_mapping(value: Any, position: int, function: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScriptRuntimeError(
            f"{function}: argument {position} must be a mapping, "
            f"got {type(value).__name__}"
        )
    return value


def _require_source(value: Any, position: int,
                    function: str) -> LogicalSource:
    if not isinstance(value, LogicalSource):
        raise ScriptRuntimeError(
            f"{function}: argument {position} must be a logical source, "
            f"got {type(value).__name__}"
        )
    return value


def builtin_attr_match(engine, arguments: List[Any]) -> Mapping:
    """``attrMatch(ldsA, ldsB, Sim, threshold, "[attrA]", "[attrB]")``."""
    if len(arguments) < 4:
        raise ScriptRuntimeError(
            "attrMatch(ldsA, ldsB, similarity, threshold[, attrA[, attrB]])"
        )
    domain = _require_source(arguments[0], 1, "attrMatch")
    range_ = _require_source(arguments[1], 2, "attrMatch")
    similarity = arguments[2]
    if not isinstance(similarity, str):
        raise ScriptRuntimeError("attrMatch: similarity must be a name")
    threshold = float(arguments[3])
    attribute = _attr_name(arguments[4]) if len(arguments) > 4 else "name"
    range_attribute = (_attr_name(arguments[5])
                       if len(arguments) > 5 else attribute)
    matcher = AttributeMatcher(attribute, range_attribute,
                               similarity=similarity, threshold=threshold)
    return matcher.match(domain, range_)


def builtin_nh_match(engine, arguments: List[Any]) -> Mapping:
    """``nhMatch(asso1, same, asso2[, g2])`` — the paper's procedure."""
    if len(arguments) not in (3, 4):
        raise ScriptRuntimeError("nhMatch(asso1, same, asso2[, g2])")
    asso1 = _require_mapping(arguments[0], 1, "nhMatch")
    same = _require_mapping(arguments[1], 2, "nhMatch")
    asso2 = _require_mapping(arguments[2], 3, "nhMatch")
    g2 = arguments[3] if len(arguments) == 4 else "relative"
    if not isinstance(g2, str):
        raise ScriptRuntimeError("nhMatch: g2 must be a symbol")
    return neighborhood_match(asso1, same, asso2, g2=g2)


def builtin_merge(engine, arguments: List[Any]) -> Mapping:
    """``merge(m1, m2[, ...], function)``.

    The trailing argument is a combination-function symbol (Average,
    Min, Min0, Max, ...) or ``PreferMap<i>``, the i-th mapping counting
    from 1; with only mappings given the default is Average.
    """
    if not arguments:
        raise ScriptRuntimeError("merge needs at least one mapping")
    mappings = list(arguments)
    function = mappings.pop() if isinstance(mappings[-1], str) else "avg"
    resolved = [_require_mapping(m, i + 1, "merge")
                for i, m in enumerate(mappings)]
    return merge_op(resolved, function)


def builtin_compose(engine, arguments: List[Any]) -> Mapping:
    """``compose(m1, m2[, f[, g]])``."""
    if len(arguments) < 2:
        raise ScriptRuntimeError("compose(map1, map2[, f[, g]])")
    map1 = _require_mapping(arguments[0], 1, "compose")
    map2 = _require_mapping(arguments[1], 2, "compose")
    f = arguments[2] if len(arguments) > 2 else "min"
    g = arguments[3] if len(arguments) > 3 else "avg"
    if not isinstance(f, str) or not isinstance(g, str):
        raise ScriptRuntimeError("compose: f and g must be symbols")
    return compose_op(map1, map2, f, g)


def builtin_select(engine, arguments: List[Any]) -> Mapping:
    """``select(mapping, spec)``.

    ``spec`` is a threshold number, a ``best-N`` string, or an object
    value constraint such as ``"[domain.id]<>[range.id]"``.
    """
    if len(arguments) != 2:
        raise ScriptRuntimeError("select(mapping, spec)")
    mapping = _require_mapping(arguments[0], 1, "select")
    spec = arguments[1]
    if isinstance(spec, (int, float)):
        return ThresholdSelection(float(spec)).apply(mapping)
    if isinstance(spec, str):
        best = BEST_N.match(spec.strip())
        if best:
            return BestNSelection(int(best.group(1))).apply(mapping)
        constraint = ConstraintExpression(
            spec,
            domain_source=engine.context.find_source(mapping.domain),
            range_source=engine.context.find_source(mapping.range),
        )
        return mapping.filter(constraint)
    raise ScriptRuntimeError(f"select: cannot interpret spec {spec!r}")


def builtin_threshold(engine, arguments: List[Any]) -> Mapping:
    """``threshold(mapping, value)`` — explicit threshold selection."""
    if len(arguments) != 2:
        raise ScriptRuntimeError("threshold(mapping, value)")
    mapping = _require_mapping(arguments[0], 1, "threshold")
    return ThresholdSelection(float(arguments[1])).apply(mapping)


def builtin_best_n(engine, arguments: List[Any]) -> Mapping:
    """``bestN(mapping, n[, side])``."""
    if len(arguments) < 2:
        raise ScriptRuntimeError("bestN(mapping, n[, side])")
    mapping = _require_mapping(arguments[0], 1, "bestN")
    n = int(arguments[1])
    side = arguments[2] if len(arguments) > 2 else "domain"
    if not isinstance(side, str):
        raise ScriptRuntimeError("bestN: side must be a symbol")
    return BestNSelection(n, side=side).apply(mapping)


def builtin_inverse(engine, arguments: List[Any]) -> Mapping:
    """``inverse(mapping)``."""
    if len(arguments) != 1:
        raise ScriptRuntimeError("inverse(mapping)")
    return _require_mapping(arguments[0], 1, "inverse").inverse()


def builtin_identity(engine, arguments: List[Any]) -> Mapping:
    """``identity(lds)`` — the trivial same-mapping of a source."""
    if len(arguments) != 1:
        raise ScriptRuntimeError("identity(lds)")
    source = _require_source(arguments[0], 1, "identity")
    return Mapping.identity(source.name, source.ids())


def builtin_store(engine, arguments: List[Any]) -> Mapping:
    """``store(mapping, "name")`` — persist into the repository."""
    if len(arguments) != 2 or not isinstance(arguments[1], str):
        raise ScriptRuntimeError('store(mapping, "name")')
    repository = engine.context.repository
    if repository is None:
        raise ScriptRuntimeError("store: engine has no repository")
    mapping = _require_mapping(arguments[0], 1, "store")
    repository.save(arguments[1], mapping)
    return mapping


def builtin_load(engine, arguments: List[Any]) -> Mapping:
    """``load("name")`` — fetch from the repository."""
    if len(arguments) != 1 or not isinstance(arguments[0], str):
        raise ScriptRuntimeError('load("name")')
    repository = engine.context.repository
    if repository is None:
        raise ScriptRuntimeError("load: engine has no repository")
    return repository.load(arguments[0])


def builtin_size(engine, arguments: List[Any]) -> float:
    """``size(mapping)`` — number of correspondences (diagnostics)."""
    if len(arguments) != 1:
        raise ScriptRuntimeError("size(mapping)")
    return float(len(_require_mapping(arguments[0], 1, "size")))


def builtin_symmetrize(engine, arguments: List[Any]) -> Mapping:
    """``symmetrize(selfMapping)`` — add the reverse of every pair."""
    from repro.core.operators.setops import symmetrize

    if len(arguments) != 1:
        raise ScriptRuntimeError("symmetrize(mapping)")
    try:
        return symmetrize(_require_mapping(arguments[0], 1, "symmetrize"))
    except ValueError as error:
        raise ScriptRuntimeError(f"symmetrize: {error}") from error


def builtin_closure(engine, arguments: List[Any]) -> Mapping:
    """``closure(selfMapping)`` — transitive duplicate clusters (§4.1.2)."""
    from repro.core.operators.setops import transitive_closure

    if len(arguments) != 1:
        raise ScriptRuntimeError("closure(mapping)")
    try:
        return transitive_closure(
            _require_mapping(arguments[0], 1, "closure"))
    except ValueError as error:
        raise ScriptRuntimeError(f"closure: {error}") from error


def builtin_multi_attr_match(engine, arguments: List[Any]) -> Mapping:
    """``multiAttrMatch(ldsA, ldsB, Sim, threshold, "[a1],[a2]",
    "[b1],[b2]")`` — the §2.2 multi-attribute matcher (weighted avg)."""
    from repro.core.matchers.multi_attribute import (
        AttributePair,
        MultiAttributeMatcher,
    )

    if len(arguments) < 5:
        raise ScriptRuntimeError(
            "multiAttrMatch(ldsA, ldsB, similarity, threshold, "
            "attrsA[, attrsB])"
        )
    domain = _require_source(arguments[0], 1, "multiAttrMatch")
    range_ = _require_source(arguments[1], 2, "multiAttrMatch")
    similarity = arguments[2]
    if not isinstance(similarity, str):
        raise ScriptRuntimeError("multiAttrMatch: similarity must be a name")
    threshold = float(arguments[3])
    attrs_a = [_attr_name(part) for part in str(arguments[4]).split(",")]
    attrs_b = (
        [_attr_name(part) for part in str(arguments[5]).split(",")]
        if len(arguments) > 5 else attrs_a
    )
    if len(attrs_a) != len(attrs_b):
        raise ScriptRuntimeError(
            "multiAttrMatch: attribute lists must have equal length"
        )
    pairs = [AttributePair(a, b, similarity=similarity)
             for a, b in zip(attrs_a, attrs_b)]
    matcher = MultiAttributeMatcher(pairs, "avg", threshold)
    return matcher.match(domain, range_)


def default_builtins() -> Dict[str, Builtin]:
    """Builtin registry keyed by lowercase function name."""
    return {
        "attrmatch": builtin_attr_match,
        "multiattrmatch": builtin_multi_attr_match,
        "nhmatch": builtin_nh_match,
        "merge": builtin_merge,
        "compose": builtin_compose,
        "select": builtin_select,
        "threshold": builtin_threshold,
        "bestn": builtin_best_n,
        "inverse": builtin_inverse,
        "identity": builtin_identity,
        "symmetrize": builtin_symmetrize,
        "closure": builtin_closure,
        "store": builtin_store,
        "load": builtin_load,
        "size": builtin_size,
    }
