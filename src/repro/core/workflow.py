"""Match workflows (paper §2.2, Figure 3).

"The MOMA match process is a workflow consisting of a sequence of
steps.  Each such step generates a same-mapping that can be refined by
additional steps. [...] Each workflow step consists of two parts:
matcher execution and mapping combination.  The execution of selected
matchers is actually optional, i.e., a step may only combine existing
or previously computed mappings from the mapping repository or mapping
cache."

The workflow engine therefore distinguishes:

* :class:`MatcherStep` — run a matcher on two logical sources;
* :class:`CombineStep` — a mapping combiner: a mapping operator
  (merge, compose, neighborhood, inverse, symmetrize or closure)
  followed by an optional selection chain;
* :class:`SelectStep` — selection only, refining one mapping;
* :class:`StoreStep` — persist a mapping into the repository so other
  workflows can re-use it.

All steps read and write named mappings in a :class:`MatchContext`,
which layers the in-flight workspace over the mapping cache, the
mapping repository and the source-mapping model;
:meth:`MatchContext.record` is the one place a finished step is
published and traced.  :mod:`repro.script` is the same tier in the
paper's other notation: a ``ScriptEngine`` holds a context and records
every top-level mapping assignment as a step, so workflows and scripts
see each other's results by name (docs/workflows.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.mapping import Candidates, Mapping
from repro.core.matchers.base import Matcher, confine
from repro.core.matchers.neighborhood import neighborhood_match
from repro.core.operators.compose import compose
from repro.core.operators.merge import merge
from repro.core.operators.selection import Selection, select
from repro.core.operators.setops import symmetrize, transitive_closure
from repro.model.cache import MappingCache
from repro.model.repository import MappingRepository
from repro.model.smm import SourceMappingModel
from repro.model.source import LogicalSource


class WorkflowError(RuntimeError):
    """Raised on unresolved names or malformed workflow definitions."""


class MatchContext:
    """Resolution environment for workflow execution.

    Mapping names resolve through, in order: the step workspace, the
    mapping cache, explicitly provided mappings, the source-mapping
    model's registered mappings, and finally the repository.  Source
    names resolve through provided sources, then the SMM.
    """

    def __init__(self, *,
                 smm: Optional[SourceMappingModel] = None,
                 repository: Optional[MappingRepository] = None,
                 cache: Optional[MappingCache] = None,
                 sources: Optional[Dict[str, LogicalSource]] = None,
                 mappings: Optional[Dict[str, Mapping]] = None,
                 engine: Optional[object] = None) -> None:
        self.smm = smm
        self.repository = repository
        self.cache = cache if cache is not None else MappingCache()
        #: batch engine injected into matcher steps that don't carry
        #: their own (``repro.engine.BatchMatchEngine``); ``None`` keeps
        #: each matcher's own engine (usually the process default).
        self.engine = engine
        self._sources = dict(sources) if sources else {}
        self._mappings = dict(mappings) if mappings else {}
        self.workspace: Dict[str, Mapping] = {}
        self.trace: List[str] = []

    # -- sources -------------------------------------------------------

    def add_source(self, source: LogicalSource) -> None:
        """Register ``source`` under its qualified name."""
        self._sources[source.name] = source

    def find_source(self, name: str) -> Optional[LogicalSource]:
        """The source called ``name``, or ``None``."""
        source = self._sources.get(name)
        if source is None and self.smm is not None:
            source = self.smm.get_source(name)
        return source

    def resolve_source(self, name: str) -> LogicalSource:
        source = self.find_source(name)
        if source is None:
            raise WorkflowError(f"unknown logical source {name!r}")
        return source

    # -- mappings ------------------------------------------------------

    def add_mapping(self, name: str, mapping: Mapping) -> None:
        """Provide an input mapping under ``name``."""
        self._mappings[name] = mapping

    def find_mapping(self, name: str) -> Optional[Mapping]:
        """The mapping called ``name``, or ``None``."""
        mapping = self.workspace.get(name)
        if mapping is None:
            mapping = self.cache.get(name)
        if mapping is None:
            mapping = self._mappings.get(name)
        if mapping is None and self.smm is not None:
            mapping = self.smm.find_mapping(name)
        if mapping is None and self.repository is not None:
            if self.repository.contains(name):
                mapping = self.repository.load(name)
        return mapping

    def resolve_mapping(self, ref: Union[str, Mapping]) -> Mapping:
        if isinstance(ref, Mapping):
            return ref
        mapping = self.find_mapping(ref)
        if mapping is None:
            raise WorkflowError(f"unknown mapping {ref!r}")
        return mapping

    def publish(self, name: str, mapping: Mapping) -> None:
        """Store a step result in the workspace and the cache."""
        self.workspace[name] = mapping
        self.cache.put(name, mapping)

    def record(self, label: str, output: Optional[str],
               mapping: Mapping) -> None:
        """Publish a finished step's ``mapping`` and trace it; a step
        naming no ``output`` (:class:`StoreStep`) is traced only."""
        target = ""
        if output is not None:
            self.publish(output, mapping)
            target = f" -> {output}"
        self.trace.append(
            f"{label}{target} ({len(mapping)} correspondences)")


def _ref(ref: Union[str, Mapping]) -> str:
    return ref if isinstance(ref, str) else "<mapping>"


def _names(*refs: object) -> List[str]:
    """The refs given by name (not ``None``, pairs or a ``Mapping``)."""
    return [ref for ref in refs if isinstance(ref, str)]


class _Step:
    """What the step classes share.  A step is its declarative fields,
    ``describe()`` (its trace label), ``reads()`` (the mapping names
    it resolves) and ``apply(context)`` (its mapping); running it is
    computing, then recording."""

    def run(self, context: MatchContext) -> Mapping:
        mapping = self.apply(context)
        context.record(self.describe(), self.output, mapping)
        return mapping


@dataclass
class MatcherStep(_Step):
    """Execute a matcher and publish its same-mapping.

    ``engine`` optionally overrides the batch execution engine for this
    step; otherwise the context's engine (if any) applies.  Either may
    be a ``repro.engine.BatchMatchEngine`` or a bare
    ``repro.engine.EngineConfig`` (wrapped into an engine on use, so
    workflow definitions can ask for e.g. four-worker execution —
    ``EngineConfig(workers=4)`` — without
    importing the engine class).  Matchers that don't expose an
    ``engine`` attribute run unchanged.

    ``candidates`` confines the matcher: id pairs, a mapping, or the
    *name* of one — typically an earlier step's output, which is how a
    cheap step's result becomes the next matcher's candidate set
    (paper §4.3, Figure 11).
    """

    output: str
    matcher: Matcher
    domain: str
    range: str
    candidates: Optional[Union[str, Candidates]] = None
    engine: Optional[object] = None

    def describe(self) -> str:
        return f"matcher {self.matcher.name} {self.domain}->{self.range}"

    def reads(self) -> List[str]:
        return _names(self.candidates)

    def apply(self, context: MatchContext) -> Mapping:
        from repro.engine import BatchMatchEngine, EngineConfig

        domain = context.resolve_source(self.domain)
        range_ = context.resolve_source(self.range)
        candidates = self.candidates
        if isinstance(candidates, str):
            candidates = context.resolve_mapping(candidates)
        engine = self.engine if self.engine is not None else context.engine
        if isinstance(engine, EngineConfig):
            engine = BatchMatchEngine(engine)
        if engine is None or not hasattr(self.matcher, "engine"):
            return self.matcher.match(domain, range_, candidates=candidates)
        previous = self.matcher.engine
        self.matcher.engine = engine
        try:
            return self.matcher.match(domain, range_, candidates=candidates)
        finally:
            self.matcher.engine = previous


@dataclass
class CombineStep(_Step):
    """A mapping combiner: operator plus optional selection chain.

    ``operator`` is ``"merge"`` (inputs: 2+ mapping refs),
    ``"compose"`` (exactly 2 refs), ``"neighborhood"`` (association,
    same-mapping, association: :func:`neighborhood_match`) or one of
    the one-input ``"inverse"``, ``"symmetrize"`` and ``"closure"``.
    ``params`` feed through to merge, compose and neighborhood
    (combination functions, weights, prefer index, aggregates).
    """

    #: inputs each fixed-arity operator takes
    ARITY = {"compose": 2, "neighborhood": 3, "inverse": 1,
             "symmetrize": 1, "closure": 1}

    output: str
    operator: str
    inputs: Sequence[Union[str, Mapping]]
    params: Dict[str, object] = field(default_factory=dict)
    selections: Sequence[Selection] = field(default_factory=tuple)

    def describe(self) -> str:
        return (f"{self.operator.strip().lower()}"
                f"({', '.join(map(_ref, self.inputs))})")

    def reads(self) -> List[str]:
        return _names(*self.inputs)

    def apply(self, context: MatchContext) -> Mapping:
        resolved = [context.resolve_mapping(ref) for ref in self.inputs]
        operator = self.operator.strip().lower()
        arity = self.ARITY.get(operator)
        if arity is None and operator != "merge":
            raise WorkflowError(f"unknown operator {self.operator!r}")
        if arity is not None and len(resolved) != arity:
            raise WorkflowError(
                f"{operator} expects {arity} inputs, got {len(resolved)}")
        # each operator is called through this module's globals, where
        # a tracer that patches them (benchmarks/moma_bench) is seen
        if operator == "merge":
            mapping = merge(resolved, **self.params)
        elif operator == "compose":
            mapping = compose(*resolved, **self.params)
        elif operator == "neighborhood":
            mapping = neighborhood_match(*resolved, **self.params)
        elif operator == "inverse":
            mapping = resolved[0].inverse()
        elif operator == "symmetrize":
            mapping = symmetrize(resolved[0])
        else:
            mapping = transitive_closure(resolved[0])
        return select(mapping, *self.selections)


@dataclass
class SelectStep(_Step):
    """Refine a mapping with a selection chain."""

    output: str
    input: Union[str, Mapping]
    selections: Sequence[Selection]

    def describe(self) -> str:
        return f"select({_ref(self.input)})"

    def reads(self) -> List[str]:
        return _names(self.input)

    def apply(self, context: MatchContext) -> Mapping:
        return select(context.resolve_mapping(self.input), *self.selections)


@dataclass
class StoreStep(_Step):
    """Persist a mapping into the repository for later re-use."""

    input: Union[str, Mapping]
    repository_name: str

    output: Optional[str] = None

    def describe(self) -> str:
        return f"store {self.repository_name!r}"

    def reads(self) -> List[str]:
        return _names(self.input)

    def apply(self, context: MatchContext) -> Mapping:
        mapping = context.resolve_mapping(self.input)
        if context.repository is None:
            raise WorkflowError("no repository attached to the match context")
        context.repository.save(self.repository_name, mapping)
        return mapping


WorkflowStep = Union[MatcherStep, CombineStep, SelectStep, StoreStep]


class MatchWorkflow:
    """An ordered sequence of workflow steps producing a same-mapping.

    The final same-mapping is the output of the last step (or the step
    named by ``result``).  Workflows are reusable: :meth:`run` creates
    no hidden state outside the supplied context.
    """

    def __init__(self, name: str, steps: Optional[Sequence[WorkflowStep]] = None,
                 *, result: Optional[str] = None) -> None:
        if not name:
            raise ValueError("workflow name must be non-empty")
        self.name = name
        self.steps: List[WorkflowStep] = list(steps) if steps else []
        self.result = result

    # -- fluent builders ------------------------------------------------

    def add_matcher(self, output: str, matcher: Matcher,
                    domain: str, range: str,
                    candidates: Optional[Union[str, Candidates]] = None,
                    engine: Optional[object] = None) -> "MatchWorkflow":
        self.steps.append(MatcherStep(output, matcher, domain, range,
                                      candidates, engine))
        return self

    def add_merge(self, output: str, inputs: Sequence[Union[str, Mapping]],
                  function: Union[str, object] = "avg",
                  selections: Sequence[Selection] = (),
                  **params: object) -> "MatchWorkflow":
        params = dict(params)
        params["function"] = function
        self.steps.append(CombineStep(output, "merge", inputs, params,
                                      tuple(selections)))
        return self

    def add_compose(self, output: str, first: Union[str, Mapping],
                    second: Union[str, Mapping],
                    f: str = "min", g: str = "avg",
                    selections: Sequence[Selection] = (),
                    **params: object) -> "MatchWorkflow":
        params = dict(params)
        params["f"] = f
        params["g"] = g
        self.steps.append(CombineStep(output, "compose", [first, second],
                                      params, tuple(selections)))
        return self

    def add_neighborhood(self, output: str, asso1: Union[str, Mapping],
                         same: Union[str, Mapping],
                         asso2: Union[str, Mapping],
                         selections: Sequence[Selection] = (),
                         **params: object) -> "MatchWorkflow":
        self.steps.append(CombineStep(output, "neighborhood",
                                      [asso1, same, asso2], dict(params),
                                      tuple(selections)))
        return self

    def add_inverse(self, output: str,
                    input: Union[str, Mapping]) -> "MatchWorkflow":
        self.steps.append(CombineStep(output, "inverse", [input]))
        return self

    def add_symmetrize(self, output: str,
                       input: Union[str, Mapping]) -> "MatchWorkflow":
        self.steps.append(CombineStep(output, "symmetrize", [input]))
        return self

    def add_closure(self, output: str,
                    input: Union[str, Mapping]) -> "MatchWorkflow":
        self.steps.append(CombineStep(output, "closure", [input]))
        return self

    def add_select(self, output: str, input: Union[str, Mapping],
                   *selections: Selection) -> "MatchWorkflow":
        self.steps.append(SelectStep(output, input, tuple(selections)))
        return self

    def add_store(self, input: Union[str, Mapping],
                  repository_name: str) -> "MatchWorkflow":
        self.steps.append(StoreStep(input, repository_name))
        return self

    # -- execution -------------------------------------------------------

    def run(self, context: MatchContext) -> Mapping:
        """Execute all steps; return the workflow's result mapping."""
        if not self.steps:
            raise WorkflowError(f"workflow {self.name!r} has no steps")
        last: Optional[Mapping] = None
        for step in self.steps:
            last = step.run(context)
        if self.result is not None:
            return context.resolve_mapping(self.result)
        assert last is not None
        return last

    def output(self, context: MatchContext, name: str) -> Mapping:
        """The mapping called ``name``, computing only what is missing.

        What ``context`` already holds is returned as it is; otherwise
        the step declaring ``name`` runs, after the outputs it
        ``reads()``.  Steps outside ``name``'s dependency cone do not
        run, and nothing runs twice in one context — the paper's "a
        step may only combine existing or previously computed mappings
        from the mapping repository or mapping cache" (§2.2).
        """
        mapping = context.find_mapping(name)
        if mapping is not None:
            # held for the rest of this context: the step that reads
            # it must find it even if the cache evicts it meanwhile
            context.workspace[name] = mapping
            return mapping
        declaring = [step for step in self.steps if step.output == name]
        if not declaring:
            raise WorkflowError(f"unknown mapping {name!r}")
        if len(declaring) > 1:
            raise WorkflowError(f"workflow {self.name!r} declares "
                                f"{name!r} {len(declaring)} times")
        for ref in declaring[0].reads():
            self.output(context, ref)
        return declaring[0].run(context)

    def as_matcher(self, domain: str, range: str,
                   base_context: Optional[MatchContext] = None) -> Matcher:
        """Wrap this workflow as a matcher for the matcher library.

        "Selected workflows can be added to the matcher library for
        use in other match tasks" (§2.2).  The wrapper runs the
        workflow in a child context sharing the base context's
        repository/cache/SMM, with the call's sources bound to
        ``domain`` and ``range``.
        """
        workflow = self

        class _WorkflowMatcher(Matcher):
            name = f"workflow[{workflow.name}]"

            def match(self, domain_source: LogicalSource,
                      range_source: LogicalSource, *,
                      candidates: Optional[Candidates] = None
                      ) -> Mapping:
                context = MatchContext(
                    smm=base_context.smm if base_context else None,
                    repository=base_context.repository if base_context else None,
                    cache=base_context.cache if base_context else None,
                )
                context.add_source(domain_source)
                context.add_source(range_source)
                if base_context is not None:
                    context._sources.update(base_context._sources)
                    context._mappings.update(base_context._mappings)
                return confine(workflow.run(context), candidates)

        return _WorkflowMatcher()

    def __repr__(self) -> str:
        return f"MatchWorkflow({self.name!r}, {len(self.steps)} steps)"
