"""RPC — FrameChannel op protocol between router and shard worker.

``ClusterIndex`` talks to shard workers by sending ``(op, payload)``
frames (``shard.call("state", {})``, ``self._scatter("match", {...})``)
that ``ShardBackend.handle`` / ``_shard_worker`` dispatch with
``if op == "...":`` chains.  Nothing but convention keeps the two
sides in sync; this family turns the convention into a checked
contract over the project graph:

=======  ============================================================
RPC001   an op is sent with no matching handler branch, or a handler
         branch exists for an op nothing sends (dead protocol arm)
RPC002   a payload key written at a send site is never read inside
         the op's handler branch, or a key the handler requires
         (``payload["k"]``) is absent from every send site of that op
=======  ============================================================

Send sites are calls whose tail is ``call``/``send``/``_scatter`` with
a string-constant op and a dict payload — either a literal or a local
name resolved to its last dict-literal assignment before the call.  Send
sites whose payload cannot be resolved statically disable RPC002 key
analysis for that op (never the op-coverage rule).  Suppress with
``# repro: allow-protocol -- <reason>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ProjectChecker
from repro.analysis.graph import (
    CallSite,
    FileSummary,
    FunctionSummary,
    ProjectGraph,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """One (router, handler) protocol surface to check."""

    #: module holding both sides of the protocol
    module: str = "repro.serve.cluster"
    #: function/method names that dispatch on the op string
    handler_names: Tuple[str, ...] = ("handle", "_shard_worker")
    #: variable name the dispatch compares (``if op == "...":``)
    op_name: str = "op"
    #: variable name handlers read payload keys from
    payload_name: str = "payload"
    #: call tails that transmit ``(op, payload)`` frames (``_scatter``
    #: is the router's one send-all/receive-all helper)
    send_tails: Tuple[str, ...] = ("call", "send", "_scatter")


@dataclass
class _SendSite:
    op: str
    line: int
    file: str
    #: payload keys, or ``None`` when not statically resolvable
    keys: Optional[List[str]]


def _resolve_payload_keys(function: FunctionSummary,
                          call: CallSite) -> Optional[List[str]]:
    """Payload keys of one send site, or ``None`` when opaque."""
    if call.arg1_dict_keys is not None:
        return call.arg1_dict_keys
    if call.arg1_name is not None:
        assigns = sorted(
            (line, keys) for line, name, keys in function.dict_assigns
            if name == call.arg1_name and line <= call.line)
        if assigns:
            # last dict-literal assignment before the send wins
            return assigns[-1][1]
    return None


class RpcProtocolChecker(ProjectChecker):
    """RPC001/RPC002 over the cluster frame protocol."""

    CODE = "RPC"
    SCOPES = ("repro/serve/",)

    def __init__(self, specs: Tuple[ProtocolSpec, ...] = (
            ProtocolSpec(),)) -> None:
        self.specs = specs

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for spec in self.specs:
            file = graph.module_named(spec.module)
            if file is None:
                continue
            yield from self._check_spec(spec, file)

    # -- one protocol surface ------------------------------------------

    def _check_spec(self, spec: ProtocolSpec,
                    file: FileSummary) -> Iterator[Finding]:
        handlers = [function for function in file.functions
                    if function.name in spec.handler_names]
        sends = self._send_sites(spec, file)
        handled: Dict[str, Tuple[FunctionSummary, int, int]] = {}
        for handler in handlers:
            for branch in handler.op_branches:
                if branch.name == spec.op_name \
                        and branch.op not in handled:
                    handled[branch.op] = (handler, branch.line,
                                          branch.end)
        sent_ops: Dict[str, List[_SendSite]] = {}
        for site in sends:
            sent_ops.setdefault(site.op, []).append(site)

        # RPC001: sent but unhandled / handled but never sent
        for op in sorted(sent_ops):
            if op not in handled:
                site = min(sent_ops[op], key=lambda s: s.line)
                yield Finding(
                    site.file, site.line, "RPC001",
                    f"op '{op}' is sent but no "
                    f"{'/'.join(spec.handler_names)} branch matches it; "
                    "the shard worker will reject the frame")
        for op in sorted(handled):
            if op not in sent_ops:
                _handler, line, _end = handled[op]
                yield Finding(
                    file.path, line, "RPC001",
                    f"handler branch for op '{op}' is dead: no "
                    "router send site uses it")

        # RPC002: key drift, both directions, per op
        for op in sorted(sent_ops):
            if op not in handled:
                continue
            handler, start, end = handled[op]
            reads = [read for read in handler.key_reads
                     if read.name == spec.payload_name
                     and start <= read.line <= end]
            read_keys = {read.key for read in reads}
            required = {read.key for read in reads if read.required}
            sites = sent_ops[op]
            opaque = any(site.keys is None for site in sites)
            sent_keys: Set[str] = set()
            for site in sites:
                sent_keys.update(site.keys or [])
            for site in sorted(sites, key=lambda s: s.line):
                for key in site.keys or []:
                    if key not in read_keys:
                        yield Finding(
                            site.file, site.line, "RPC002",
                            f"payload key '{key}' sent with op '{op}' "
                            "is never read in its handler branch")
            if not opaque:
                for key in sorted(required - sent_keys):
                    read = next(read for read in reads
                                if read.key == key and read.required)
                    yield Finding(
                        file.path, read.line, "RPC002",
                        f"handler requires payload['{key}'] for op "
                        f"'{op}' but no send site provides it")

    def _send_sites(self, spec: ProtocolSpec,
                    file: FileSummary) -> List[_SendSite]:
        sites: List[_SendSite] = []
        for function in file.functions:
            if function.name in spec.handler_names:
                continue
            for call in function.calls:
                if call.tail not in spec.send_tails \
                        or call.str_arg0 is None or call.argc < 1:
                    continue
                sites.append(_SendSite(
                    op=call.str_arg0, line=call.line, file=file.path,
                    keys=_resolve_payload_keys(function, call)))
        return sites
