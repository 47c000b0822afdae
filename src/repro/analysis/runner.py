"""File discovery, caching, suppression/baseline layers, reporting.

The runner walks the target tree in sorted order (the linter obeys its
own DET rules), parses each ``.py`` file once, feeds it to every
interested per-file checker, then builds the
:class:`~repro.analysis.graph.ProjectGraph` over every file's summary
and runs the project checkers (LCK, DET's set-method rule) against
it.  Two acceptance layers follow:

1. inline suppressions (``# repro: allow-... -- reason``) — a
   suppression that matches a finding removes it; a suppression with
   no reason yields ``SUP001``; a suppression (with a reason) that
   matches *nothing* yields ``SUP002`` so allow-comments cannot
   outlive their finding;
2. the committed baseline (``lint-baseline.json``) — findings listed
   there with a non-empty ``reason`` are accepted; entries with an
   empty reason are configuration errors.

Anything left is an *unbaselined* finding and fails the run.

Per-file work (parse, per-file findings, suppressions, graph summary)
is cached by content hash when ``cache_path`` is given: a warm run
re-parses only edited files, while the cross-module pass always runs
over the full current project.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.core import (
    Checker,
    Finding,
    ProjectChecker,
    Suppression,
    all_checkers,
    parse_module,
)
from repro.analysis.graph import (
    FileSummary,
    LintCache,
    ProjectGraph,
    content_hash,
    summarize_module,
)

DEFAULT_CACHE = ".repro-lint-cache.json"

BASELINE_VERSION = 1
DEFAULT_BASELINE = "lint-baseline.json"

_BaselineKey = Tuple[str, str, str]


@dataclass
class BaselineEntry:
    """One accepted finding with its justification."""

    code: str
    file: str
    message: str
    reason: str

    def key(self) -> _BaselineKey:
        return (self.code, self.file, self.message)


@dataclass
class AnalysisReport:
    """Everything one run produced, split by acceptance layer."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    unbaselined: List[Finding] = field(default_factory=list)
    baseline_errors: List[str] = field(default_factory=list)
    files_checked: int = 0
    files_cached: int = 0

    @property
    def ok(self) -> bool:
        return not self.unbaselined and not self.baseline_errors

    def exit_code(self) -> int:
        if self.baseline_errors:
            return 2
        return 0 if not self.unbaselined else 1

    def render_text(self) -> str:
        lines: List[str] = []
        for finding in self.unbaselined:
            lines.append(finding.render())
        for error in self.baseline_errors:
            lines.append(f"baseline error: {error}")
        cached = f" ({self.files_cached} cached)" if self.files_cached \
            else ""
        lines.append(
            f"{self.files_checked} files checked{cached}: "
            f"{len(self.unbaselined)} finding(s), "
            f"{len(self.baselined)} baselined, "
            f"{len(self.suppressed)} suppressed")
        return "\n".join(lines)

    def render_json(self) -> str:
        def encode(finding: Finding) -> Dict[str, object]:
            return {"file": finding.file, "line": finding.line,
                    "code": finding.code, "message": finding.message}

        return json.dumps({
            "files_checked": self.files_checked,
            "files_cached": self.files_cached,
            "unbaselined": [encode(finding) for finding in self.unbaselined],
            "baselined": [encode(finding) for finding in self.baselined],
            "suppressed": [encode(finding) for finding in self.suppressed],
            "baseline_errors": list(self.baseline_errors),
        }, indent=2, sort_keys=True)


def load_baseline(path: str) -> List[BaselineEntry]:
    """Read ``lint-baseline.json``; a missing file is an empty baseline."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) \
            or payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path}: expected a baseline object with version "
            f"{BASELINE_VERSION}")
    entries: List[BaselineEntry] = []
    for raw in payload.get("findings", []):
        entries.append(BaselineEntry(
            code=str(raw.get("code", "")),
            file=str(raw.get("file", "")),
            message=str(raw.get("message", "")),
            reason=str(raw.get("reason", ""))))
    return entries


def write_baseline(path: str, findings: Sequence[Finding],
                   previous: Sequence[BaselineEntry],
                   scopes: Sequence[str] = (".",)) -> None:
    """Serialise ``findings`` as a baseline, keeping known reasons and
    every ``previous`` entry for a file outside the checked trees
    ``scopes`` (display paths), which the run did not look at."""
    reasons: Dict[_BaselineKey, str] = {
        entry.key(): entry.reason for entry in previous}
    rows = sorted({(finding.file, finding.code, finding.line,
                    finding.message) for finding in findings})
    # the kept entries in their previous order
    rows += [(entry.file, entry.code, 0, entry.message)
             for entry in previous if not _inside(entry.file, scopes)]
    serialised = [{"code": code, "file": file, "message": message,
                   "reason": reasons.get((code, file, message), "")}
                  for file, code, _, message in sorted(
                      rows, key=lambda row: row[:3])]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": BASELINE_VERSION, "findings": serialised},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")


def discover_files(paths: Sequence[str], root: str) -> List[str]:
    """Absolute paths of every ``.py`` file under ``paths``, sorted.

    ``__pycache__`` and ``fixtures`` directories are skipped: the
    latter hold deliberately-broken golden inputs for the linter's own
    tests and must never be linted as live code.
    """
    found: List[str] = []
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            found.append(absolute)
            continue
        for directory, directories, names in os.walk(absolute):
            directories.sort()
            directories[:] = [name for name in directories
                              if name not in ("__pycache__", "fixtures")]
            for name in sorted(names):
                if name.endswith(".py"):
                    found.append(os.path.join(directory, name))
    return sorted(set(found))


def _display_path(path: str, root: str) -> str:
    relative = os.path.relpath(path, root)
    return relative.replace(os.sep, "/")


def checked_trees(paths: Sequence[str], root: str) -> List[str]:
    """The display paths of the trees a run over ``paths`` checks."""
    return [_display_path(path if os.path.isabs(path)
                          else os.path.join(root, path), root)
            for path in paths]


def _inside(display: str, scopes: Sequence[str]) -> bool:
    """Whether the file ``display`` lies in one of the checked trees
    ``scopes`` (display paths too), whether it exists or not."""
    return any(scope == "." or display == scope
               or display.startswith(scope.rstrip("/") + "/")
               for scope in scopes)


def check_file(path: str, root: str,
               checkers: Optional[Sequence[Checker]] = None
               ) -> Tuple[List[Finding], List[Finding]]:
    """Run checkers on one file; returns ``(active, suppressed)``.

    Suppressions are applied here; a suppression with no reason
    contributes a ``SUP001`` finding to the active list.
    """
    if checkers is None:
        checkers = all_checkers()
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    display = _display_path(path, root)
    try:
        context = parse_module(path, source, display_path=display)
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 1) or 1
        return [Finding(display, line, "SYN001",
                        f"file does not parse: {error}")], []
    raw: List[Finding] = []
    for checker in checkers:
        if checker.interested(context):
            raw.extend(checker.check(context))
    active: List[Finding] = []
    suppressed: List[Finding] = []
    used: set[int] = set()
    for finding in raw:
        covering = next((suppression for suppression in context.suppressions
                         if suppression.covers(finding)), None)
        if covering is not None:
            suppressed.append(finding)
            used.add(covering.line)
        else:
            active.append(finding)
    for suppression in context.suppressions:
        if not suppression.reason or not suppression.reason.strip():
            active.append(Finding(
                display, suppression.line, "SUP001",
                f"suppression allow-{suppression.token} has no reason; "
                "write '# repro: allow-... -- <why this is safe>'"))
    active.sort(key=lambda finding: (finding.line, finding.code))
    return active, suppressed


def _encode_findings(findings: Sequence[Finding]) -> List[List[object]]:
    return [[f.line, f.code, f.message] for f in findings]


def _decode_findings(display: str,
                     raw: Iterable[Sequence[object]]) -> List[Finding]:
    return [Finding(display, int(item[0]), str(item[1]), str(item[2]))
            for item in raw]


def _analyze_file(path: str, display: str, source: str,
                  checkers: Sequence[Checker]) -> Dict[str, object]:
    """Per-file pass: parse, per-file findings, suppressions, summary."""
    try:
        context = parse_module(path, source, display_path=display)
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 1) or 1
        return {"findings": [[line, "SYN001",
                              f"file does not parse: {error}"]],
                "suppressions": [], "summary": None}
    raw: List[Finding] = []
    for checker in checkers:
        if not isinstance(checker, ProjectChecker) \
                and checker.interested(context):
            raw.extend(checker.check(context))
    raw.sort(key=lambda finding: (finding.line, finding.code))
    return {
        "findings": _encode_findings(raw),
        "suppressions": [[s.line, s.token, s.reason, s.target_line]
                         for s in context.suppressions],
        "summary": summarize_module(display, context.tree).to_dict(),
    }


def run_paths(paths: Sequence[str], root: str,
              baseline: Optional[Iterable[BaselineEntry]] = None,
              cache_path: Optional[str] = None) -> AnalysisReport:
    """Check every file under ``paths`` and fold in the baseline.

    Runs per-file checkers (cached by content hash when ``cache_path``
    is set), builds the project graph over every file's summary, runs
    the project checkers, then applies suppressions globally (SUP001 /
    SUP002) and the baseline.
    """
    report = AnalysisReport()
    checkers = all_checkers()
    cache = LintCache(cache_path)
    per_file: List[Tuple[str, Dict[str, object]]] = []
    for path in discover_files(paths, root):
        display = _display_path(path, root)
        with open(path, "rb") as handle:
            data = handle.read()
        sha = content_hash(data)
        entry = cache.lookup(display, sha)
        if entry is None:
            source = data.decode("utf-8")
            entry = _analyze_file(path, display, source, checkers)
            entry["sha"] = sha
            cache.store(display, entry)
        else:
            report.files_cached += 1
        per_file.append((display, entry))
        report.files_checked += 1
    cache.save()

    summaries: List[FileSummary] = []
    for _display, entry in per_file:
        summary = entry.get("summary")
        if summary is not None:
            summaries.append(FileSummary.from_dict(summary))
    graph = ProjectGraph(summaries)
    project_findings: List[Finding] = []
    for checker in checkers:
        if isinstance(checker, ProjectChecker):
            project_findings.extend(checker.check_project(graph))

    findings_by_file: Dict[str, List[Finding]] = {}
    suppressions_by_file: Dict[str, List[Suppression]] = {}
    for display, entry in per_file:
        findings_by_file[display] = _decode_findings(
            display, entry["findings"])
        suppressions_by_file[display] = [
            Suppression(line=int(item[0]), token=str(item[1]),
                        reason=item[2], target_line=int(item[3]))
            for item in entry["suppressions"]]
    for finding in project_findings:
        findings_by_file.setdefault(finding.file, []).append(finding)

    active: List[Finding] = []
    used: Dict[str, set[int]] = {}
    for display in sorted(findings_by_file):
        suppressions = suppressions_by_file.get(display, [])
        for finding in findings_by_file[display]:
            covering = next(
                (suppression for suppression in suppressions
                 if suppression.covers(finding)), None)
            if covering is not None:
                report.suppressed.append(finding)
                used.setdefault(display, set()).add(covering.line)
            else:
                active.append(finding)
    for display in sorted(suppressions_by_file):
        for suppression in suppressions_by_file[display]:
            reason = suppression.reason
            if not reason or not str(reason).strip():
                active.append(Finding(
                    display, suppression.line, "SUP001",
                    f"suppression allow-{suppression.token} has no "
                    "reason; write '# repro: allow-... -- "
                    "<why this is safe>'"))
            elif suppression.line not in used.get(display, set()):
                active.append(Finding(
                    display, suppression.line, "SUP002",
                    f"suppression allow-{suppression.token} matches "
                    "no finding; the issue it excused is gone — "
                    "delete the comment"))
    active.sort(key=lambda finding: (finding.file, finding.line,
                                     finding.code))
    report.findings.extend(active)

    entries = list(baseline) if baseline is not None else []
    accepted: Dict[_BaselineKey, BaselineEntry] = {}
    for entry in entries:
        if not entry.reason.strip():
            report.baseline_errors.append(
                f"{entry.file}: {entry.code} entry has an empty reason")
            continue
        accepted[entry.key()] = entry
    matched: set[_BaselineKey] = set()
    for finding in report.findings:
        key = (finding.code, finding.file, finding.message)
        if key in accepted:
            report.baselined.append(finding)
            matched.add(key)
        else:
            report.unbaselined.append(finding)
    # a restricted tree cannot tell whether an entry for a file
    # outside it still matches
    scopes = checked_trees(paths, root)
    for key, entry in sorted(accepted.items()):
        if key not in matched and _inside(entry.file, scopes):
            report.baseline_errors.append(
                f"{entry.file}: stale baseline entry {entry.code} "
                f"({entry.message[:60]}...) no longer matches any finding")
    return report


def parse_tree(path: str) -> ast.Module:
    """Parse one file to an AST — convenience for tests and tooling."""
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)
