"""Docs link checker: every markdown link in docs/ and README resolves.

Runs under tier-1 (no new CI workflow or dependency), so a renamed
file or a typoed anchor breaks the build instead of the reader.
Relative links must point at existing files; intra-repo anchors
(``file.md#section``) must match a heading in the target; external
``http(s)`` links are recorded but not fetched (CI must not depend on
the network).  The ``*.md`` names that source and benchmark modules
cite (docstrings, comments, help strings) must exist too, and the
lazily exported package names must resolve — both drift silently.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: every markdown file whose links the build guarantees
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md")),
    key=lambda path: path.name,
)

#: python files whose cited ``*.md`` names the build guarantees
SOURCE_FILES = sorted(list((REPO_ROOT / "src").rglob("*.py"))
                      + list((REPO_ROOT / "benchmarks").glob("*.py")))

_MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _anchor(heading: str) -> str:
    """GitHub's heading -> anchor slug (lowercase, dashes, no punct)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _links(path: Path):
    return _LINK_RE.findall(path.read_text(encoding="utf-8"))


def test_docs_directory_has_the_guaranteed_pages():
    names = {path.name for path in (REPO_ROOT / "docs").glob("*.md")}
    assert {"architecture.md", "engine.md", "benchmarks.md",
            "serving.md", "static-analysis.md", "workflows.md"} <= names


def test_readme_links_every_docs_page():
    readme_links = " ".join(_links(REPO_ROOT / "README.md"))
    for page in ("docs/architecture.md", "docs/engine.md",
                 "docs/benchmarks.md", "docs/serving.md",
                 "docs/static-analysis.md", "docs/workflows.md"):
        assert page in readme_links, f"README does not link {page}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda path: path.name)
def test_links_resolve(doc):
    broken = []
    for target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            path, anchor = doc, target[1:]
        else:
            raw, _, anchor = target.partition("#")
            path = (doc.parent / raw).resolve()
        if not path.exists():
            broken.append(f"{target}: file {path} does not exist")
            continue
        if anchor and path.suffix == ".md":
            anchors = {_anchor(h) for h in
                       _HEADING_RE.findall(path.read_text(encoding="utf-8"))}
            if anchor not in anchors:
                broken.append(f"{target}: no heading for anchor #{anchor}")
    assert not broken, f"broken links in {doc.name}:\n" + "\n".join(broken)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda path: path.name)
def test_links_stay_inside_the_repository(doc):
    for target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (doc.parent / target.partition("#")[0]).resolve()
        assert resolved.is_relative_to(REPO_ROOT), \
            f"{target} escapes the repository"


def test_markdown_names_cited_in_sources_exist():
    """``See DESIGN.md`` in a docstring is a link too: the cited file
    must exist at the repository root or under ``docs/``."""
    missing = []
    for source in SOURCE_FILES:
        for name in sorted(set(_MD_NAME_RE.findall(
                source.read_text(encoding="utf-8")))):
            if not ((REPO_ROOT / name).is_file()
                    or (REPO_ROOT / "docs" / name).is_file()):
                missing.append(f"{source.relative_to(REPO_ROOT)}: {name}")
    assert not missing, "cited markdown files do not exist:\n" \
        + "\n".join(missing)


@pytest.mark.parametrize("package", ["repro.core", "repro.serve"])
def test_every_exported_name_resolves(package):
    """``__all__`` and the lazy-import table are maintained by hand; a
    name listed in one but gone from the other only fails when some
    caller finally asks for it."""
    module = importlib.import_module(package)
    unresolved = [name for name in module.__all__
                  if getattr(module, name, None) is None]
    assert not unresolved, f"{package}.__all__ names nothing: {unresolved}"
