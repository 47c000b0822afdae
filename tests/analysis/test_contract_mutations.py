"""Acceptance: breaking a real cross-module contract breaks the lint.

Each test copies the *live* source files into a scratch project,
applies one realistic regression (dropping a docs row or a protocol
method), and asserts the matching family flags it —
and that the unmutated copy stays clean, so the signal is the
mutation, not the harness.
"""

from pathlib import Path

import pytest

from repro.analysis import run_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def _copy(tmp_path, *relatives):
    for relative in relatives:
        source = (REPO_ROOT / relative).read_text(encoding="utf-8")
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


def _mutate(tmp_path, relative, old, new):
    target = tmp_path / relative
    text = target.read_text(encoding="utf-8")
    assert text.count(old) == 1, \
        f"mutation anchor {old!r} not unique in {relative}"
    target.write_text(text.replace(old, new), encoding="utf-8")


def _lint(tmp_path):
    return run_paths(["src"], str(tmp_path), baseline=[])


def test_copied_live_files_lint_clean(tmp_path):
    _copy(tmp_path,
          "src/repro/serve/cluster.py",
          "src/repro/serve/config.py",
          "src/repro/__main__.py",
          "src/repro/engine/columns.py",
          "docs/serving.md")
    report = _lint(tmp_path)
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


def test_deleting_a_docs_row_trips_cfg003(tmp_path):
    _copy(tmp_path, "src/repro/serve/config.py",
          "src/repro/__main__.py", "docs/serving.md")
    _mutate(tmp_path, "docs/serving.md",
            "| `attribute` ", "| (removed) ")
    report = _lint(tmp_path)
    cfg = [f for f in report.findings if f.code == "CFG003"]
    assert any("attribute" in f.message for f in cfg), \
        [f.render() for f in report.findings]


ANCHORS = {
    # the docstring's opening words disambiguate NGramColumn's methods
    # from the other columns implementing the same protocol
    # the kind's own kernel: the ``score_rows`` it inherits from
    # ``_Column`` must not satisfy the contract in its place
    "kernel_rows": (
        "    def kernel_rows(self, domain_rows: Any, range_rows: Any) -> Any:\n"
        '        """Score aligned row-index arrays; returns a float64 array.'
        "\n\n        Evaluates"),
    "score_bound_rows": (
        "    def score_bound_rows(self, domain_rows: Any, range_rows: Any)"
        " -> Any:\n"
        '        """Per-pair score upper bounds from gram counts'),
}


@pytest.mark.parametrize("method", sorted(ANCHORS))
def test_deleting_a_kernel_method_trips_krn001(tmp_path, method):
    _copy(tmp_path, "src/repro/engine/columns.py")
    anchor = ANCHORS[method]
    _mutate(tmp_path, "src/repro/engine/columns.py", anchor,
            anchor.replace(f"def {method}(", f"def {method}_retired("))
    report = _lint(tmp_path)
    krn = [f for f in report.findings if f.code == "KRN001"]
    assert any("NGramColumn" in f.message and method in f.message
               for f in krn), \
        [f.render() for f in report.findings]
