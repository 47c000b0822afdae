"""Runner/baseline mechanics: exit codes, staleness, round-trips."""

import json
import shutil
import textwrap

import pytest

from repro.analysis.runner import (
    BaselineEntry,
    load_baseline,
    run_paths,
    write_baseline,
)

BAD_SOURCE = """\
def run(tokens):
    collected = []
    for token in set(tokens):
        collected.append(token)
    return collected
"""


@pytest.fixture
def bad_tree(tmp_path):
    target = tmp_path / "src" / "repro" / "serve" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(BAD_SOURCE), encoding="utf-8")
    return tmp_path


def test_unbaselined_finding_fails_with_exit_1(bad_tree):
    report = run_paths(["src"], str(bad_tree))
    assert [finding.code for finding in report.unbaselined] == ["DET001"]
    assert report.exit_code() == 1
    assert not report.ok
    assert "DET001" in report.render_text()
    assert "src/repro/serve/mod.py" in report.render_text()


def test_matching_baseline_entry_accepts_finding(bad_tree):
    finding = run_paths(["src"], str(bad_tree)).unbaselined[0]
    entry = BaselineEntry(code=finding.code, file=finding.file,
                          message=finding.message,
                          reason="legacy loop, scheduled for PR 8")
    report = run_paths(["src"], str(bad_tree), baseline=[entry])
    assert report.unbaselined == []
    assert [finding.code for finding in report.baselined] == ["DET001"]
    assert report.exit_code() == 0


def test_baseline_entry_with_empty_reason_is_config_error(bad_tree):
    finding = run_paths(["src"], str(bad_tree)).unbaselined[0]
    entry = BaselineEntry(code=finding.code, file=finding.file,
                          message=finding.message, reason="   ")
    report = run_paths(["src"], str(bad_tree), baseline=[entry])
    assert report.exit_code() == 2
    assert any("empty reason" in error for error in report.baseline_errors)
    # the finding is NOT accepted by a reason-less entry
    assert [finding.code for finding in report.unbaselined] == ["DET001"]


def test_stale_baseline_entry_is_config_error(bad_tree):
    stale = BaselineEntry(code="DET001", file="src/repro/serve/gone.py",
                          message="no longer exists", reason="was real once")
    report = run_paths(["src"], str(bad_tree), baseline=[stale])
    assert report.exit_code() == 2
    assert any("stale baseline entry" in error
               for error in report.baseline_errors)


def test_a_restricted_tree_judges_only_its_own_entries(bad_tree):
    """``repro lint src/repro/serve`` cannot tell whether an entry for
    a file outside that tree still matches: not stale.  An entry for
    a file inside it that matches nothing — deleted or not — is."""
    finding = run_paths(["src"], str(bad_tree)).unbaselined[0]
    kept = BaselineEntry(code=finding.code, file=finding.file,
                         message=finding.message, reason="legacy loop")
    outside = BaselineEntry(code="PKL001",
                            file="src/repro/model/repository.py",
                            message="lambda in a pickled field",
                            reason="checked with the whole tree")
    report = run_paths(["src/repro/serve"], str(bad_tree),
                       baseline=[kept, outside])
    assert report.baseline_errors == []
    assert report.exit_code() == 0
    for stale in (
            BaselineEntry(code="DET001", file="src/repro/serve/gone.py",
                          message="no longer exists", reason="was real"),
            BaselineEntry(code="DET001", file=finding.file,
                          message="another message", reason="was real")):
        report = run_paths(["src/repro/serve"], str(bad_tree),
                           baseline=[kept, outside, stale])
        assert report.exit_code() == 2
        assert [error for error in report.baseline_errors
                if "stale baseline entry" in error] \
            == [error for error in report.baseline_errors
                if error.startswith(stale.file)]
        assert len(report.baseline_errors) == 1


def test_write_and_load_baseline_round_trip(bad_tree, tmp_path):
    finding = run_paths(["src"], str(bad_tree)).unbaselined[0]
    previous = [BaselineEntry(code=finding.code, file=finding.file,
                              message=finding.message, reason="kept reason")]
    baseline_path = tmp_path / "lint-baseline.json"
    write_baseline(str(baseline_path), [finding], previous)
    entries = load_baseline(str(baseline_path))
    assert len(entries) == 1
    assert entries[0].key() == (finding.code, finding.file, finding.message)
    assert entries[0].reason == "kept reason"


def test_writing_a_restricted_trees_baseline_keeps_the_other_entries(
        tmp_path):
    """``repro lint src/repro/serve --write-baseline`` on a copy of the
    live tree: the entries for files outside ``src/repro/serve`` stay,
    reasons and all, and the tree still lints clean against them."""
    from pathlib import Path

    from repro.analysis.cli import main

    live = Path(__file__).resolve().parents[2]
    shutil.copytree(live / "src" / "repro" / "serve",
                    tmp_path / "src" / "repro" / "serve")
    shutil.copy(live / "lint-baseline.json", tmp_path)
    before = load_baseline(str(tmp_path / "lint-baseline.json"))
    outside = [entry for entry in before
               if entry.file == "src/repro/model/repository.py"]
    assert len(outside) == 2
    argv = ["--root", str(tmp_path), "--no-cache", "src/repro/serve"]
    assert main(argv + ["--write-baseline"]) == 0
    assert load_baseline(str(tmp_path / "lint-baseline.json")) == before
    assert main(argv) == 0


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "absent.json")) == []


def test_load_baseline_rejects_unknown_version(tmp_path):
    payload = tmp_path / "lint-baseline.json"
    payload.write_text(json.dumps({"version": 99, "findings": []}),
                       encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(str(payload))


def test_syntax_error_becomes_syn001(tmp_path):
    target = tmp_path / "src" / "repro" / "serve" / "broken.py"
    target.parent.mkdir(parents=True)
    target.write_text("def broken(:\n", encoding="utf-8")
    report = run_paths(["src"], str(tmp_path))
    assert [finding.code for finding in report.unbaselined] == ["SYN001"]


def test_render_json_is_parseable(bad_tree):
    report = run_paths(["src"], str(bad_tree))
    payload = json.loads(report.render_json())
    assert payload["files_checked"] == 1
    assert payload["unbaselined"][0]["code"] == "DET001"
