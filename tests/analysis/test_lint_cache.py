"""The content-hash cache: hits, invalidation, versioning, pruning."""

import json

from repro.analysis import run_paths
from repro.analysis.graph import ANALYSIS_VERSION, LintCache, content_hash

CLEAN = '''\
def snapshot(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
'''

DIRTY = '''\
import os


def snapshot(path, payload, tmp):
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
    os.rename(tmp, path)
'''


def _write(root, relative, content):
    target = root / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content, encoding="utf-8")


def test_lint_cache_lookup_by_display_and_sha(tmp_path):
    path = tmp_path / "cache.json"
    cache = LintCache(str(path))
    sha = content_hash(b"source")
    cache.store("src/a.py", {"sha": sha, "findings": [],
                             "suppressions": [], "summary": None})
    cache.save()

    reloaded = LintCache(str(path))
    assert reloaded.lookup("src/a.py", sha) is not None
    assert reloaded.lookup("src/a.py", content_hash(b"edited")) is None
    assert reloaded.lookup("src/b.py", sha) is None


def test_cache_version_mismatch_drops_entries(tmp_path):
    path = tmp_path / "cache.json"
    sha = content_hash(b"source")
    path.write_text(json.dumps({
        "version": ANALYSIS_VERSION + 1,
        "files": {"src/a.py": {"sha": sha, "findings": [],
                               "suppressions": [], "summary": None}},
    }), encoding="utf-8")
    assert LintCache(str(path)).lookup("src/a.py", sha) is None


def test_corrupt_cache_file_is_ignored(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json", encoding="utf-8")
    cache = LintCache(str(path))
    assert cache.lookup("src/a.py", content_hash(b"x")) is None
    cache.save()  # must not raise; rewrites a valid file
    json.loads(path.read_text(encoding="utf-8"))


def test_warm_run_reuses_every_file(tmp_path):
    _write(tmp_path, "src/repro/serve/snap.py", DIRTY)
    cache = tmp_path / "cache.json"

    cold = run_paths(["src"], str(tmp_path), baseline=[],
                     cache_path=str(cache))
    warm = run_paths(["src"], str(tmp_path), baseline=[],
                     cache_path=str(cache))

    assert cold.files_cached == 0
    assert warm.files_cached == warm.files_checked == 1
    assert [(f.code, f.line) for f in warm.findings] == \
        [(f.code, f.line) for f in cold.findings]
    assert any(f.code.startswith("DUR") for f in warm.findings)


def test_editing_a_file_invalidates_only_its_entry(tmp_path):
    _write(tmp_path, "src/repro/serve/snap.py", CLEAN)
    _write(tmp_path, "src/repro/serve/other.py", "VALUE = 1\n")
    cache = tmp_path / "cache.json"

    first = run_paths(["src"], str(tmp_path), baseline=[],
                      cache_path=str(cache))
    assert first.findings == []

    _write(tmp_path, "src/repro/serve/snap.py", DIRTY)
    second = run_paths(["src"], str(tmp_path), baseline=[],
                       cache_path=str(cache))
    # other.py comes from the cache; the edited file is re-analysed
    # and its new finding surfaces immediately.
    assert second.files_cached == 1
    assert any(f.code.startswith("DUR") for f in second.findings)

    _write(tmp_path, "src/repro/serve/snap.py", CLEAN)
    third = run_paths(["src"], str(tmp_path), baseline=[],
                      cache_path=str(cache))
    assert third.findings == []


def test_deleted_files_are_pruned_from_the_cache(tmp_path):
    _write(tmp_path, "src/repro/serve/a.py", "A = 1\n")
    _write(tmp_path, "src/repro/serve/b.py", "B = 1\n")
    cache = tmp_path / "cache.json"
    run_paths(["src"], str(tmp_path), baseline=[], cache_path=str(cache))

    (tmp_path / "src/repro/serve/b.py").unlink()
    run_paths(["src"], str(tmp_path), baseline=[], cache_path=str(cache))

    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert "src/repro/serve/a.py" in payload["files"]
    assert "src/repro/serve/b.py" not in payload["files"]


def test_a_summary_of_another_shape_is_a_miss(tmp_path):
    """An entry stamped with the current version whose summary no
    longer loads (a field the graph dropped) is re-analysed, not a
    ``TypeError`` out of ``repro lint``."""
    _write(tmp_path, "src/repro/serve/snap.py", DIRTY)
    cache = tmp_path / "cache.json"
    cold = run_paths(["src"], str(tmp_path), baseline=[],
                     cache_path=str(cache))

    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert payload["version"] == ANALYSIS_VERSION
    summary = payload["files"]["src/repro/serve/snap.py"]["summary"]
    calls = [call for function in summary["functions"]
             for call in function["calls"]]
    assert calls
    for call in calls:
        call["tail"] = "rename"  # a CallSite field of an older graph
    cache.write_text(json.dumps(payload), encoding="utf-8")

    warm = run_paths(["src"], str(tmp_path), baseline=[],
                     cache_path=str(cache))
    assert warm.files_cached == 0
    assert [(f.code, f.line) for f in warm.findings] == \
        [(f.code, f.line) for f in cold.findings]
    # the re-analysed entry replaced the broken one
    again = run_paths(["src"], str(tmp_path), baseline=[],
                      cache_path=str(cache))
    assert again.files_cached == again.files_checked == 1
