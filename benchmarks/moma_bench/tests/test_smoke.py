"""Self-test of moma_bench: smoke runs against the BENCHMARK.json contract.

Not part of tier-1 (``testpaths`` stays ``tests``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/moma_bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def _run(directory: Path, *arguments: str) -> subprocess.CompletedProcess:
    command = [sys.executable if part == "python3" else part
               for part in CONTRACT["command"]]
    return subprocess.run([*command, *arguments], cwd=directory,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/moma_bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = WORKLOADS + [entry["name"] for group in ("end_to_end", "per_layer")
                         for entry in CONTRACT[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for group in ("end_to_end", "per_layer"):
        for entry in CONTRACT[group]:
            assert UNIT.fullmatch(entry["unit"])
            assert entry["better"] in ("lower", "higher")
    setup = [entry for entry in CONTRACT["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"]
                                    for entry in CONTRACT["end_to_end"])


def test_catalogue_matches_contract():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import common
    finally:
        sys.path.remove(str(BENCH_DIR))
    assert list(common.WORKLOADS) == WORKLOADS
    for group, catalogue in (("end_to_end", common.END_TO_END),
                             ("per_layer", common.PER_LAYER)):
        assert {entry["name"]: entry["unit"]
                for entry in CONTRACT[group]} == catalogue


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload: str, trace: int):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = {entry["name"]: entry["unit"] for entry
              in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == listed
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    leftovers = subprocess.run(["pgrep", "-f", "repro .*serve --port 0"],
                               stdout=subprocess.PIPE, text=True).stdout
    assert not leftovers.strip()


def test_exits_nonzero_without_the_sources(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "moma_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
