"""Shared plumbing of moma_bench: metric catalogue, statistics, process
accounting and the result line every run ends with.

The benchmark depends only on the public ``repro`` API and on nothing
else under ``benchmarks/``; :func:`bootstrap` makes the checkout's own
``src/`` the one place ``repro`` can come from.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
#: spans, result files and scratch data dirs (ignored by git)
OUT_DIR = ROOT / "bench-out"

WORKLOADS = ("batch-workflows", "batch-engine", "serve-read",
             "serve-cluster-mixed")

#: end-to-end metrics: name -> unit.  Every workload reports every one
#: (tracing off); bounds and directions live in BENCHMARK.json.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "match_p50_ms": "ms",
    "match_tail_ms": "ms",
    "match_records_per_s": "records/s",
    "quality_f1": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit.  Reported by the traced run; a
#: layer a workload never enters reads 0 there.
PER_LAYER: Dict[str, str] = {
    # tier-level figures that only some workloads produce
    "batch_wall_s": "s",
    "mutate_p50_ms": "ms",
    "mutate_p95_ms": "ms",
    "snapshot_ms": "ms",
    "restart_s": "s",
    "failed_share": "ratio",
    # repro.datagen
    "datagen.build_s": "s",
    # repro.blocking
    "blocking.candidates_s": "s",
    "blocking.pairs": "count",
    "blocking.shards_s": "s",
    # repro.sim
    "sim.prepare_s": "s",
    "sim.trigram_pairs_per_s": "pairs/s",
    "sim.tfidf_pairs_per_s": "pairs/s",
    # repro.engine
    "engine.trigram_s": "s",
    "engine.tfidf_s": "s",
    "engine.multiattr_s": "s",
    "engine.prepare_s": "s",
    "engine.score_s": "s",
    "engine.shard_imbalance": "ratio",
    "engine.pairs_per_s": "pairs/s",
    "engine.serial_vs_sharded": "ratio",
    # repro.core
    "core.merge_s": "s",
    "core.compose_s": "s",
    "core.select_s": "s",
    "core.neighborhood_s": "s",
    "core.matcher_self_s": "s",
    "core.mapping_rows": "count",
    # repro.model
    "model.cache_hit_ratio": "ratio",
    # repro.eval
    **{f"eval.table{n}_s": "s" for n in range(2, 11)},
    "eval.self_mapping_s": "s",
    # repro.serve.http
    "serve.http.overhead_ms": "ms",
    "serve.http.json_ms": "ms",
    "serve.http.request_bytes": "bytes",
    "serve.http.response_bytes": "bytes",
    # repro.serve.service
    "serve.service.match_batch_ms": "ms",
    "serve.service.ingest_ms": "ms",
    "serve.service.delete_ms": "ms",
    "serve.service.cache_hit_ratio": "ratio",
    # repro.serve.index
    "serve.index.candidates_ms": "ms",
    "serve.index.score_ms": "ms",
    "serve.index.match_records_ms": "ms",
    "serve.index.match_never_ms": "ms",
    "serve.index.match_always_ms": "ms",
    "serve.index.pruned_query_share": "ratio",
    "serve.index.postings_touched_per_query": "count",
    "serve.index.postings_skipped_share": "ratio",
    "serve.index.add_us": "us",
    "serve.index.update_us": "us",
    "serve.index.delete_us": "us",
    "serve.index.compact_ms": "ms",
    "serve.index.compactions": "count",
    # repro.serve.cluster
    "serve.cluster.match_1shard_ms": "ms",
    "serve.cluster.match_2shard_ms": "ms",
    "serve.cluster.match_2thread_ms": "ms",
    "serve.cluster.tax_1shard": "ratio",
    "serve.cluster.checkpoint_ms": "ms",
    "serve.cluster.restore_ms": "ms",
    "serve.cluster.orphan_shards": "count",
    # repro.serve.wal / repro.serve.partition
    "serve.wal.append_us": "us",
    "serve.wal.sync_ms": "ms",
    "serve.wal.replay_ms": "ms",
    "serve.wal.bytes_per_record": "bytes",
    "serve.partition.base_bytes_per_record": "bytes",
    # repro.obs
    "obs.on_off_ratio": "ratio",
    # the benchmark's own tracer
    "trace.overhead_ratio": "ratio",
}


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` (and in the
    environment of every child process); exit non-zero without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"moma_bench: {SRC}/repro not found — run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (f"{SRC}{os.pathsep}{inherited}"
                                if inherited else str(SRC))
    # resolved, not imported: import time belongs to the set-up phase
    origin = importlib.util.find_spec("repro").origin
    if Path(origin).resolve().parents[1] != SRC:
        sys.exit(f"moma_bench: repro resolves to {origin}, expected {SRC}")


# -- statistics -----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# -- process accounting ---------------------------------------------------

def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (children first, then theirs)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(child) for child in handle.read().split()]
            except (OSError, ValueError):
                continue
            found.extend(children)
            frontier.extend(children)
    return found


class RssSampler:
    """Peak of ``VmHWM`` summed over this process and its descendants.

    Children come and go (engine pool workers, the server and its
    shard workers), so the sum is sampled a few times a second and the
    largest sample is the reading.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self._interval = interval
        self._stop = threading.Event()  # repro: allow-unpicklable -- process-local sampler, never sent to a worker
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.peak_kb = 0

    def _sample(self) -> None:
        me = os.getpid()
        total = sum(_status_kb(pid, "VmHWM:")
                    for pid in [me, *descendants(me)])
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._sample()
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# -- fingerprint and result line ------------------------------------------

def fingerprint() -> Dict[str, object]:
    """The hardware/software identity every result file carries."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        commit = ((ROOT / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") else ref)
    except OSError:
        pass  # an exported checkout has no .git
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(), "commit": commit}


class Outcome:
    """Attempted/failed operation counts plus the measured metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        #: human-readable notes (sample counts, per-client requests)
        self.notes: List[str] = []
        #: first few failure descriptions, for the report
        self.failures: List[str] = []
        #: digests of the outputs, in the shape expected/ stores them
        self.observed: Dict[str, object] = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.fail(what, attempted=False)
        return ok

    def fail(self, what: str, *, attempted: bool = True) -> None:
        self.attempted += int(attempted)
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def result(self, catalogue: Dict[str, str]) -> Dict[str, object]:
        """The contract's result object over ``catalogue``'s metrics."""
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": float(self.metrics.get(name, 0.0)),
                               "unit": unit}
                        for name, unit in catalogue.items()},
        }


def print_metrics(result: Dict[str, object]) -> None:
    for name, entry in result["metrics"].items():
        print(f"  {name:<42} {entry['value']:>16.6g} {entry['unit']}")


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def timeboxed(budget_s: float, minimum: int = 1) -> Iterable[int]:
    """Yield pass numbers until ``budget_s`` is (about) used up.

    A further pass starts only while half of it still fits, so a run
    rounds to the nearest whole pass instead of always overshooting.
    """
    begun = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - begun
        if done >= minimum and elapsed + 0.5 * elapsed / done > budget_s:
            return


def digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_expected(seed: int, smoke: bool) -> Optional[dict]:
    """Committed digests for ``seed`` (only seed 7, full scale)."""
    path = BENCH_DIR / "expected" / f"seed{seed}.json"
    if smoke or not path.is_file():
        return None
    return json.loads(path.read_text())
