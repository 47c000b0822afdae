"""moma_bench entry point.

One workload, as the benchmark driver calls it::

    python3 benchmarks/moma_bench/run.py --workload serve-read \\
        --seed 7 --seconds 24 --trace 0

prints a short report and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

All four workloads, each untraced then traced in a fresh interpreter::

    python benchmarks/moma_bench/run.py --seed 7

``--smoke`` shrinks everything to a couple of seconds per workload;
``--aa`` runs two full sets of the same checkout and compares them;
``--seeds 1,2,3`` reports the run-to-run spread of every end-to-end
metric against its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import (END_TO_END, OUT_DIR, PER_LAYER, ROOT, WORKLOADS,  # noqa: E402
                    Outcome, RssSampler, fingerprint, median, print_metrics,
                    spread, write_json)

SMOKE_SECONDS = 2


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# one workload in this interpreter
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, object]:
    common.bootstrap()
    import batch
    import serve
    from tracer import Tracer

    runner = {"batch-workflows": batch.run_workflows,
              "batch-engine": batch.run_engine,
              "serve-read": serve.run_read,
              "serve-cluster-mixed": serve.run_cluster_mixed}[workload]
    outcome = Outcome()
    tracer = Tracer()
    try:
        with RssSampler() as rss:
            runner(seed, seconds, trace, smoke, outcome, tracer)
    finally:
        tracer.uninstall()
        if trace:
            tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    outcome.metrics["peak_rss_mb"] = rss.peak_mb
    outcome.metrics["failed_share"] = \
        outcome.failed / max(1, outcome.attempted)
    result = outcome.result(PER_LAYER if trace else END_TO_END)

    print(f"{workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}{' smoke' if smoke else ''}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    print_metrics(result)
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    write_json(
        OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json",
        {"workload": workload, "seed": seed, "seconds": seconds,
         "trace": trace, "smoke": smoke, "fingerprint": fingerprint(),
         "observed": outcome.observed, "notes": outcome.notes,
         "failures": outcome.failures, **result})
    print(json.dumps(result))
    return result


# ----------------------------------------------------------------------
# sets of runs, each workload in a fresh interpreter
# ----------------------------------------------------------------------

def _spawn(workload: str, seed: int, seconds: float, trace: bool,
           smoke: bool) -> Optional[Dict[str, object]]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    # an incorrect run exits 1 but still ends with its result line
    result = (json.loads(lines.pop())
              if lines and lines[-1].startswith("{") else None)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if result is None:
        print(f"  {workload}: exited with {done.returncode}, no result")
    return result


def run_set(seed: int, seconds: float, smoke: bool,
            order: Sequence[str] = WORKLOADS, traced: bool = True) \
        -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: value}}``; ``correct`` rides along."""
    values: Dict[str, Dict[str, float]] = {}
    for workload in order:
        merged: Dict[str, float] = {"correct": 1.0}
        for trace in ((False, True) if traced else (False,)):
            result = _spawn(workload, seed, seconds, trace, smoke)
            if result is None or not result["correct"]:
                merged["correct"] = 0.0
            if result is not None:
                merged.update({name: entry["value"] for name, entry
                               in result["metrics"].items()})
        values[workload] = merged
    return values


def _within(share: float, a: float, b: float) -> bool:
    return abs(a - b) <= share * max(abs(a), abs(b))


def check_identities(values: Dict[str, Dict[str, float]]) -> None:
    """The sums the issue's acceptance criteria ask to see (reported,
    not enforced: they compare a traced run with an untraced one)."""
    flows = values.get("batch-workflows", {})
    if "trace.overhead_ratio" in flows:
        # eval.*_s is the fastest traced pass, table by table; the base
        # of the ratio is the same run's fastest untraced pass
        ratio = flows["trace.overhead_ratio"]
        print(f"  batch-workflows: eval.*_s sum / untraced pass = {ratio:.3f}: "
              f"{'within' if abs(ratio - 1.0) <= 0.05 else 'OUTSIDE'} 5%")
    for workload in ("serve-read", "serve-cluster-mixed"):
        served = values.get(workload, {})
        if "serve.http.overhead_ms" in served:
            total = (served["serve.http.overhead_ms"]
                     + served["serve.service.match_batch_ms"])
            print(f"  {workload}: http overhead + match_batch {total:.2f}ms "
                  f"vs match_p50_ms {served['match_p50_ms']:.2f}ms: "
                  f"{'within' if _within(0.10, total, served['match_p50_ms']) else 'OUTSIDE'} 10%")


def run_all(seed: int, seconds: float, smoke: bool,
            write_expected: bool) -> int:
    values = run_set(seed, seconds, smoke)
    if write_expected:
        observed = {
            workload: json.loads(
                (OUT_DIR / f"result-{workload}-seed{seed}-trace0.json")
                .read_text())["observed"]
            for workload in WORKLOADS}
        write_json(common.BENCH_DIR / "expected" / f"seed{seed}.json",
                   {workload: digests for workload, digests
                    in observed.items() if digests})
    print("\nsummary")
    check_identities(values)
    write_json(OUT_DIR / f"moma_bench-seed{seed}.json",
               {"seed": seed, "seconds": seconds, "smoke": smoke,
                "fingerprint": fingerprint(), "values": values})
    correct = all(entry["correct"] for entry in values.values())
    print(f"  all workloads correct: {correct}")
    return 0 if correct else 1


def _bounds() -> Dict[str, dict]:
    return {entry["name"]: entry for entry in _contract()["end_to_end"]}


def run_aa(seed: int, seconds: float, smoke: bool) -> int:
    """Two full sets of the same checkout, in opposite workload order."""
    first = run_set(seed, seconds, smoke)
    second = run_set(seed, seconds, smoke, order=tuple(reversed(WORKLOADS)))
    bounds = _bounds()
    exact = ("quality_f1", "failed_share", "core.mapping_rows",
             "serve.index.pruned_query_share",
             "serve.index.postings_touched_per_query",
             "serve.index.postings_skipped_share")
    ok = True
    print("\nA/A comparison (relative difference against the bound)")
    for workload in WORKLOADS:
        a, b = first[workload], second[workload]
        ok = ok and bool(a["correct"]) and bool(b["correct"])
        for name in [*END_TO_END,
                     *(name for name in exact if name not in END_TO_END)]:
            if name not in a or name not in b:
                continue
            base = max(abs(a[name]), abs(b[name]))
            difference = abs(a[name] - b[name]) / base if base else 0.0
            if name in exact and workload != "serve-cluster-mixed":
                limit = 0.0   # mutation timing makes the mixed run inexact
            elif name in bounds:
                limit = bounds[name]["bound"]
            else:
                continue
            passed = difference <= limit
            ok = ok and passed
            print(f"  {workload:<20} {name:<40} {a[name]:>14.6g} "
                  f"{b[name]:>14.6g} {difference:>8.2%} "
                  f"(limit {limit:.0%}) {'pass' if passed else 'FAIL'}")
    write_json(OUT_DIR / f"moma_bench-aa-seed{seed}.json",
               {"fingerprint": fingerprint(), "first": first,
                "second": second})
    return 0 if ok else 1


def run_seeds(seeds: List[int], seconds: float, smoke: bool) -> int:
    """Spread of every end-to-end metric over ``seeds`` (untraced)."""
    sets = [run_set(seed, seconds, smoke, traced=False) for seed in seeds]
    bounds = _bounds()
    ok = all(entry["correct"] for values in sets
             for entry in values.values())
    report: Dict[str, Dict[str, dict]] = {}
    print("\nspread = (Q3 - Q1) / median over seeds", seeds)
    for workload in WORKLOADS:
        for name in END_TO_END:
            observed = [values[workload][name] for values in sets
                        if name in values[workload]]
            if len(observed) < 2:
                continue
            share = spread(observed)
            limit = bounds[name]["bound"]
            passed = name == "setup_s" or share <= limit
            ok = ok and passed
            report.setdefault(workload, {})[name] = {
                "median": median(observed), "spread": share}
            print(f"  {workload:<20} {name:<22} median "
                  f"{median(observed):>12.6g} spread {share:>7.2%} "
                  f"(bound {limit:.0%}) {'pass' if passed else 'FAIL'}")
    write_json(OUT_DIR / "moma_bench-spread.json",
               {"fingerprint": fingerprint(), "seeds": seeds,
                "seconds": seconds, "report": report})
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, ~2 s per workload, same checks")
    parser.add_argument("--aa", action="store_true",
                        help="two full sets, compared against the bounds")
    parser.add_argument("--write-expected", action="store_true",
                        help="after a full run, store the outputs' digests "
                             "under expected/ for this seed")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds: report the spread "
                             "of each end-to-end metric")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else _contract()["run_seconds"]
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.smoke)
        return 0 if result["correct"] else 1
    common.bootstrap()
    if args.aa:
        return run_aa(args.seed, seconds, args.smoke)
    if args.seeds is not None:
        return run_seeds([int(seed) for seed in args.seeds.split(",")],
                         seconds, args.smoke)
    return run_all(args.seed, seconds, args.smoke, args.write_expected)


if __name__ == "__main__":
    sys.exit(main())
