"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats``       — generate a dataset and print Table-1-style counts;
* ``experiments`` — run paper experiments and print their tables;
* ``figures``     — reproduce the worked figures (1, 4, 6, 9);
* ``export``      — write the generated sources' association mappings
  and gold standards as CSV mapping tables for external tools;
* ``serve``       — run the incremental match service as a JSON HTTP
  server over a generated reference source;
* ``lint``        — run the invariant-aware static analysis pass
  (DET/LCK/PKL/DUR/API rule families) over the source tree; what
  follows ``lint`` goes to ``repro.analysis.cli`` unchanged.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.engine import EngineConfig

EXPERIMENT_NAMES = [f"table{i}" for i in range(1, 11)] + [
    "self-mapping",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOMA (CIDR 2007) reproduction toolkit",
    )
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "paper"],
                        help="dataset scale preset (default: tiny)")
    parser.add_argument("--seed", type=int, default=7,
                        help="world generator seed (default: 7)")
    parser.add_argument("--workers", type=int, default=1,
                        help="N processes score in the batch match engine: "
                             "the parent and N - 1 forked children "
                             "(default: 1 = serial)")
    parser.add_argument("--chunk-size", type=int,
                        default=EngineConfig.chunk_size,
                        help="candidate row pairs per kernel call "
                             "(default: %(default)s)")
    parser.add_argument("--profile", action="store_true",
                        help="record per-stage engine timings (prepare, "
                             "chunk scoring, shard durations) into "
                             "engine.last_profile; pure observation, "
                             "identical results")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("stats", help="print dataset statistics")

    experiments = subparsers.add_parser(
        "experiments", help="run paper experiments")
    experiments.add_argument(
        "names", nargs="*", default=[],
        help=f"experiments to run (default: all); one of {EXPERIMENT_NAMES}")

    subparsers.add_parser("figures", help="reproduce Figures 1/4/6/9")

    export = subparsers.add_parser(
        "export", help="export mappings and gold standards as CSV")
    export.add_argument("--out", required=True,
                        help="target directory for the CSV mapping tables")

    serve = subparsers.add_parser(
        "serve", help="run the incremental match service over HTTP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port, 0 for ephemeral (default: 8765)")
    serve.add_argument("--reference", default="dblp",
                       choices=["dblp", "acm", "gs"],
                       help="generated source to serve as the reference "
                            "(default: dblp)")
    serve.add_argument("--attribute", default="title",
                       help="match attribute (default: title)")
    serve.add_argument("--similarity", default="trigram",
                       help="similarity function registry name "
                            "(default: trigram)")
    serve.add_argument("--missing", default="skip",
                       choices=("skip", "zero"),
                       help="missing-value policy for the match "
                            "attribute: drop the pair or score it zero "
                            "(default: skip)")
    serve.add_argument("--threshold", type=float, default=0.7,
                       help="similarity threshold (default: 0.7)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="result-reuse cache entries, 0 disables "
                            "(default: 1024)")
    serve.add_argument("--max-candidates", type=int, default=50,
                       help="candidates scored per query record, 0 for "
                            "exhaustive scoring (default: 50)")
    serve.add_argument("--repository", default=None, metavar="PATH",
                       help="SQLite file persisting matched "
                            "same-mappings (default: no persistence)")
    serve.add_argument("--mapping-name", default="serve.same",
                       help="repository mapping name for persisted "
                            "correspondences (default: serve.same)")
    serve.add_argument("--shards", type=int, default=0,
                       help="validated (>= 0) and ignored: the index is "
                            "one partition (default: 0)")
    serve.add_argument("--data-dir", default=None, metavar="PATH",
                       help="back the index with on-disk packed columns "
                            "+ a mutation WAL; restores warm from an "
                            "existing snapshot, enables POST "
                            "/v1/snapshot")
    serve.add_argument("--compact-ratio", type=float, default=0.25,
                       help="index compaction triggers when dead rows "
                            "exceed this fraction of live rows "
                            "(default: 0.25)")
    serve.add_argument("--compact-min", type=int, default=64,
                       help="minimum dead rows before compaction is "
                            "considered (default: 64)")
    serve.add_argument("--metrics", action="store_true",
                       help="enable the observability subsystem: GET "
                            "/v1/metrics (Prometheus text format), "
                            "request tracing and structured JSON logs; "
                            "match results stay bit-identical")
    serve.add_argument("--trace-sample-rate", type=float, default=0.0,
                       help="with --metrics: fraction of requests to "
                            "trace, deterministic accumulator sampling "
                            "(default: 0.0 = no traces, 1.0 = all)")
    serve.add_argument("--slow-query-ms", type=float, default=0.0,
                       help="with --metrics: log a slow_query event for "
                            "scoring batches slower than this many "
                            "milliseconds (default: 0 = disabled)")

    # its options are repro.analysis.cli's: main() hands them over
    subparsers.add_parser(
        "lint", add_help=False,
        help="run the repo-specific static analysis checkers "
             "(repro lint -h lists their options)")
    return parser


def _load_workbench(args):
    from repro.datagen import build_dataset
    from repro.eval.experiments import Workbench

    dataset = build_dataset(args.scale, seed=args.seed)
    return dataset, Workbench(dataset)


def _command_stats(args) -> int:
    from repro.eval.experiments import run_table1

    _, workbench = _load_workbench(args)
    print(run_table1(workbench).render())
    return 0


def _command_experiments(args) -> int:
    from repro.eval.experiments import (
        run_self_mapping_extension,
        run_table1,
        run_table10,
        run_table2,
        run_table3,
        run_table4,
        run_table5,
        run_table6,
        run_table7,
        run_table8,
        run_table9,
    )

    runners = {
        "table1": run_table1, "table2": run_table2, "table3": run_table3,
        "table4": run_table4, "table5": run_table5, "table6": run_table6,
        "table7": run_table7, "table8": run_table8, "table9": run_table9,
        "table10": run_table10,
        "self-mapping": run_self_mapping_extension,
    }
    wanted = args.names if args.names else list(runners)
    unknown = [name for name in wanted if name not in runners]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"known: {sorted(runners)}", file=sys.stderr)
        return 2

    _, workbench = _load_workbench(args)
    for name in wanted:
        start = time.perf_counter()
        result = runners[name](workbench)
        print(result.render())
        print(f"  [{name} in {time.perf_counter() - start:.1f}s]\n")
    return 0


def _command_figures(args) -> int:
    from repro.eval.experiments import (
        run_figure1,
        run_figure4,
        run_figure6,
        run_figure9,
    )

    all_match = True
    for runner in (run_figure1, run_figure4, run_figure6, run_figure9):
        result = runner()
        print(result.render())
        print()
        all_match = all_match and result.data["matches_paper"]
    print(f"all figures match the paper: {all_match}")
    return 0 if all_match else 1


def _command_export(args) -> int:
    from repro.model.io import write_mapping_csv

    dataset, _ = _load_workbench(args)
    target = Path(args.out)
    target.mkdir(parents=True, exist_ok=True)

    written = []
    for name in dataset.smm.mapping_names():
        mapping = dataset.smm.find_mapping(name)
        path = target / f"{name.replace('.', '_')}.csv"
        rows = write_mapping_csv(mapping, path)
        written.append((path.name, rows))
    for key in dataset.gold:
        category, domain, range_ = key
        mapping = dataset.gold.get(category, domain, range_)
        safe = f"gold_{category}_{domain}_{range_}".replace(".", "_")
        path = target / f"{safe}.csv"
        rows = write_mapping_csv(mapping, path)
        written.append((path.name, rows))

    for file_name, rows in written:
        print(f"  wrote {file_name} ({rows} rows)")
    print(f"{len(written)} mapping tables exported to {target}")
    return 0


def _command_serve(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        print("--threshold must be in [0, 1]", file=sys.stderr)
        return 2
    if args.max_candidates < 0:
        print("--max-candidates must be >= 0 (0 = exhaustive)",
              file=sys.stderr)
        return 2
    if args.shards < 0:
        print("--shards must be >= 0", file=sys.stderr)
        return 2
    from repro.datagen import build_dataset
    from repro.model.repository import MappingRepository
    from repro.serve import MatchService, ServeConfig
    from repro.serve import partition as partition_layout
    from repro.serve.http import serve

    repository = (MappingRepository(args.repository)
                  if args.repository else None)
    config = ServeConfig(
        attribute=args.attribute, similarity=args.similarity,
        missing=args.missing, threshold=args.threshold,
        max_candidates=(None if args.max_candidates == 0
                        else args.max_candidates),
        cache_size=args.cache_size,
        # NB: an empty repository is falsy (len 0) — test identity
        mapping_name=args.mapping_name if repository is not None else None,
        compact_ratio=args.compact_ratio, compact_min=args.compact_min,
        shards=args.shards, data_dir=args.data_dir,
        host=args.host, port=args.port,
        metrics=args.metrics,
        trace_sample_rate=args.trace_sample_rate,
        slow_query_ms=args.slow_query_ms)

    restoring = (args.data_dir is not None and
                 partition_layout.read_manifest(args.data_dir) is not None)
    if restoring:
        # an existing snapshot wins over regenerating the reference:
        # the index restarts warm from its packed base + WAL
        reference = None
    else:
        dataset = build_dataset(args.scale, seed=args.seed)
        reference = getattr(dataset, args.reference).publications
    service = MatchService(reference, config=config,
                           repository=repository)

    def ready(server) -> None:
        host, port = server.server_address[:2]
        origin = ("restored from " + args.data_dir if restoring
                  else f"{reference.name}")
        topology = ("durable index" if config.clustered
                    else "single index")
        print(f"serving {origin} ({len(service.index)} records, "
              f"{args.similarity} @ {args.threshold}, {topology}) "
              f"on http://{host}:{port}")
        print("endpoints: POST /v1/match /v1/ingest /v1/delete "
              "/v1/snapshot · GET /v1/stats /v1/healthz"
              + (" /v1/metrics" if config.metrics else "")
              + " · Ctrl-C to stop")

    try:
        serve(service, config.host, config.port, ready=ready)
    finally:
        service.close()
        if repository is not None:
            repository.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.analysis.cli import main as lint_main
        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_size < 1:
        print("--chunk-size must be >= 1", file=sys.stderr)
        return 2
    from repro.engine import configure_default_engine
    configure_default_engine(workers=args.workers, chunk_size=args.chunk_size,
                             profile=args.profile)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "experiments":
        return _command_experiments(args)
    if args.command == "figures":
        return _command_figures(args)
    if args.command == "export":
        return _command_export(args)
    if args.command == "serve":
        return _command_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
