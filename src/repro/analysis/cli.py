"""``repro lint`` / ``python -m repro.analysis`` entry point."""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.runner import (
    DEFAULT_BASELINE,
    DEFAULT_CACHE,
    checked_trees,
    load_baseline,
    run_paths,
    write_baseline,
)

#: default lint surface: the package, plus benchmarks/ and tests/
#: (the PKL/DUR families are path-scoped onto the latter two)
DEFAULT_PATHS = (os.path.join("src", "repro"), "benchmarks", "tests")


def _find_root(start: str) -> str:
    """Nearest ancestor holding ``pyproject.toml`` (else ``start``)."""
    current = os.path.abspath(start)
    while True:
        if os.path.exists(os.path.join(current, "pyproject.toml")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return os.path.abspath(start)
        current = parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="invariant-aware static analysis (per-file "
                    "DET/PKL/DUR/API families plus whole-program "
                    "LCK and DET set-method checks)")
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to check "
             "(default: src/repro benchmarks tests)")
    parser.add_argument(
        "--root", default=None,
        help="repo root for relative paths and the baseline "
             "(default: nearest ancestor with pyproject.toml)")
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline file relative to the root "
             f"(default: {DEFAULT_BASELINE})")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline; report every finding")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from current findings, keeping "
             "existing reasons and the entries for files outside the "
             "checked paths (new entries get an empty reason you "
             "must fill in)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a JSON report instead of text")
    parser.add_argument(
        "--cache", default=DEFAULT_CACHE, metavar="PATH",
        help="per-file result cache relative to the root "
             f"(default: {DEFAULT_CACHE})")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="analyze every file from scratch and write no cache")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    root = os.path.abspath(options.root) if options.root \
        else _find_root(os.getcwd())
    paths: List[str] = list(options.paths) if options.paths \
        else [path for path in DEFAULT_PATHS
              if os.path.exists(os.path.join(root, path))]
    baseline_path = os.path.join(root, options.baseline)
    baseline = [] if options.no_baseline else load_baseline(baseline_path)
    cache_path = None if options.no_cache \
        else os.path.join(root, options.cache)
    report = run_paths(paths, root, baseline, cache_path=cache_path)
    if options.write_baseline:
        write_baseline(baseline_path, report.findings, baseline,
                       checked_trees(paths, root))
        print(f"wrote {len(set(report.findings))} finding(s) to "
              f"{baseline_path}")
        return 0
    output = report.render_json() if options.as_json else report.render_text()
    print(output)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
